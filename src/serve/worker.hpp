// Lease-protocol worker: the `cid_sweep --connect HOST:PORT` runtime.
//
// run_worker() connects to a cid_serve coordinator, handshakes (protocol
// version, grid fingerprint and canary bits — both sides must be running
// the SAME grid on builds that land the same bits), then loops lease →
// run the granted run of trials → complete until the coordinator reports
// the grid drained. Each lease request carries the worker's remaining
// max_trials budget, so the coordinator never grants more trials than the
// worker will run. Trial execution reuses the local runner's machinery
// verbatim: each trial's Rng stream comes from sweep::derive_trial_rng
// (the shared authority run_sweep uses — one O(1) keyed split of the cell
// master, so a run deep into a cell costs no more than trial 0), and it
// runs through sweep::run_trial_attempts, the retry loop run_sweep uses
// too (fresh stream copy per attempt, same backoff) — so a leased trial's
// outcome is bit-identical to what a local --threads 1 run would record.
//
// A run's trials execute in trial order; the ones that succeeded land in
// one complete, and the ones whose local retry budget ran out go back in
// one requeue. One background renewer thread per lease extends it at
// half-TTL intervals while the run executes (the socket is a strict
// request/response channel guarded by a mutex, so renewals interleave
// safely with the main loop's RPCs). Lost leases are not an error: the
// completion is rejected with lease_lost (or the renewal already said
// so), counted, and the worker simply leases again — the coordinator has
// already reclaimed the run.
//
// Connection loss (including injected net.read/net.write faults) triggers
// a bounded reconnect-and-rehandshake, HumbleNet-peer style; an in-flight
// lease is abandoned to the coordinator's reclaim. util::fault_crash
// always propagates — a crash site kills the worker, it never retries.
//
// After every lease (and at drain) the worker pushes its cumulative
// metrics_version-stamped counter snapshot (sweep.ran_rounds,
// sweep.queue_wait_ns grant-wait, sweep.trial_failures, ...), which the
// coordinator folds into the fleet-level /metrics exposition.
#pragma once

#include <cstdint>
#include <string>

#include "sweep/runner.hpp"

namespace cid::serve {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Worker name reported in the hello (diagnostics only).
  std::string name = "worker";

  /// Trial retry policy — same semantics as SweepOptions.
  int trial_max_attempts = 3;
  double retry_backoff_ms = 25.0;
  double retry_backoff_max_ms = 2000.0;

  /// Connect/reconnect budget: attempts per (re)connection, with linear
  /// backoff between them.
  int connect_attempts = 5;
  double connect_backoff_ms = 200.0;
  /// Blocking-read timeout on coordinator responses; a silent coordinator
  /// is a dead one.
  double recv_timeout_seconds = 30.0;

  /// Renew the held lease every ttl*renew_fraction while its run
  /// executes; 0 disables the renewer thread (tests exercising expiry).
  double renew_fraction = 0.5;

  /// Stop after this many completed trials (then bye); -1 = until
  /// drained. Sent with each lease request, so it bounds trials, not
  /// leases. Lets tests pin exactly which worker does how much work.
  std::int64_t max_trials = -1;

  /// Push the cumulative counter snapshot after each lease.
  bool push_metrics = true;

  bool verbose = false;
};

struct WorkerReport {
  std::size_t trials_completed = 0;  // trials landed (not leases)
  std::size_t trials_requeued = 0;   // local retry budget exhausted
  std::int64_t trial_retries = 0;
  std::size_t leases_lost = 0;  // completions/renewals rejected
  std::size_t waits = 0;        // wait responses honored
  std::size_t reconnects = 0;
  bool drained = false;  // coordinator reported the grid drained
};

/// Runs the worker loop until the coordinator drains, max_trials is
/// reached, or the connection cannot be re-established. Throws
/// std::runtime_error on a handshake rejection (version, grid or canary
/// mismatch), net_error when the reconnect budget is exhausted, and
/// propagates util::fault_crash from injected crash sites.
WorkerReport run_worker(const sweep::SweepGrid& grid,
                        const WorkerOptions& options);

}  // namespace cid::serve
