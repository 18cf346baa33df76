// Lease-protocol worker: the `cid_sweep --connect HOST:PORT` runtime.
//
// run_worker() connects to a cid_serve coordinator, handshakes (protocol
// version, grid fingerprint and canary bits — both sides must be running
// the SAME grid on builds that land the same bits), then loops lease →
// run the granted run of trials → complete until the coordinator reports
// the grid drained. Each lease request carries the worker's remaining
// max_trials budget, so the coordinator never grants more trials than the
// worker will run.
//
// A run's trials execute in trial order, each through
// sweep::run_trial_step — the one trial step run_sweep's pool uses too:
// the same derive_trial_rng stream, RetryPolicy attempts and backoff,
// retry and failure lines and sums — so a leased trial's outcome is
// bit-identical to what a local --threads 1 run would record. The ones
// that succeeded land in one complete, and the ones whose local retry
// budget ran out go back in one requeue. One background renewer thread
// per lease extends it every ttl × renew_fraction while the run executes
// (the socket is a strict request/response channel guarded by a mutex,
// so renewals interleave safely with the main loop's RPCs). Lost leases
// are not an error: the completion is rejected with lease_lost (or the
// renewal already said so), counted, and the worker simply leases again —
// the coordinator has already reclaimed the run.
//
// Connection loss (including injected net.read/net.write faults) triggers
// a reconnect-and-rehandshake, HumbleNet-peer style: 5 attempts per
// (re)connection, 200 ms × attempt apart, and a 30 s read timeout on
// every response (a silent coordinator is a dead one). An in-flight lease
// is abandoned to the coordinator's reclaim. util::fault_crash always
// propagates — a crash site kills the worker, it never retries.
//
// After every lease (and at drain) the worker merges the lease's
// sweep::TrialTotals into its registry once and pushes the cumulative
// metrics_version-stamped counter snapshot (sweep.ran_rounds,
// sweep.latency_evals, sweep.trial_retries, sweep.queue_wait_ns
// grant-wait, sweep.trial_failures, ... plus engine.* when the grid meters,
// DynamicsConfig::collect_metrics), which the coordinator sums into the
// fleet-level /metrics exposition.
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

  /// Trial retry policy — the same as SweepOptions::retry.
  sweep::RetryPolicy retry;

  /// Renew the held lease every ttl*renew_fraction while its run
  /// executes; 0 disables the renewer thread (tests exercising expiry).
  double renew_fraction = 0.5;

  /// Stop after this many completed trials (then bye); -1 = until
  /// drained. Sent with each lease request, so it bounds trials, not
  /// leases. Lets tests pin exactly which worker does how much work.
  std::int64_t max_trials = -1;
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
