// Parallel scenario-sweep runner.
//
// A SweepGrid is the cross product scenario × protocol × n, each cell run
// for `trials` independent repetitions. The runner expands the grid into
// one job per trial, derives every trial's Rng stream serially up front
// (cell-keyed Rng::split, so streams are a pure function of the master
// seed), builds each scenario instance once per n, and fans the jobs out
// over the pool. Per-trial results are therefore bitwise identical for
// every thread count; wall-clock timing, the one legitimately
// scheduling-dependent output, is reported only per cell.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/progress.hpp"
#include "sweep/scenario.hpp"
#include "util/stats.hpp"

namespace cid::sweep {

struct SweepGrid {
  ScenarioSpec scenario;
  std::vector<ProtocolSpec> protocols;
  std::vector<std::int64_t> ns;
  int trials = 8;
  std::uint64_t master_seed = 1;
  DynamicsConfig dynamics;
};

/// One grid cell: a (protocol, n) pair of one scenario.
struct CellKey {
  std::int32_t cell = 0;  // dense index, row-major over ns × protocols
  std::string scenario;
  std::string protocol;
  std::int64_t n = 0;
};

struct TrialRow {
  CellKey key;
  int trial = 0;
  TrialOutcome outcome;
};

/// One trial that exhausted its retry budget (SweepOptions::
/// trial_max_attempts). Failed trials never kill the sweep: they are
/// recorded here, excluded from cell aggregation, and left with default
/// outcomes in SweepResult::trials.
struct TrialFailure {
  std::size_t trial_index = 0;  // index into SweepResult::trials
  CellKey key;
  int trial = 0;
  int attempts = 0;
  std::string error;  // the final attempt's message
};

struct CellRow {
  CellKey key;
  int trials = 0;
  Summary rounds;                  // across the cell's trials
  double rounds_sem = 0.0;
  double fraction_converged = 0.0;
  double mean_potential = 0.0;
  double mean_social_cost = 0.0;
  double mean_movers = 0.0;
  double wall_seconds = 0.0;       // summed trial wall time (not deterministic)
};

struct SweepResult {
  std::vector<TrialRow> trials;  // cell-major, trial-minor
  std::vector<CellRow> cells;
  /// False when a trial budget (SweepOptions::max_new_trials) exhausted
  /// before every trial was either loaded from the manifest or run; the
  /// missing trials hold default outcomes and cells are not aggregated.
  bool complete = true;
  std::size_t resumed_trials = 0;  // loaded from the manifest, not re-run
  std::size_t ran_trials = 0;      // executed this invocation

  /// Trials that permanently failed (retries exhausted), sorted by
  /// trial_index. Non-empty failures excludes those trials from cell
  /// aggregation; cid_sweep exits nonzero when any remain.
  std::vector<TrialFailure> failures;
  std::int64_t trial_retries = 0;   // failed attempts that were retried
  std::int64_t watchdog_flags = 0;  // trials flagged as stuck (observation)
  /// True when manifest appends failed permanently mid-sweep: the run
  /// finished (results in memory are complete) but the manifest on disk is
  /// missing trials — a later resume would re-run them.
  bool manifest_degraded = false;
  std::string manifest_error;
  /// True when shard_count > 1: only this shard's trials ran, so cells
  /// are not aggregated and non-shard trials hold default outcomes.
  bool sharded = false;

  // Throughput observability over the trials EXECUTED this invocation
  // (manifest-resumed trials are excluded: their counters were not
  // re-measured). Deterministic per grid; reported in run summaries only —
  // deliberately kept out of the CSV/JSONL outputs and manifests.
  std::int64_t ran_rounds = 0;        // Σ rounds over executed trials
  std::int64_t latency_evals = 0;     // Σ kernel latency evaluations

  /// Engine phase timers / work counters merged over executed trials.
  /// Work counters (rounds, rows filled/pruned, stop checks) are
  /// deterministic per grid; the *_ns fields are wall time. Populated only
  /// under DynamicsConfig::collect_metrics (zeros otherwise).
  obs::EngineMetrics engine;
  /// Pool-level wall accounting (steady-clock ns): queue_wait_ns sums,
  /// over executed trials, the time between sweep launch and that trial's
  /// start on a worker — scheduling-dependent, reported in summaries
  /// only. trial_run_ns sums the in-trial time. instance_build_ns is the
  /// serial per-n instance build before any trial starts (β is not part
  /// of it: exploration and combined trials compute it on first use,
  /// inside their first trial).
  std::int64_t queue_wait_ns = 0;
  std::int64_t trial_run_ns = 0;
  std::int64_t instance_build_ns = 0;
  /// Per-trial stats, index-aligned with `trials` (cell-major,
  /// trial-minor). Zeros for manifest-resumed or budget-skipped trials.
  std::vector<TrialStats> stats;
};

struct SweepOptions {
  int threads = 1;  // 0 = one per hardware thread

  /// When non-empty, the sweep is resumable: completed trials are appended
  /// to this manifest as they finish, and if the file already exists its
  /// trials are loaded (after a grid-fingerprint check) and skipped. The
  /// merged result is byte-identical to an uninterrupted run's — outcomes
  /// are a pure function of the grid, and the manifest stores them
  /// bit-exactly (see src/persist/manifest.hpp).
  std::string manifest_path;

  /// fflush the manifest every K appended records (1 = every trial
  /// durable; larger trades durability for syscall volume).
  std::int64_t manifest_flush_every = 1;

  /// When > 0, rotate the manifest to "<path>.<seq>" segments once the
  /// active file exceeds this many bytes (multi-day sweeps keep bounded
  /// file sizes; load/resume reads the whole chain back). 0 = off.
  std::uint64_t manifest_rotate_bytes = 0;

  /// When >= 0, run at most this many new trials this invocation, in
  /// deterministic grid order, then return with complete = false. The
  /// controlled-interruption hook for incremental sweeps and the resume
  /// tests; -1 = unlimited.
  std::int64_t max_new_trials = -1;

  /// Live progress heartbeat: when `progress` is set and
  /// progress_every_seconds > 0, a monitor thread invokes it with a fresh
  /// ProgressSnapshot (keys = grid cells, totals = trials pending this
  /// invocation) every interval, plus once after the pool drains. Pure
  /// observation — persisted outputs are byte-identical with and without
  /// it. The callback runs on the monitor thread (and once on the caller
  /// thread at the end); it must not touch the grid or result.
  double progress_every_seconds = 0.0;
  std::function<void(const obs::ProgressSnapshot&)> progress;

  /// Streaming per-trial hook, invoked under an internal mutex as each
  /// executed trial finishes — in COMPLETION order, which is scheduling-
  /// dependent; consumers needing determinism should read
  /// SweepResult::stats (trial order) after the sweep instead. `done` /
  /// `total` count this invocation's executed trials; permanently failed
  /// trials never fire the hook (so `done` may end below `total`).
  std::function<void(const TrialRow&, const TrialStats&, std::size_t done,
                     std::size_t total)>
      on_trial_done;

  /// Trial-level failure isolation: a throwing trial is retried with a
  /// fresh copy of its Rng stream (outcomes are a pure function of the
  /// stream, so a successful retry reproduces the identical result), up
  /// to this many total attempts with capped exponential backoff between
  /// them. A trial that exhausts its budget lands in
  /// SweepResult::failures; it never kills the sweep.
  int trial_max_attempts = 3;
  double retry_backoff_ms = 25.0;       // first retry; doubles per attempt
  double retry_backoff_max_ms = 2000.0;

  /// When > 0, a wall-clock watchdog thread flags (stderr +
  /// SweepResult::watchdog_flags) any trial still running after this many
  /// seconds, once per trial. Pure observation: nothing is cancelled —
  /// C++ threads cannot be safely killed — but a hung sweep now says
  /// which trial is stuck instead of sitting silent.
  double watchdog_seconds = 0.0;

  /// Distributed sharding (sweep/shard.hpp): with shard_count > 1, only
  /// trials whose trial_shard(fingerprint, cell, trial, shard_count) ==
  /// shard_index run; the rest are skipped entirely (not failed). Each
  /// shard appends to its own manifest; tools/cid_merge.cpp merges them
  /// into a file byte-identical to an unsharded run's canonical manifest.
  int shard_index = 0;
  int shard_count = 1;
};

/// Runs the whole grid (or, with a manifest, the part of it not already
/// completed). Throws std::runtime_error on an unknown scenario, empty
/// protocol/n axes, trials < 1, or a manifest from a different grid.
SweepResult run_sweep(const SweepGrid& grid, const SweepOptions& options = {});

/// Derives the Rng stream of one (cell, trial) exactly as run_sweep does:
/// a fresh grid master, one keyed split for the cell master, then one
/// keyed split of a copy of the cell master for the trial — O(1), and
/// trial 0's stream is the cell master's first split. This is the single
/// authority both run_sweep and the cid_serve worker path use, so a leased
/// trial's stream can never drift from what the local runner would have
/// drawn.
Rng derive_trial_rng(std::uint64_t master_seed, std::uint32_t cell,
                     std::uint32_t trial);

/// What run_trial_attempts hands back: the outcome when an attempt
/// succeeded, else nullopt and the last attempt's error.
struct TrialAttempts {
  std::optional<TrialOutcome> outcome;
  std::string error;
};

/// The one trial retry loop run_sweep and the cid_serve worker share: up
/// to `max_attempts` (at least 1) attempts, each on a fresh copy of `rng`
/// with `*stats` zeroed (outcomes are a pure function of the stream, so a
/// successful retry yields exactly what a fault-free first attempt would
/// have), each behind the `sweep.trial` fault site. util::fault_crash
/// always propagates: a crash is a kill, never an error to isolate.
/// `on_retry(attempt, error)` runs after each failed attempt that will be
/// retried, before the capped exponential backoff (`backoff_ms` doubling
/// per attempt up to `backoff_max_ms`; 0 = no sleep).
TrialAttempts run_trial_attempts(
    const ScenarioInstance& instance, const ProtocolSpec& protocol,
    const DynamicsConfig& dynamics, const Rng& rng, TrialStats* stats,
    int max_attempts, double backoff_ms, double backoff_max_ms,
    const std::function<void(int attempt, const std::string& error)>&
        on_retry);

/// Parses a sweep axis:
///   "n=1000:100000:log"     decades from 1000 to 100000 (ratio 10)
///   "n=1000:100000:log:7"   7 geometrically spaced points, endpoints exact
///   "n=100:500:lin:5"       5 evenly spaced points
///   "n=100,1000,5000"       explicit list
/// The "n=" prefix is optional; values are rounded to integers and deduped.
std::vector<std::int64_t> parse_grid_axis(const std::string& spec);

/// Parses a comma-separated protocol list, e.g. "imitation,combined:0.3".
std::vector<ProtocolSpec> parse_protocol_list(const std::string& csv);

/// A malformed or out-of-range command-line flag: the tools print it
/// above their usage text and exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Reads the value of a whole-number flag in [min, max] (strict: the whole
/// value must be a base-10 integer, so "1e5", "5x" and "" are refused).
/// Throws UsageError naming `flag`: "must be a whole number", "must be >=
/// min" or "must be <= max".
std::int64_t parse_int_flag(
    const std::string& flag, std::string_view value, std::int64_t min,
    std::int64_t max = std::numeric_limits<std::int64_t>::max());

/// Reads the value of a real-valued flag in [min, max] (strict like
/// parse_int_flag: the whole value must be one finite decimal number, so
/// "0.2.5", "0.2x", "nan" and "" are refused). Throws UsageError naming
/// `flag`: "must be a number", "must be >= min" or "must be <= max".
double parse_double_flag(
    const std::string& flag, std::string_view value,
    double min = std::numeric_limits<double>::lowest(),
    double max = std::numeric_limits<double>::max());

/// The grid flags cid_sweep and cid_serve share, so a coordinator and its
/// workers cannot disagree on a grid fingerprint: --scenario --grid
/// --protocols --trials --seed --rounds --check-interval --stop --engine
/// --param --lambda. Defaults: n 1000:100000:log, imitation, lambda 0.25.
struct GridFlags {
  SweepGrid grid;
  double lambda = 0.25;
  GridFlags();
};

/// When argv[i] is a grid flag, consumes it and its value (advancing i)
/// and returns true; otherwise returns false and leaves i alone. Throws
/// UsageError on a missing or malformed value, std::runtime_error on a
/// bad --grid / --protocols value.
bool parse_grid_flag(int argc, char** argv, int& i, GridFlags& flags);

/// Checks the parsed grid flags and returns the grid with lambda applied
/// to every protocol. Throws UsageError on a missing --scenario, an
/// out-of-range --trials, --check-interval, --rounds or --lambda, or a
/// protocol the scenario does not run (Scenario::imitation_only).
SweepGrid finish_grid_flags(const GridFlags& flags);

}  // namespace cid::sweep
