// Parallel scenario-sweep runner.
//
// A SweepGrid is the cross product scenario × protocol × n, each cell run
// for `trials` independent repetitions. The runner builds each scenario
// instance once per n and fans the grid's trials out over the pool. Each
// trial runs through run_trial_step, the one trial step the cid_serve
// worker uses too: its Rng stream comes from derive_trial_rng(seed, cell,
// trial), an O(1) pure function of the master seed derived inside the
// step, so per-trial results are bitwise identical for every thread count
// and on every fleet worker. Wall-clock timing, the one legitimately
// scheduling-dependent output, is reported only per cell.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
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

/// One trial that exhausted its retry budget (SweepOptions::retry).
/// Failed trials never kill the sweep: they are recorded here, excluded
/// from cell aggregation, and left with default outcomes in
/// SweepResult::trials.
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

/// How a throwing trial is retried, by run_sweep and the cid_serve worker
/// alike: up to max_attempts attempts (at least 1), each on a fresh copy
/// of the trial's stream (outcomes are a pure function of it, so a
/// successful retry lands exactly what a fault-free first attempt would
/// have), sleeping backoff_ms before the first retry and twice as long
/// before each next one, at most kRetryBackoffMaxMs (0 = no sleep).
struct RetryPolicy {
  int max_attempts = 3;
  double backoff_ms = 25.0;
};
inline constexpr double kRetryBackoffMaxMs = 2000.0;

/// Sums over the trials one caller executed — a whole sweep for
/// run_sweep, one lease for the cid_serve worker — merged by
/// run_trial_step. Deterministic per grid, except the engine's *_ns wall
/// times; a permanently failed trial adds only its retries.
struct TrialTotals {
  std::int64_t ran_rounds = 0;     // Σ rounds over executed trials
  std::int64_t latency_evals = 0;  // Σ kernel latency evaluations
  std::int64_t trial_retries = 0;  // failed attempts that were retried
  /// Engine phase timers / work counters; zeros unless
  /// DynamicsConfig::collect_metrics.
  obs::EngineMetrics engine;
};

/// Adds `totals` to `registry` as sweep.ran_rounds, sweep.latency_evals,
/// sweep.trial_retries and, when `with_engine` (the grid meters:
/// DynamicsConfig::collect_metrics), engine.* — the one naming of these
/// sums in a local run's metrics and a fleet worker's push.
void add_trial_totals(obs::MetricsRegistry& registry,
                      const TrialTotals& totals, bool with_engine);

/// The sums (TrialTotals) cover the trials EXECUTED this invocation:
/// manifest-resumed trials are excluded, their counters were not
/// re-measured. They are reported in run summaries only — deliberately
/// kept out of the CSV/JSONL outputs and manifests.
struct SweepResult : TrialTotals {
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
  std::int64_t watchdog_flags = 0;  // trials flagged as stuck (observation)
  /// True when manifest appends failed permanently mid-sweep: the run
  /// finished (results in memory are complete) but the manifest on disk is
  /// missing trials — a later resume would re-run them.
  bool manifest_degraded = false;
  std::string manifest_error;
  /// True when shard_count > 1: only this shard's trials ran, so cells
  /// are not aggregated and non-shard trials hold default outcomes.
  bool sharded = false;

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

  /// Trial-level failure isolation: a trial that exhausts its retry
  /// budget lands in SweepResult::failures; it never kills the sweep.
  RetryPolicy retry;

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

/// Derives the Rng stream of one (cell, trial): a fresh grid master, one
/// keyed split for the cell master, then one keyed split of a copy of the
/// cell master for the trial — O(1), and trial 0's stream is the cell
/// master's first split. run_trial_step calls it for every trial, so a
/// leased trial's stream can never drift from what the local runner
/// would have drawn.
Rng derive_trial_rng(std::uint64_t master_seed, std::uint32_t cell,
                     std::uint32_t trial);

/// One trial as run_trial_step hands it to its sink.
struct TrialDone {
  std::uint32_t cell = 0;
  std::uint32_t trial = 0;
  /// nullopt when every attempt failed; then `error` is the last
  /// attempt's message and `stats` is zeroed.
  std::optional<TrialOutcome> outcome;
  std::string error;
  int attempts = 0;  // attempts made
  TrialStats stats;
  std::int64_t start_ns = 0;  // obs::now_ns() before the first attempt
  std::int64_t end_ns = 0;    // and after the last
};

namespace detail {
/// run_trial_step's untemplated half: the attempts, the retry and failure
/// lines and the sweep.trial span. Fills everything of `done` but its key.
void run_attempts(const SweepGrid& grid, const ScenarioInstance& instance,
                  const RetryPolicy& retry, const Rng& rng, TrialDone& done);
}  // namespace detail

/// The one trial step of run_sweep's pool and the cid_serve worker: runs
/// trial `trial` of cell `cell` on `instance` (the cell's n) with its
/// derive_trial_rng stream, then merges its sums into `totals` and calls
/// `sink(TrialDone&)` once. The step owns the attempts (RetryPolicy, each
/// behind the sweep.trial fault site; util::fault_crash always
/// propagates — a crash is a kill, never an error to isolate), one stderr
/// line per retry and one per permanent failure, and the sweep.trial trace
/// span. When `lock` is set, `totals` and the sink are touched under it,
/// so a concurrent pool shares one accumulator and its sink needs no lock
/// of its own. A template over the sink, not a virtual interface: no
/// per-trial indirection and no allocation.
template <class Sink>
void run_trial_step(const SweepGrid& grid, const ScenarioInstance& instance,
                    std::uint32_t cell, std::uint32_t trial,
                    const RetryPolicy& retry, TrialTotals& totals,
                    std::mutex* lock, Sink&& sink) {
  TrialDone done;
  done.cell = cell;
  done.trial = trial;
  detail::run_attempts(grid, instance, retry,
                       derive_trial_rng(grid.master_seed, cell, trial), done);
  std::unique_lock<std::mutex> held;
  if (lock != nullptr) held = std::unique_lock<std::mutex>(*lock);
  totals.ran_rounds += done.stats.ran_rounds;
  totals.latency_evals += done.stats.latency_evals;
  totals.trial_retries += done.attempts - 1;
  totals.engine.merge(done.stats.engine);
  sink(done);
}

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
