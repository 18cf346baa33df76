// Low-overhead metrics core: phase timers, engine counters, and a named
// counter/histogram registry — the observability layer the engines, the
// sweep runner, and the persistence writers report into.
//
// Design constraints (ISSUE 6, enforced by tests/test_metrics.cpp):
//
//   * ZERO RNG, zero perturbation. Instrumentation only reads the steady
//     clock and bumps plain integers; a trial's outcome, RNG stream, and
//     every persisted byte are bitwise identical with metrics on and off.
//     Hot-path hooks are nullable-pointer based (EngineMetrics* on
//     RunOptions), so "off" is the default nullptr and costs one
//     predictable branch per phase.
//   * Thread model. EngineMetrics is single-writer (one per trial, owned
//     by that trial's thread; the sweep merges them after the pool
//     drains). MetricsRegistry is shared: registration takes a mutex,
//     add/observe are lock-free relaxed atomics — fine for monotonic
//     counters, and snapshot() tearing across counters is acceptable for
//     progress reporting.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cid::obs {

/// JSONL snapshot schema version (the "metrics_version" field every
/// record carries). Bump when a field changes meaning or disappears;
/// additive fields do not require a bump.
inline constexpr int kMetricsVersion = 1;

/// Monotonic nanoseconds (steady_clock) — the one clock every timer uses.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Scoped phase timer: accumulates the scope's elapsed nanoseconds into
/// `*sink` on destruction. A null sink is a no-op (the metrics-off path).
/// Deliberately not reentrant-aware: phases do not nest in the engines.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::int64_t* sink) noexcept
      : sink_(sink), start_(sink != nullptr ? now_ns() : 0) {}
  ~PhaseTimer() {
    if (sink_ != nullptr) *sink_ += now_ns() - start_;
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  std::int64_t* sink_;
  std::int64_t start_;
};

/// Hot-path engine counters, one struct per trial/run. Plain non-atomic
/// fields: a single thread owns it for the duration of a run (the row-fill
/// worker threads never touch it — the serial phases do all the counting).
/// All five ISSUE-6 phases plus the work counters the bench gate reads.
struct EngineMetrics {
  std::int64_t rounds = 0;       // rounds executed while metered
  std::int64_t stop_checks = 0;  // stop-predicate evaluations
  /// Support origins whose probability row was filled / pruned by
  /// row_provably_zero (pruned rows skip fill AND draw, consuming no RNG).
  std::int64_t rows_filled = 0;
  std::int64_t rows_pruned = 0;
  /// Support origins drawn from run_dynamics' quiet-round plan over a row
  /// filled in an earlier round (pruned ones still count as rows_pruned).
  std::int64_t rows_replayed = 0;
  // Phase wall time, steady-clock nanoseconds. The initial full cache
  // build of a run lands in the first round's row-fill phase;
  // ctx_refresh_ns meters the incremental refreshes.
  std::int64_t ctx_refresh_ns = 0;
  std::int64_t row_fill_ns = 0;
  std::int64_t draw_ns = 0;
  std::int64_t apply_ns = 0;
  std::int64_t stop_check_ns = 0;

  void merge(const EngineMetrics& other) noexcept {
    rounds += other.rounds;
    stop_checks += other.stop_checks;
    rows_filled += other.rows_filled;
    rows_pruned += other.rows_pruned;
    rows_replayed += other.rows_replayed;
    ctx_refresh_ns += other.ctx_refresh_ns;
    row_fill_ns += other.row_fill_ns;
    draw_ns += other.draw_ns;
    apply_ns += other.apply_ns;
    stop_check_ns += other.stop_check_ns;
  }

  friend bool operator==(const EngineMetrics&, const EngineMetrics&) =
      default;
};

/// The stable (name, value) view of EngineMetrics — one naming authority
/// shared by the table/JSONL/Prometheus emitters and registry merges.
/// Names are "engine.<field>" in declaration order.
std::vector<std::pair<std::string, std::int64_t>> engine_counters(
    const EngineMetrics& m);

// ---- Named registry ---------------------------------------------------------

struct CounterValue {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramValue {
  std::string name;
  /// Upper bounds of the first bounds.size() buckets (strictly
  /// increasing); buckets has bounds.size() + 1 entries, the last being
  /// the overflow bucket (> bounds.back()).
  std::vector<double> bounds;
  std::vector<std::int64_t> buckets;
  std::int64_t count = 0;  // total observations
  double sum = 0.0;        // Σ observed values
};

/// A point-in-time copy of the registry, sorted by name within each kind.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<HistogramValue> histograms;
};

/// Named monotonic counters and bounded histograms. Registration
/// (counter/histogram) is idempotent by name and mutex-guarded;
/// add/observe/value on a held id are lock-free (relaxed atomics —
/// counters are monotonic, ordering carries no meaning). Ids stay valid
/// for the registry's lifetime (deque storage: growth never moves
/// existing slots).
class MetricsRegistry {
 public:
  using CounterId = std::size_t;
  using HistogramId = std::size_t;

  /// Returns the id of the named counter, registering it at 0 on first
  /// use. Same name → same id, whatever the call order.
  CounterId counter(std::string_view name);

  /// Registers (or finds) a histogram with the given strictly increasing,
  /// finite bucket upper bounds. Re-registering an existing name returns
  /// the original id and IGNORES the new bounds (first registration
  /// wins); throws std::invalid_argument on empty or non-increasing
  /// bounds.
  HistogramId histogram(std::string_view name, std::vector<double> bounds);

  void add(CounterId id, std::int64_t delta) noexcept;
  std::int64_t value(CounterId id) const noexcept;

  /// Records one observation: the first bucket with value <= bound, the
  /// overflow bucket past the last bound. NaN counts into overflow.
  void observe(HistogramId id, double value) noexcept;

  /// Adds `delta` to the counter named `name` (registering it if new) —
  /// the cold-path convenience for merge/aggregate call sites.
  void add_named(std::string_view name, std::int64_t delta);

  /// Folds an EngineMetrics into named counters via engine_counters(),
  /// each name prefixed with `prefix` (e.g. "sweep.").
  void merge_engine(std::string_view prefix, const EngineMetrics& m);

  MetricsSnapshot snapshot() const;

  /// Zeroes every value, keeping registrations and ids (test isolation
  /// for the process-global registry).
  void reset_values() noexcept;

 private:
  struct Counter {
    std::string name;
    std::atomic<std::int64_t> value{0};
  };
  struct Histogram {
    std::string name;
    std::vector<double> bounds;
    std::deque<std::atomic<std::int64_t>> buckets;  // bounds.size() + 1
    std::atomic<std::int64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  mutable std::mutex mutex_;  // registration and snapshot only
  std::deque<Counter> counters_;
  std::deque<Histogram> histograms_;
};

/// The process-global registry: cross-cutting counters with no natural
/// owner (persistence I/O) land here; CLIs snapshot it for their
/// summaries. Never reset outside tests.
MetricsRegistry& global_metrics();

// ---- Persistence I/O counters ----------------------------------------------

/// Totals of the global "persist.*" counters. One code path feeds them —
/// every persist/sweep writer reports through
/// record_persist_write/record_persist_flush — so cid_sweep summaries and
/// cid_replay report I/O from the same numbers.
struct PersistIoTotals {
  std::int64_t bytes_written = 0;  // payload bytes handed to fwrite
  std::int64_t writes = 0;         // write calls (records, blocks, files)
  std::int64_t fsyncs = 0;         // ::fsync calls issued (files + dirs)
  std::int64_t fflushes = 0;       // explicit durability fflushes
  std::int64_t write_failures = 0;  // failed write/flush/rotate operations
  std::int64_t write_retries = 0;   // recovery retries after a failure
};

/// Registers `bytes` written and `fsyncs` fsync calls on the global
/// registry.
void record_persist_write(std::uint64_t bytes, int fsyncs) noexcept;
void record_persist_flush() noexcept;
/// One failed persist operation (write, flush, or rotation) / one recovery
/// retry attempted after a failure — real or injected alike.
void record_persist_write_failure() noexcept;
void record_persist_write_retry() noexcept;
PersistIoTotals persist_io_totals() noexcept;

}  // namespace cid::obs
