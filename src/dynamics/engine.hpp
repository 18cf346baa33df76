// Concurrent round-based dynamics engines (paper §2.3/§3).
//
// Two exact implementations of one round "all n players run the protocol in
// parallel against the same observed state x":
//
//   * kPerPlayer — literal: every player draws its destination from the
//     categorical {p_PQ}_Q with one uniform, located by binary search over
//     the row's cumulative probabilities. O(|support|·k + n·log k) per
//     round. Ground truth.
//   * kAggregate — cohort-level: for each origin strategy P the vector of
//     mover counts to all destinations is one multinomial draw
//     Multinomial(x_P; {p_PQ}_Q). Identical joint law (players are i.i.d.
//     given x), but independent of n. This engine is what makes the
//     paper's "logarithmic in n" claim (Thm 7) cheap to test at n = 10^6.
//
// Both engines run on a BATCHED, cache-backed kernel: a per-round
// LatencyContext (game/latency_context.hpp) is maintained incrementally
// across rounds — State::apply reports the touched resources — and each
// origin's probability row is produced by one ProtocolKernel::fill_row
// call instead of k virtual per-pair calls. The round loop itself is
// MONOMORPHIZED over the kernel (dynamics/engine_kernel.hpp): the five
// engine phases (stop check, row fill, draw, apply, cache refresh) are
// templates over the ProtocolKernel concept (protocols/kernel.hpp), so
// the paper's protocols run with zero virtual dispatch on the hot path
// and every symmetric row fill is a gather plus one branch-free select
// pass, vectorized per ISA and picked at run time. This
// header is the TYPE-ERASED FRONTEND over those templates: every
// entrypoint below takes the virtual Protocol, resolves it to its
// concrete kernel once per call (dispatch_protocol_kernel), and is
// bitwise-identical to the templated API it wraps.
//
// run_dynamics owns a reusable RoundWorkspace, so steady-state rounds
// perform no heap allocation and no latency-function evaluation beyond
// the entries a migration actually dirtied. The aggregate engine
// additionally PRUNES origins whose whole probability row is provably
// zero (row_provably_zero — e.g. ℓ_P within ν of the cheapest used
// strategy under imitation), skipping both the row fill and the
// conditional-binomial draws without touching the RNG stream. Every
// round has one row path: all support rows are filled serially into the
// workspace, then drawn in support order.
//
// run_dynamics also REPLAYS QUIET ROUNDS. After a round that moved nobody,
// the next round sees the same state, cache, prune verdicts and rows; only
// its uniforms differ. That round keeps the rows it filled in the
// workspace. If it moves nobody either, the next round builds a draw plan
// from them: per aggregate origin the zero outcome of each conditional
// binomial as an interval of its uniforms
// (Rng::plan_zero_multinomial), flattened over the whole round to one
// integer bound per uniform, and per per-player origin its cumulative
// row. That round and every following quiet one draw the same uniforms in
// the same order and only compare them (Rng::scan_zero; the per-player
// stay bucket), handing the first uniform outside its interval to the
// binomial's own sampler (Rng::multinomial_planned) — no support scan, no
// row fill, the same bits. Invalidation: any round that is not quiet (its
// predecessor moved somebody, or the caller is not run_dynamics) drops the
// plan, so the public draw_round never replays. A cached stop predicate's
// false verdict is reused while nobody moves (CachedStopPredicate). Once a
// quiet stretch has lasted a while (engine_kernel.hpp kLaneMinUniforms),
// and nothing must see its rounds one by one (no observer, no per-round
// StopPredicate, no trace), run_dynamics scans its whole rounds eight
// segments at a time over jump-ahead copies of the stream
// (Rng::scan_lanes), books them in bulk and draws the round of the first
// miss in stream order from that miss on — the same bits and counters.
//
// Every kernel consumes the RNG stream identically to the per-pair
// reference oracle (Protocol::move_probability, driven round by round by
// the tests-only reference engine in tests/support/reference_round.hpp)
// and produces bitwise-identical rounds — enforced by
// tests/test_engine_oracle.cpp and tests/test_kernel_concepts.cpp — so
// checkpoints, event logs, and sweep manifests are interchangeable between
// all of them. (One deliberate pre-refactor delta, invisible at any
// realistic scale: the per-player engine now locates the destination
// bucket against cumulative sums instead of iterated subtraction, which
// can shift a boundary by an ulp.)
//
// Migrations are collected against the pre-round state and applied
// atomically — the definition of concurrency in this model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "game/congestion_game.hpp"
#include "game/expost_table.hpp"
#include "game/latency_context.hpp"
#include "game/state.hpp"
#include "obs/metrics.hpp"
#include "protocols/protocol.hpp"
#include "util/rng.hpp"

namespace cid {

enum class EngineMode { kPerPlayer, kAggregate };

struct RoundResult {
  std::vector<Migration> moves;  // aggregated, zero-count entries omitted
  std::int64_t movers = 0;
};

/// Reusable hot-path buffers: the latency cache plus every per-round
/// scratch vector (probability rows, cumulative rows, multinomial counts,
/// support list, apply tally, ex-post table). Default-constructed empty;
/// the kernel sizes it on first use and run_dynamics keeps one alive for
/// the whole run.
struct RoundWorkspace {
  LatencyContext ctx;
  /// The row fill's ex-post table, re-synced to ctx once per filled round.
  ExpostTable expost;
  std::vector<StrategyId> support;
  std::vector<double> cumulative;
  std::vector<std::int64_t> counts;
  ApplyScratch apply_scratch;
  /// The filled round's rows: one per support entry, each over its own
  /// block at its own offset in `rows`, plus the per-origin prune
  /// verdicts. They outlive the round, so a quiet round's plan can replay
  /// them.
  struct RowJob {
    RowBlock block;
    std::size_t offset = 0;
    RowBounds bounds;
  };
  std::vector<RowJob> jobs;
  std::vector<double> rows;
  std::vector<char> skip;
  /// run_dynamics' draw plan for quiet rounds (engine_kernel.hpp). A round
  /// whose predecessor moved nobody keeps the rows it filled above and
  /// arms the plan; if it moves nobody too, the next round replays those
  /// rows, and every following one until a round moves somebody. The
  /// plan is built lazily, on the first replayed round: most armed plans
  /// never replay (their round moves somebody). Other callers never arm
  /// it.
  struct DrawPlan {
    /// Aggregate mode: the zero outcome of every drawn origin's
    /// multinomial (Rng::plan_zero_multinomial), flattened to one bound per
    /// uniform in draw order — support order, then category, then draw.
    /// The replay scans `bounds` alone (Rng::scan_zero).
    std::vector<ZeroBound> bounds;
    /// Read only on a miss: bounds[e] is draw `draw` of steps[step], in
    /// the multinomial of support entry `origin`.
    struct Locator {
      std::uint32_t origin = 0;
      std::uint32_t step = 0;
      std::uint32_t draw = 0;
    };
    std::vector<Locator> at;
    std::vector<ZeroStep> steps;
    /// Per support entry: one past its last bound, where the scan resumes
    /// once the origin moved somebody.
    std::vector<std::size_t> ends;
    /// Origins plan_zero_multinomial refused, in support order: each
    /// redraws its row through Rng::multinomial when the scan reaches
    /// bounds[first].
    struct Full {
      std::size_t first = 0;
      std::uint32_t origin = 0;
    };
    std::vector<Full> full;
    std::int64_t pruned = 0;  // origins whose row was pruned (no draws)
    /// Per-player mode: each support entry's cumulative row, at its job's
    /// offset.
    std::vector<double> cumulative;
    bool armed = false;  // the filled rows describe the current (x, ctx)
    bool built = false;  // the fields above describe those rows
  };
  DrawPlan plan;
  bool ready = false;  // ctx reflects the caller's current (game, x)
};

/// The per-round bounds fed to row_provably_zero (support/improvement
/// pruning) for the rows spanning `block`: min cached ℓ_Q(x) over the
/// block's used and over all its strategies, plus the plus-dominance flag.
/// O(block) reads; ctx must be consistent with x.
RowBounds compute_row_bounds(const State& x, const LatencyContext& ctx,
                             RowBlock block);

struct RunOptions {
  std::int64_t max_rounds = 1'000'000;
  std::int64_t check_interval = 1;
  EngineMode mode = EngineMode::kAggregate;
  /// First round index to execute (max_rounds stays the TOTAL cap, not a
  /// per-invocation budget). Non-zero when resuming from a checkpoint: the
  /// caller restores (state, rng, round) from a snapshot and continues
  /// with absolute round numbering, so observers, stop checks, and event
  /// logs line up bit-exactly with the uninterrupted run.
  std::int64_t start_round = 0;
  /// Observability hook: when non-null, the run accumulates phase timers
  /// (ctx refresh, row fill, draw, apply, stop check) and work counters
  /// into it. Consumes zero RNG and never changes results — metrics-on
  /// and metrics-off runs are bitwise identical (tests/test_metrics.cpp).
  /// The pointed-to struct must outlive the run; it is accumulated into,
  /// not reset.
  obs::EngineMetrics* metrics = nullptr;
};

struct RunResult {
  std::int64_t rounds = 0;        // completed rounds (absolute index)
  bool converged = false;         // stop predicate fired
  std::int64_t total_movers = 0;  // migrations summed over THIS invocation
  /// Latency-function evaluations the batched kernel performed this
  /// invocation (cache resets + incremental refreshes; stop predicates and
  /// observers are not counted).
  std::int64_t latency_evals = 0;
};

/// Draws one concurrent round (without applying it) on the batched kernel.
/// Builds a fresh latency cache per call — loops that step many rounds
/// should go through run_dynamics (or manage a RoundWorkspace) to get the
/// incremental cache.
RoundResult draw_round(const CongestionGame& game, const State& x,
                       const Protocol& protocol, Rng& rng, EngineMode mode);

/// Workspace-backed draw: appends nothing, reuses every buffer, and keeps
/// ws.ctx for incremental refresh. If ws.ready is false the cache is rebuilt
/// from (game, x); callers that mutate x between draws must either apply
/// the moves through x.apply(game, moves, ws.apply_scratch) and call
/// ws.ctx.refresh(ws.apply_scratch.touched), or clear ws.ready.
///
/// The round fills every support origin's probability row serially, then
/// draws them in support order.
///
/// `metrics`, when non-null, accumulates row-fill/draw phase times and
/// rows filled/pruned counts. Purely observational: no RNG is consumed
/// and the round is bitwise identical with or without it (it only reads
/// the clock around the same two phases).
///
/// `trace` emits row-fill/draw spans into the obs/trace_span.hpp
/// collector for this one round (the run loop samples which rounds to
/// trace). Same bitwise contract as `metrics`.
void draw_round(const CongestionGame& game, const State& x,
                const Protocol& protocol, Rng& rng, EngineMode mode,
                RoundWorkspace& ws, RoundResult& out,
                obs::EngineMetrics* metrics = nullptr, bool trace = false);

/// Draws and applies one round; returns what moved.
RoundResult step_round(const CongestionGame& game, State& x,
                       const Protocol& protocol, Rng& rng, EngineMode mode);

/// Observer invoked once per round *before* the moves are applied (so
/// `x` is the pre-round state; the post-round state is the next call's
/// `x`), and once more after the final round with an empty move list and
/// `final = true`.
using RoundObserver = std::function<void(
    const CongestionGame&, const State& x, std::span<const Migration> moves,
    std::int64_t round, bool final)>;

/// Stop predicate, evaluated on the current state every `check_interval`
/// rounds (round index is the number of completed rounds).
using StopPredicate = std::function<bool(const CongestionGame&,
                                         const State&, std::int64_t round)>;

/// Cache-backed stop predicate: receives the run's own LatencyContext,
/// already consistent with the current state, so equilibrium checks
/// (dynamics/equilibrium.hpp cached overloads) reuse the round kernel's
/// ℓ_P/ℓ_e tables instead of recomputing every latency per check. Its
/// verdict must be a function of the context alone (hence no round
/// argument): run_dynamics reuses a false verdict, without calling the
/// predicate, for every later check until a round moves somebody.
using CachedStopPredicate = std::function<bool(const LatencyContext&)>;

/// One complete run_dynamics call, as data: options plus the (optional)
/// stop predicate — at most one of `stop` / `cached_stop` may be non-empty;
/// both empty means "run to max_rounds" — plus the (optional) observer.
/// An aggregate, so a call site can name just the fields it sets:
/// `run_dynamics(game, x, protocol, rng, {.options = opts, .stop = s})`.
/// (The default member initializers keep -Wmissing-field-initializers
/// quiet for the omitted ones.)
struct EngineInvocation {
  RunOptions options = {};
  StopPredicate stop = {};
  CachedStopPredicate cached_stop = {};
  RoundObserver observer = {};
};

/// THE run entrypoint: runs until the invocation's stop predicate fires or
/// options.max_rounds is exhausted. Resolves `protocol` to its concrete
/// kernel once (dispatch_protocol_kernel) and drives the monomorphized
/// run loop (dynamics/engine_kernel.hpp run_dynamics<K>), to which it is
/// bitwise-identical by construction.
RunResult run_dynamics(const CongestionGame& game, State& x,
                       const Protocol& protocol, Rng& rng,
                       const EngineInvocation& call);

}  // namespace cid
