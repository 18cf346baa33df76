// Monomorphized round engines: the five engine phases as templates over
// the ProtocolKernel concept (protocols/kernel.hpp), and the one round
// loop every concurrent family runs.
//
// This header is the engine's actual implementation; dynamics/engine.cpp
// is a thin type-erased frontend that resolves a virtual Protocol to its
// concrete kernel (dispatch_protocol_kernel) and calls down here. The
// split exists so the hot path — per-origin row fills, prune checks,
// multinomial/uniform draws — compiles once per kernel type with every
// call inlined, instead of paying a virtual dispatch per row, while the
// public API in engine.hpp stays exactly as stable as the Protocol class.
//
// Layering:
//
//   engine.hpp frontend (Protocol&) --dispatch_protocol_kernel-->
//     draw_round<K> / run_dynamics<K>   (this header, one row path)
//       K = ImitationKernel | ExplorationKernel | CombinedKernel
//         | ClassImitationKernel
//
// A round that draws from fresh rows has two phases (draw_filled):
// fill_rows fills every support origin's row serially into ws.rows, then
// the draws run in support order. Metering and tracing only read the
// clock around those two phases.
//
// run_dynamics<K> passes each round whether its predecessor moved nobody;
// such a quiet round keeps its rows and the next one replays them from the
// workspace's draw plan (engine_detail::draw_round: build_plan,
// draw_scanned), while the public draw_round<K> always takes the full path
// (see engine.hpp). Long quiet stretches skip the per-round loop: their
// whole rounds go through Rng::scan_lanes (scan_quiet_rounds) and the
// round of the first miss resumes draw_scanned at that miss.
//
// One engine serves every concurrent family: the symmetric protocols run
// on their game, and class-local imitation (ClassImitationKernel) runs on
// an asymmetric game's flat game with each row cut to the origin's class
// block (ProtocolKernel::row_block). Zero-probability categories draw
// nothing from the RNG, so a block row draws exactly what the class-wise
// reference round (draw_asymmetric_round_reference) draws.
//
// Templated callers (tests, benches) can use this API directly with any
// ProtocolKernel model; everything here obeys the same bitwise contract as
// the frontend: identical rows, identical RNG consumption, interchangeable
// checkpoints. The audit paths live in the tests-only cid_test_support
// library: an adapter that fills rows pair by pair through the virtual
// oracle and never prunes, and the per-pair reference rounds
// (tests/support/reference_round.hpp), which
// tests/test_kernel_concepts.cpp and tests/test_engine_oracle.cpp run
// against every kernel.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dynamics/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "protocols/kernel.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid {

namespace engine_detail {

/// Resets the workspace's latency cache against (game, x) when it is cold.
inline void warm(const CongestionGame& game, const State& x,
                 RoundWorkspace& ws) {
  if (!ws.ready) {
    ws.ctx.reset(game, x);
    ws.ready = true;
  }
}

/// Debug-only row validation (the pre-batching engine ran these as hard
/// checks per pair; they are pure programming-error guards, so Release
/// compiles them out — see CID_DCHECK in util/assert.hpp). A protocol
/// violating them would silently corrupt the multinomial draw.
inline void dcheck_row([[maybe_unused]] std::span<const double> probs,
                       [[maybe_unused]] StrategyId from) {
#ifndef NDEBUG
  double total = 0.0;
  for (std::size_t j = 0; j < probs.size(); ++j) {
    CID_DCHECK(probs[j] >= 0.0 && probs[j] <= 1.0,
               "protocol returned invalid probability");
    CID_DCHECK(static_cast<StrategyId>(j) != from || probs[j] == 0.0,
               "protocol assigned probability to staying put");
    total += probs[j];
  }
  CID_DCHECK(total <= 1.0 + 1e-9,
             "protocol move probabilities exceed 1 for one player");
#endif
}

/// Debug-only audit of a pruned origin: the row the kernel claims is
/// provably zero must actually be all zeros. Release builds skip the fill
/// entirely — that is the point of pruning.
template <ProtocolKernel K>
void dcheck_pruned_row([[maybe_unused]] const CongestionGame& game,
                       [[maybe_unused]] ExpostTable& table,
                       [[maybe_unused]] const K& kernel,
                       [[maybe_unused]] StrategyId from,
                       [[maybe_unused]] std::span<double> scratch) {
#ifndef NDEBUG
  const OriginView origin(table, from);
  kernel.fill_row(game, origin, scratch);
  for (double p : scratch) {
    CID_DCHECK(p == 0.0, "row_provably_zero pruned a nonzero row");
  }
#endif
}

/// The cumulative row the per-player engine's single uniform is compared
/// against; the tests-only reference round scans the same row, so both
/// see identical floating-point boundaries. `cumulative` has probs.size()
/// entries.
inline void build_cumulative(std::span<const double> probs,
                             std::span<double> cumulative) {
  double acc = 0.0;
  for (std::size_t j = 0; j < probs.size(); ++j) {
    acc += probs[j];
    cumulative[j] = acc;
  }
}

/// Appends origin `from`'s per-destination counts (over `block`) to the
/// round's moves, zero counts omitted.
inline void emit_counts(StrategyId from, RowBlock block,
                        std::span<const std::int64_t> counts,
                        RoundResult& out) {
  for (std::size_t j = 0; j < counts.size(); ++j) {
    if (counts[j] == 0) continue;
    out.moves.push_back(
        Migration{from, block.begin + static_cast<StrategyId>(j), counts[j]});
    out.movers += counts[j];
  }
}

/// The per-player draw of `from`'s cohort: one uniform per player, who
/// moves to the first bucket with u < cumulative[j]. Zero-probability
/// buckets have zero-width intervals and are never selected; u at or above
/// the last boundary (the stay bucket) keeps the player on `from`, so that
/// one compare decides most players without the O(log k) search.
inline void draw_players(const State& x, StrategyId from, RowBlock block,
                         std::span<const double> cumulative, Rng& rng,
                         std::span<std::int64_t> tally, RoundResult& out) {
  const double stay = cumulative.empty() ? 0.0 : cumulative.back();
  const std::int64_t cohort = x.count(from);
  std::int64_t moved = 0;
  for (std::int64_t player = 0; player < cohort; ++player) {
    const double u = rng.uniform();
    if (!(u < stay)) continue;
    if (moved++ == 0) std::fill(tally.begin(), tally.end(), std::int64_t{0});
    ++tally[static_cast<std::size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin())];
  }
  if (moved > 0) emit_counts(from, block, tally, out);
}

/// Ensures the workspace buffers span the game and the cache matches x.
inline void prepare(const CongestionGame& game, const State& x,
                    RoundWorkspace& ws) {
  warm(game, x, ws);
  const auto k = static_cast<std::size_t>(game.num_strategies());
  ws.cumulative.resize(k);
  ws.counts.resize(k);
  x.support(ws.support);
}

/// One origin's row through the kernel, read against `table`.
template <ProtocolKernel K>
void fill_origin_row(const CongestionGame& game, const K& kernel,
                     ExpostTable& table, StrategyId from, RowBlock block,
                     std::span<double> row) {
  const OriginView origin(table, from);
  kernel.fill_row(game, origin, row);
  dcheck_row(row, from - block.begin);
}

/// The row phase: every support origin's probability row, filled in
/// support order into its own slice of ws.rows through ws.expost (synced
/// once for the round), plus the per-origin prune verdict in ws.skip. A
/// first pass lays the rows out over their blocks and, when pruning,
/// computes each block's bounds once.
template <ProtocolKernel K>
void fill_rows(const CongestionGame& game, const State& x, const K& kernel,
               RoundWorkspace& ws, bool prune) {
  const auto s = ws.support.size();
  ws.jobs.resize(s);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < s; ++i) {
    RoundWorkspace::RowJob& job = ws.jobs[i];
    const RowBlock block = kernel.row_block(game, ws.support[i]);
    if (prune) {
      job.bounds = i > 0 && block == ws.jobs[i - 1].block
                       ? ws.jobs[i - 1].bounds
                       : compute_row_bounds(x, ws.ctx, block);
    }
    job.block = block;
    job.offset = offset;
    offset += block.size();
  }
  ws.rows.resize(offset);
  ws.skip.assign(s, 0);
  ws.expost.sync(ws.ctx);
  for (std::size_t i = 0; i < s; ++i) {
    const RoundWorkspace::RowJob& job = ws.jobs[i];
    const StrategyId from = ws.support[i];
    const std::span<double> row{ws.rows.data() + job.offset,
                                job.block.size()};
    if (prune && kernel.row_provably_zero(game, ws.ctx, from, job.bounds)) {
      ws.skip[i] = 1;
      dcheck_pruned_row(game, ws.expost, kernel, from, row);
      continue;
    }
    fill_origin_row(game, kernel, ws.expost, from, job.block, row);
  }
}

/// The row of the i-th support origin.
inline std::span<const double> job_row(const RoundWorkspace& ws,
                                       std::size_t i) {
  return {ws.rows.data() + ws.jobs[i].offset, ws.jobs[i].block.size()};
}

/// A round drawn from fresh rows: fill_rows, then the draws serially in
/// support order. The aggregate engine prunes origins whose whole row is
/// provably zero — no conditional binomials and no RNG consumed
/// (Rng::multinomial draws nothing for zero categories, so the stream is
/// bitwise the unpruned one); the bounds are per row block, computed once
/// per block per round. The per-player engine cannot prune: every player
/// consumes one uniform whether or not its row is zero, so a skipped
/// origin would shift the RNG stream. Metered and traced rounds read the
/// clock around the two phases (three reads a round: the fill's end is
/// the draw's start) and change nothing else.
template <ProtocolKernel K>
void draw_filled(const CongestionGame& game, const State& x, const K& kernel,
                 Rng& rng, EngineMode mode, RoundWorkspace& ws,
                 RoundResult& out, obs::EngineMetrics* metrics, bool trace) {
  const bool aggregate = mode == EngineMode::kAggregate;
  const std::int64_t fill_start = metrics != nullptr ? obs::now_ns() : 0;
  {
    obs::TraceSpan fill_span(trace ? "engine.row_fill" : nullptr);
    fill_rows(game, x, kernel, ws, /*prune=*/aggregate);
  }
  const std::int64_t draw_start = metrics != nullptr ? obs::now_ns() : 0;
  if (metrics != nullptr) metrics->row_fill_ns += draw_start - fill_start;
  obs::TraceSpan draw_span(trace ? "engine.draw" : nullptr);
  std::int64_t pruned = 0;
  for (std::size_t i = 0; i < ws.support.size(); ++i) {
    if (ws.skip[i] != 0) {
      ++pruned;
      continue;
    }
    const StrategyId from = ws.support[i];
    const RowBlock block = ws.jobs[i].block;
    const std::span<const double> row = job_row(ws, i);
    const std::span<std::int64_t> counts{ws.counts.data(), row.size()};
    if (aggregate) {
      rng.multinomial(x.count(from), row, counts);
      emit_counts(from, block, counts, out);
    } else {
      const std::span<double> cumulative{ws.cumulative.data(), row.size()};
      build_cumulative(row, cumulative);
      draw_players(x, from, block, cumulative, rng, counts, out);
    }
  }
  if (metrics != nullptr) {
    metrics->draw_ns += obs::now_ns() - draw_start;
    metrics->rows_pruned += pruned;
    metrics->rows_filled +=
        static_cast<std::int64_t>(ws.support.size()) - pruned;
  }
}

/// Builds the draw plan over the rows a quiet round kept: per aggregate
/// origin the zero steps of its multinomial (x_P trials over its row),
/// flattened to one bound per uniform, and per per-player origin its
/// cumulative row.
inline void build_plan(const State& x, EngineMode mode, RoundWorkspace& ws) {
  RoundWorkspace::DrawPlan& plan = ws.plan;
  const std::size_t s = ws.support.size();
  plan.built = true;
  plan.pruned = 0;
  if (mode == EngineMode::kPerPlayer) {
    plan.cumulative.resize(ws.rows.size());
    for (std::size_t i = 0; i < s; ++i) {
      const std::span<const double> row = job_row(ws, i);
      build_cumulative(row, {plan.cumulative.data() + ws.jobs[i].offset,
                             row.size()});
    }
    return;
  }
  plan.bounds.clear();
  plan.at.clear();
  plan.steps.clear();
  plan.full.clear();
  plan.ends.resize(s);
  for (std::size_t i = 0; i < s; ++i) {
    const auto origin = static_cast<std::uint32_t>(i);
    if (ws.skip[i] != 0) {
      ++plan.pruned;
    } else {
      const std::size_t first = plan.steps.size();
      if (!Rng::plan_zero_multinomial(x.count(ws.support[i]), job_row(ws, i),
                                      plan.steps)) {
        plan.full.push_back({plan.bounds.size(), origin});
      }
      for (std::size_t st = first; st < plan.steps.size(); ++st) {
        for (std::uint32_t d = 0; d < plan.steps[st].draws; ++d) {
          plan.bounds.push_back(plan.steps[st].bound);
          plan.at.push_back({origin, static_cast<std::uint32_t>(st), d});
        }
      }
    }
    plan.ends[i] = plan.bounds.size();
  }
  CID_ENSURE(plan.bounds.size() <= std::numeric_limits<std::uint32_t>::max(),
             "draw plan exceeds 2^32 uniforms");
}

/// The aggregate draw of a replayed round: one scan over the plan's bounds
/// in draw order. A miss finishes its origin's multinomial through
/// Rng::multinomial_planned and, when that moved somebody, resumes the
/// scan at the next origin's bounds; a `full` origin redraws its row
/// through Rng::multinomial where the scan reaches it. The same counts and
/// uniforms as drawing every row through Rng::multinomial. A `pending`
/// miss (Rng::scan_lanes', the generator just past it; only with no
/// `full` origins) resumes the round at that miss.
inline void draw_scanned(const State& x, Rng& rng, RoundWorkspace& ws,
                         RoundResult& out, const LaneScan* pending) {
  const RoundWorkspace::DrawPlan& plan = ws.plan;
  const std::span<const ZeroBound> bounds(plan.bounds);
  CID_DCHECK(pending == nullptr || plan.full.empty(),
             "a lane-scan miss with full origins in the plan");
  auto full = plan.full.begin();
  std::size_t e = pending != nullptr ? pending->index : 0;
  for (;;) {
    const std::size_t stop =
        full != plan.full.end() ? full->first : bounds.size();
    double u = 0.0;
    if (pending != nullptr) {
      u = pending->u;
      pending = nullptr;
    } else {
      e = rng.scan_zero(bounds.first(stop), e, u);
    }
    const bool refused = e == stop;
    if (refused && full == plan.full.end()) return;
    const std::size_t i = refused ? full++->origin : plan.at[e].origin;
    const StrategyId from = ws.support[i];
    const RowBlock block = ws.jobs[i].block;
    const std::span<std::int64_t> counts{ws.counts.data(), block.size()};
    if (refused) {
      rng.multinomial(x.count(from), job_row(ws, i), counts);
    } else {
      const RoundWorkspace::DrawPlan::Locator& at = plan.at[e];
      if (!rng.multinomial_planned(x.count(from), job_row(ws, i),
                                   plan.steps[at.step], at.draw, u, counts)) {
        ++e;
        continue;
      }
      e = plan.ends[i];
    }
    emit_counts(from, block, counts, out);
  }
}

/// A replayed round: builds the plan on the first replay, then draws
/// serially in support order over the kept rows — per-player origins
/// against their cumulative rows, aggregate ones through draw_scanned.
inline void draw_replayed(const State& x, EngineMode mode, Rng& rng,
                          RoundWorkspace& ws, RoundResult& out,
                          obs::EngineMetrics* metrics, bool trace,
                          const LaneScan* pending) {
  const RoundWorkspace::DrawPlan& plan = ws.plan;
  const std::int64_t build_start = metrics != nullptr ? obs::now_ns() : 0;
  if (!plan.built) {
    obs::TraceSpan fill_span(trace ? "engine.row_fill" : nullptr);
    build_plan(x, mode, ws);
  }
  const std::int64_t draw_start = metrics != nullptr ? obs::now_ns() : 0;
  {
    obs::TraceSpan draw_span(trace ? "engine.draw" : nullptr);
    if (mode == EngineMode::kAggregate) {
      draw_scanned(x, rng, ws, out, pending);
    } else {
      for (std::size_t i = 0; i < ws.support.size(); ++i) {
        const RoundWorkspace::RowJob& job = ws.jobs[i];
        draw_players(x, ws.support[i], job.block,
                     {plan.cumulative.data() + job.offset, job.block.size()},
                     rng, {ws.counts.data(), job.block.size()}, out);
      }
    }
  }
  if (metrics != nullptr) {
    metrics->row_fill_ns += draw_start - build_start;
    metrics->draw_ns += obs::now_ns() - draw_start;
    metrics->rows_pruned += plan.pruned;
    metrics->rows_replayed +=
        static_cast<std::int64_t>(ws.support.size()) - plan.pruned;
  }
}

/// The engine's round. `quiet` says that x and ws.ctx are exactly what the
/// previous round on ws drew against, and that it moved nobody; only
/// run_dynamics, which owns ws from round to round, can say so. A quiet
/// round with the plan armed replays it (draw_replayed), with no support
/// scan and no row fill; one without draws from fresh rows (draw_filled),
/// which stay in ws.rows, and arms the plan. A round that is not quiet
/// disarms it, so an armed plan always describes the current (x, ctx).
template <ProtocolKernel K>
void draw_round(const CongestionGame& game, const State& x, const K& kernel,
                Rng& rng, EngineMode mode, RoundWorkspace& ws,
                RoundResult& out, obs::EngineMetrics* metrics, bool trace,
                bool quiet, const LaneScan* pending = nullptr) {
  out.moves.clear();
  out.movers = 0;
  if (quiet && ws.plan.armed) {
    draw_replayed(x, mode, rng, ws, out, metrics, trace, pending);
    return;
  }
  {
    // A cold workspace rebuilds the full latency cache here, so that cost
    // lands in the first round's row-fill phase; steady-state prepare()
    // calls only resize-to-fit (no-ops) and recompute the support list.
    obs::PhaseTimer prep_timer(metrics != nullptr ? &metrics->row_fill_ns
                                                  : nullptr);
    prepare(game, x, ws);
  }
  ws.plan.armed = quiet;
  ws.plan.built = false;
  draw_filled(game, x, kernel, rng, mode, ws, out, metrics, trace);
}

/// A quiet stretch goes to the lanes once it has drawn this many uniforms
/// through scan_zero: the 7 jumps that start a block's lanes then cost a
/// small share of the time already spent.
inline constexpr std::int64_t kLaneMinUniforms = std::int64_t{1} << 17;

/// Whole quiet rounds of the armed aggregate plan through Rng::scan_lanes,
/// `stretch` quiet rounds in, at most `cap` of them: block after block,
/// each about as long as the stretch so far (so blocks grow geometrically
/// and their jumps stay a small share), until the first miss in stream
/// order or the cap. Same result and generator as scanning round by round.
inline LaneScan scan_quiet_rounds(Rng& rng, const RoundWorkspace& ws,
                                  std::int64_t stretch, std::int64_t cap) {
  const std::span<const ZeroBound> bounds(ws.plan.bounds);
  const LaneIsa isa = best_lane_isa();
  LaneScan run;
  while (!run.missed && run.rounds < cap) {
    const LaneScan block = rng.scan_lanes(
        bounds, std::max<std::int64_t>(1, (stretch + run.rounds) / 8),
        cap - run.rounds, isa);
    run.missed = block.missed;
    run.index = block.index;
    run.u = block.u;
    run.rounds += block.rounds;
  }
  return run;
}

}  // namespace engine_detail

/// Workspace-backed monomorphized draw — the kernel-typed core of the
/// engine.hpp draw_round frontend (see there for the full contract; this
/// one is identical modulo taking a ProtocolKernel instead of a Protocol).
template <ProtocolKernel K>
void draw_round(const CongestionGame& game, const State& x, const K& kernel,
                Rng& rng, EngineMode mode, RoundWorkspace& ws,
                RoundResult& out, obs::EngineMetrics* metrics = nullptr,
                bool trace = false) {
  engine_detail::draw_round(game, x, kernel, rng, mode, ws, out, metrics,
                            trace, /*quiet=*/false);
}

/// Monomorphized run — the kernel-typed core of the engine.hpp
/// run_dynamics frontend, and THE round loop: stop checks every
/// check_interval ABSOLUTE rounds (a resumed leg replays the uninterrupted
/// cadence) plus a final one, trace sampling, the apply / refresh /
/// stop-check timers and the round and stop-check counters, the observer
/// calls, and the latency_evals read. At most one of call.stop /
/// call.cached_stop may be non-empty; both empty means "run to
/// max_rounds". The cached predicate is handed the run's own workspace
/// context (reset lazily before the first check, incrementally refreshed
/// afterwards).
template <ProtocolKernel K>
RunResult run_dynamics(const CongestionGame& game, State& x, const K& kernel,
                       Rng& rng, const EngineInvocation& call) {
  CID_ENSURE(!(static_cast<bool>(call.stop) &&
               static_cast<bool>(call.cached_stop)),
             "EngineInvocation: at most one stop predicate may be set");
  const RunOptions& options = call.options;
  CID_ENSURE(options.max_rounds >= 0, "max_rounds must be >= 0");
  CID_ENSURE(options.check_interval >= 1, "check_interval must be >= 1");
  CID_ENSURE(options.start_round >= 0, "start_round must be >= 0");
  obs::EngineMetrics* const m = options.metrics;
  // One workspace for the whole run: after the first round's full cache
  // build, each round re-evaluates only the latencies its migrations
  // dirtied and performs no heap allocation.
  RoundWorkspace ws;
  RoundResult rr;
  RunResult result;
  result.rounds = options.start_round;
  const bool has_stop = static_cast<bool>(call.stop) ||
                        static_cast<bool>(call.cached_stop);
  // The cached predicate returned false and nobody has moved since, so
  // ws.ctx is what it saw: the verdict stands without another call.
  bool still_false = false;
  const auto stop_check = [&](bool trace) {
    obs::PhaseTimer stop_timer(m != nullptr ? &m->stop_check_ns : nullptr);
    obs::TraceSpan stop_span(trace ? "engine.stop_check" : nullptr);
    if (m != nullptr) ++m->stop_checks;
    if (call.cached_stop) {
      if (!still_false) {
        engine_detail::warm(game, x, ws);
        still_false = !call.cached_stop(ws.ctx);
      }
      return !still_false;
    }
    return call.stop(game, x, result.rounds);
  };
  // Span tracing samples every K-th round (trace_engine_sample_interval)
  // so multi-million-round runs stay bounded; a disarmed collector makes
  // `tr` constant false at the cost of one relaxed load per round.
  const std::int64_t trace_every = obs::trace_engine_sample_interval();
  // The previous round of this call moved nobody, so x and ws.ctx are
  // what it drew against: the next draw may use the plan.
  bool quiet = false;
  // Rounds in a row that moved nobody. Once such a stretch has drawn
  // kLaneMinUniforms from a built aggregate plan with no `full` origins,
  // and nothing must see its rounds one by one (no observer, no per-round
  // StopPredicate, no cached verdict still to compute, no trace), its
  // rounds go through the lane scan: the whole quiet rounds are booked in
  // bulk — nothing moves, so apply and refresh have nothing to do — and
  // the round of the first miss is drawn from that miss on.
  std::int64_t stretch = 0;
  const bool lanes_allowed = options.mode == EngineMode::kAggregate &&
                             !call.observer && !call.stop;
  LaneScan lane_scan;
  for (; result.rounds < options.max_rounds; ++result.rounds) {
    std::int64_t round = result.rounds;
    const bool tr = obs::trace_enabled() && round % trace_every == 0;
    if (has_stop && round % options.check_interval == 0 && stop_check(tr)) {
      result.converged = true;
      break;
    }
    const LaneScan* pending = nullptr;
    if (lanes_allowed && quiet && ws.plan.built && ws.plan.full.empty() &&
        (!has_stop || still_false) && !obs::trace_enabled() &&
        stretch * static_cast<std::int64_t>(ws.plan.bounds.size()) >=
            engine_detail::kLaneMinUniforms) {
      const std::int64_t scan_start = m != nullptr ? obs::now_ns() : 0;
      lane_scan = engine_detail::scan_quiet_rounds(
          rng, ws, stretch, options.max_rounds - round);
      const std::int64_t whole = lane_scan.rounds;
      if (m != nullptr) {
        const std::int64_t replayed =
            static_cast<std::int64_t>(ws.support.size()) - ws.plan.pruned;
        m->draw_ns += obs::now_ns() - scan_start;
        m->rounds += whole;
        m->rows_pruned += whole * ws.plan.pruned;
        m->rows_replayed += whole * replayed;
        // The reused false verdicts at the tops of the rounds after this
        // one, up to the miss's round or the last one.
        if (has_stop) {
          const std::int64_t last =
              std::min(round + whole, options.max_rounds - 1);
          m->stop_checks += last / options.check_interval -
                            round / options.check_interval;
        }
      }
      stretch += whole;
      result.rounds += whole;
      if (!lane_scan.missed) break;
      round = result.rounds;
      pending = &lane_scan;
    }
    engine_detail::draw_round(game, x, kernel, rng, options.mode, ws, rr, m,
                              tr, /*quiet=*/quiet, pending);
    if (call.observer) call.observer(game, x, rr.moves, round, false);
    {
      obs::PhaseTimer apply_timer(m != nullptr ? &m->apply_ns : nullptr);
      obs::TraceSpan apply_span(tr ? "engine.apply" : nullptr);
      x.apply(game, rr.moves, ws.apply_scratch);
    }
    {
      obs::PhaseTimer refresh_timer(m != nullptr ? &m->ctx_refresh_ns
                                                 : nullptr);
      obs::TraceSpan refresh_span(tr ? "engine.ctx_refresh" : nullptr);
      ws.ctx.refresh(ws.apply_scratch.touched);
    }
    result.total_movers += rr.movers;
    quiet = rr.movers == 0;
    stretch = quiet ? stretch + 1 : 0;
    still_false = still_false && quiet;
    if (m != nullptr) ++m->rounds;
  }
  if (!result.converged && has_stop && stop_check(obs::trace_enabled())) {
    result.converged = true;
  }
  if (call.observer) call.observer(game, x, {}, result.rounds, true);
  if (ws.ready) result.latency_evals = ws.ctx.latency_evals();
  return result;
}

}  // namespace cid
