// Batched class-local round kernel for asymmetric (multi-commodity)
// congestion games — the asymmetric mirror of dynamics/engine.hpp.
//
// The class-local imitation dynamics (paper §3's closing remark, realized
// in game/asymmetric.hpp) used to run the per-pair path only: every
// (class, origin, destination) triple re-evaluated ℓ_P(x) and
// ℓ_Q(x+1_Q−1_P) from the latency functions. This module ports the
// symmetric kernel's machinery over:
//
//   * AsymmetricLatencyContext — the shared ℓ_e(x_e)/ℓ_e(x_e+1) resource
//     tables (classes share the resource set) plus PER-CLASS ℓ_{c,P}(x)
//     sums, maintained incrementally from the touched-resource reports of
//     AsymmetricState::apply(game, moves, scratch);
//   * AsymmetricProtocolKernel — the statically-dispatched row interface
//     (the asymmetric mirror of ProtocolKernel in protocols/kernel.hpp),
//     modeled by AsymmetricImitationKernel over
//     fill_asymmetric_move_probabilities: one cached row per (class,
//     origin) over the class support, zero latency-function calls;
//   * draw_asymmetric_round<K> — the batched aggregate draw, templated
//     over the kernel, with the same support/improvement pruning as the
//     symmetric engine (origins whose row is provably zero skip the fill
//     AND the multinomial; no RNG is consumed either way) and optional
//     row_threads fan-out of the pure row fills across persistent
//     sweep-pool workers with a deterministic serial draw phase. The
//     params-taking overload is the type-erased-free frontend the CLIs
//     and scenario layer call (imitation is the only asymmetric protocol,
//     so there is no dispatch chain here — EngineTuning::virtual_frontend
//     is inert for this engine);
//   * cached overloads of the class-wise stop predicates.
//
// Bitwise contract: identical migrations and identical RNG stream to
// draw_asymmetric_round_reference (the per-pair oracle retained in
// game/asymmetric.hpp), enforced by tests/test_engine_oracle.cpp —
// checkpoints and manifests are interchangeable between the two paths.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "game/asymmetric.hpp"
#include "latency/kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "sweep/pool.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid {

/// The asymmetric mirror of RoundObserver (dynamics/engine.hpp): invoked
/// once per round with the PRE-round state and that round's class
/// migrations before they are applied, and once more after the final
/// round with an empty move list and `final = true`. The sweep's
/// asymmetric run loop feeds it; obs::TelemetryRecorder plugs in here.
using AsymmetricRoundObserver = std::function<void(
    const AsymmetricGame&, const AsymmetricState& x,
    std::span<const ClassMigration> moves, std::int64_t round, bool final)>;

class AsymmetricLatencyContext {
 public:
  /// Full rebuild against (game, x). Also precomputes the resource →
  /// (class, strategy) incidence used by incremental refreshes.
  void reset(const AsymmetricGame& game, const AsymmetricState& x);

  /// Incremental rebuild after `x` changed: only genuinely changed
  /// resources are re-evaluated, and only the (class, strategy) sums
  /// containing one of them are re-derived.
  void refresh(std::span<const Resource> touched);

  bool ready() const noexcept { return game_ != nullptr; }
  const AsymmetricGame& game() const noexcept { return *game_; }
  const AsymmetricState& state() const noexcept { return *x_; }

  /// ℓ_e(x_e) — bitwise equal to game.latency(e).value(x.congestion(e)).
  double resource_latency(Resource e) const noexcept {
    return ell_[static_cast<std::size_t>(e)];
  }

  /// ℓ_e(x_e + 1).
  double resource_latency_plus(Resource e) const noexcept {
    return ell_plus_[static_cast<std::size_t>(e)];
  }

  /// ℓ_{c,P}(x) — bitwise equal to game.strategy_latency(x, c, p).
  double strategy_latency(std::int32_t c, StrategyId p) const noexcept {
    return strat_[static_cast<std::size_t>(c)][static_cast<std::size_t>(p)];
  }

  /// ℓ_Q(x+1_Q−1_P) for a class-c switch — bitwise equal to
  /// game.expost_latency(x, c, from, to) (same merge, cached values).
  double expost_latency(std::int32_t c, StrategyId from,
                        StrategyId to) const noexcept;

  /// See LatencyContext::plus_dominates — the soundness gate for pruning.
  bool plus_dominates() const noexcept { return non_monotone_ == 0; }

  /// Latency-function evaluations since reset.
  std::int64_t latency_evals() const noexcept { return evals_; }

 private:
  void recompute_resource(std::size_t e);

  const AsymmetricGame* game_ = nullptr;
  const AsymmetricState* x_ = nullptr;
  std::vector<double> ell_;
  std::vector<double> ell_plus_;
  std::vector<std::int64_t> load_;
  std::vector<std::vector<double>> strat_;          // [class][strategy]
  std::vector<std::vector<std::uint64_t>> strat_epoch_;
  /// Resource → (class, strategy) incidence, built once per reset.
  std::vector<std::vector<std::pair<std::int32_t, StrategyId>>> users_;
  std::vector<Resource> fresh_;
  std::uint64_t epoch_ = 0;
  std::int64_t evals_ = 0;
  std::int64_t non_monotone_ = 0;
};

/// Cached row fill over the class support: out[j] receives the marginal
/// probability of the support[j] destination (0 at `from`'s own slot),
/// bitwise identical to asymmetric_move_probability per entry. `out`
/// spans exactly support.size() entries.
void fill_asymmetric_move_probabilities(
    const AsymmetricGame& game, const AsymmetricLatencyContext& ctx,
    const AsymmetricImitationParams& params, std::int32_t c, StrategyId from,
    std::span<const StrategyId> support, std::span<double> out);

/// The asymmetric mirror of the ProtocolKernel concept: a statically-
/// dispatched class-local row interface. `min_used` is the pruning bound
/// (min cached ℓ_{c,Q}(x) over the class support); the same soundness and
/// bitwise contracts as the symmetric concept apply.
template <typename K>
concept AsymmetricProtocolKernel =
    std::copy_constructible<K> &&
    requires(const K k, const AsymmetricGame& game,
             const AsymmetricLatencyContext& ctx, std::int32_t c,
             StrategyId from, std::span<const StrategyId> support,
             std::span<double> out, double min_used) {
      { k.fill_row(game, ctx, c, from, support, out) } -> std::same_as<void>;
      {
        k.row_provably_zero(game, ctx, c, from, min_used)
      } -> std::same_as<bool>;
      { k.name() } -> std::convertible_to<std::string>;
    };

/// The class-local imitation dynamics as a kernel — today's only
/// asymmetric protocol (a future asymmetric protocol models the concept
/// the same way and the templated draw below picks it up unchanged).
class AsymmetricImitationKernel {
 public:
  explicit AsymmetricImitationKernel(
      const AsymmetricImitationParams& params) noexcept
      : params_(&params) {}

  void fill_row(const AsymmetricGame& game,
                const AsymmetricLatencyContext& ctx, std::int32_t c,
                StrategyId from, std::span<const StrategyId> support,
                std::span<double> out) const {
    fill_asymmetric_move_probabilities(game, ctx, *params_, c, from, support,
                                       out);
  }

  /// Whether class-c origin `from`'s whole row is provably zero: nobody to
  /// sample, or — under plus-dominance — ℓ_{c,P}(x) within ν of the
  /// cheapest used strategy of the SAME class (imitation is class-local,
  /// so only the class support matters).
  bool row_provably_zero(const AsymmetricGame& game,
                         const AsymmetricLatencyContext& ctx, std::int32_t c,
                         StrategyId from, double min_used) const {
    if (game.player_class(c).num_players < 2) return true;
    if (!ctx.plus_dominates()) return false;
    const double nu = params_->nu_cutoff ? game.nu() : 0.0;
    return !(ctx.strategy_latency(c, from) > min_used + nu);
  }

  std::string name() const { return "asymmetric-imitation"; }

  const AsymmetricImitationParams& params() const noexcept { return *params_; }

 private:
  const AsymmetricImitationParams* params_;
};

static_assert(AsymmetricProtocolKernel<AsymmetricImitationKernel>);

/// The per-class pruning bound: min cached ℓ_{c,Q}(x) over the class
/// support (+inf for an empty support).
inline double class_min_used_latency(const AsymmetricLatencyContext& ctx,
                                     std::int32_t c,
                                     std::span<const StrategyId> support) {
  double min_used = std::numeric_limits<double>::infinity();
  for (StrategyId q : support) {
    min_used = std::min(min_used, ctx.strategy_latency(c, q));
  }
  return min_used;
}

/// Reusable hot-path buffers for the batched asymmetric draw (the
/// class-structured RoundWorkspace).
struct AsymmetricRoundWorkspace {
  AsymmetricLatencyContext ctx;
  std::vector<StrategyId> support;        // serial path: reused per class
  std::vector<double> probs;
  std::vector<std::int64_t> counts;
  AsymmetricApplyScratch apply_scratch;
  // row_threads > 1 only: flattened (class, origin) jobs with disjoint
  // row slices, filled in parallel and drawn serially in job order.
  std::vector<std::vector<StrategyId>> class_support;
  std::vector<std::int32_t> job_class;
  std::vector<StrategyId> job_from;
  std::vector<std::size_t> job_offset;
  std::vector<double> rows;
  std::vector<char> skip;
  std::vector<double> class_min;          // per-class pruning bound
  bool ready = false;  // ctx reflects the caller's current (game, x)
};

namespace asymmetric_detail {

/// Debug-only audit of a pruned (class, origin): the claimed-zero row must
/// actually be all zeros (cf. dcheck_pruned_row in engine_kernel.hpp).
template <AsymmetricProtocolKernel K>
void dcheck_pruned_class_row(
    [[maybe_unused]] const AsymmetricGame& game,
    [[maybe_unused]] const AsymmetricLatencyContext& ctx,
    [[maybe_unused]] const K& kernel, [[maybe_unused]] std::int32_t c,
    [[maybe_unused]] StrategyId from,
    [[maybe_unused]] std::span<const StrategyId> support,
    [[maybe_unused]] std::span<double> scratch) {
#ifndef NDEBUG
  kernel.fill_row(game, ctx, c, from, support, scratch);
  for (double p : scratch) {
    CID_DCHECK(p == 0.0, "asymmetric pruning skipped a nonzero row");
  }
#endif
}

template <AsymmetricProtocolKernel K>
void draw_serial(const AsymmetricGame& game, const AsymmetricState& x,
                 const K& kernel, Rng& rng, AsymmetricRoundWorkspace& ws,
                 AsymmetricRoundResult& out) {
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    x.support(c, ws.support);
    const double min_used = class_min_used_latency(ws.ctx, c, ws.support);
    ws.probs.resize(ws.support.size());
    ws.counts.resize(ws.support.size());
    for (StrategyId from : ws.support) {
      if (kernel.row_provably_zero(game, ws.ctx, c, from, min_used)) {
        dcheck_pruned_class_row(game, ws.ctx, kernel, c, from, ws.support,
                                ws.probs);
        continue;
      }
      kernel.fill_row(game, ws.ctx, c, from, ws.support, ws.probs);
      rng.multinomial(x.count(c, from), ws.probs, ws.counts);
      for (std::size_t j = 0; j < ws.support.size(); ++j) {
        if (ws.counts[j] == 0) continue;
        out.moves.push_back(
            ClassMigration{c, from, ws.support[j], ws.counts[j]});
        out.movers += ws.counts[j];
      }
    }
  }
}

template <AsymmetricProtocolKernel K>
void draw_threaded(const AsymmetricGame& game, const AsymmetricState& x,
                   const K& kernel, Rng& rng, AsymmetricRoundWorkspace& ws,
                   AsymmetricRoundResult& out, int row_threads,
                   obs::EngineMetrics* metrics, bool trace) {
  // Flatten the (class, origin) jobs: each owns a disjoint slice of
  // ws.rows sized by its class support. Job order == the serial path's
  // iteration order, so the serial draw phase below consumes the RNG
  // identically. (That also makes this path, run with one inline thread,
  // the metered flavor of draw_serial: identical fills, verdicts, and
  // RNG order, plus separable row-fill/draw timing.)
  const std::int64_t fill_start = metrics != nullptr ? obs::now_ns() : 0;
  {
    obs::TraceSpan fill_span(trace ? "engine.row_fill" : nullptr);
    const auto num_classes = static_cast<std::size_t>(game.num_classes());
    ws.class_support.resize(num_classes);
    ws.job_class.clear();
    ws.job_from.clear();
    ws.job_offset.clear();
    std::size_t offset = 0;
    for (std::int32_t c = 0; c < game.num_classes(); ++c) {
      auto& support = ws.class_support[static_cast<std::size_t>(c)];
      x.support(c, support);
      for (StrategyId from : support) {
        ws.job_class.push_back(c);
        ws.job_from.push_back(from);
        ws.job_offset.push_back(offset);
        offset += support.size();
      }
    }
    ws.rows.resize(offset);
    ws.skip.assign(ws.job_class.size(), 0);
    ws.class_min.resize(num_classes);
    const std::span<double> min_used = ws.class_min;
    for (std::int32_t c = 0; c < game.num_classes(); ++c) {
      min_used[static_cast<std::size_t>(c)] = class_min_used_latency(
          ws.ctx, c, ws.class_support[static_cast<std::size_t>(c)]);
    }
    sweep::parallel_for(
        static_cast<std::int64_t>(ws.job_class.size()), row_threads,
        [&](std::int64_t i) {
          const auto ji = static_cast<std::size_t>(i);
          const std::int32_t c = ws.job_class[ji];
          const StrategyId from = ws.job_from[ji];
          const auto& support = ws.class_support[static_cast<std::size_t>(c)];
          const std::span<double> row{ws.rows.data() + ws.job_offset[ji],
                                      support.size()};
          if (kernel.row_provably_zero(
                  game, ws.ctx, c, from,
                  min_used[static_cast<std::size_t>(c)])) {
            ws.skip[ji] = 1;
            dcheck_pruned_class_row(game, ws.ctx, kernel, c, from, support,
                                    row);
            return;
          }
          kernel.fill_row(game, ws.ctx, c, from, support, row);
        });
  }
  const std::int64_t draw_start = metrics != nullptr ? obs::now_ns() : 0;
  if (metrics != nullptr) metrics->row_fill_ns += draw_start - fill_start;
  obs::TraceSpan draw_span(trace ? "engine.draw" : nullptr);
  std::int64_t pruned = 0;
  for (std::size_t i = 0; i < ws.job_class.size(); ++i) {
    if (ws.skip[i] != 0) {
      ++pruned;
      continue;
    }
    const std::int32_t c = ws.job_class[i];
    const auto& support = ws.class_support[static_cast<std::size_t>(c)];
    const std::span<const double> row{ws.rows.data() + ws.job_offset[i],
                                      support.size()};
    ws.counts.resize(support.size());
    rng.multinomial(x.count(c, ws.job_from[i]), row, ws.counts);
    for (std::size_t j = 0; j < support.size(); ++j) {
      if (ws.counts[j] == 0) continue;
      out.moves.push_back(
          ClassMigration{c, ws.job_from[i], support[j], ws.counts[j]});
      out.movers += ws.counts[j];
    }
  }
  if (metrics != nullptr) {
    metrics->draw_ns += obs::now_ns() - draw_start;
    metrics->rows_pruned += pruned;
    metrics->rows_filled +=
        static_cast<std::int64_t>(ws.job_class.size()) - pruned;
  }
}

}  // namespace asymmetric_detail

/// Draws one concurrent class-local round (without applying it) on the
/// batched kernel, monomorphized over any AsymmetricProtocolKernel. If
/// ws.ready is false the cache is rebuilt from (game, x); callers stepping
/// many rounds apply through x.apply(game, moves, ws.apply_scratch) and
/// ws.ctx.refresh(touched). Output and RNG stream are bitwise invariant
/// in row_threads.
///
/// `metrics`, when non-null, accrues row-fill/draw phase times and rows
/// filled/pruned — purely observational, zero RNG, bitwise-identical
/// rounds either way (the metered serial path runs the flattened-job
/// kernel inline, which consumes the RNG in exactly serial order).
///
/// `trace` emits row-fill/draw spans into the obs/trace_span.hpp collector
/// for this one round, under the same bitwise contract as `metrics` (the
/// traced serial path routes through the inline flattened-job kernel).
template <AsymmetricProtocolKernel K>
void draw_asymmetric_round(const AsymmetricGame& game,
                           const AsymmetricState& x, const K& kernel,
                           Rng& rng, AsymmetricRoundWorkspace& ws,
                           AsymmetricRoundResult& out, int row_threads = 1,
                           obs::EngineMetrics* metrics = nullptr,
                           bool trace = false) {
  obs::EngineMetrics* const m = obs::kMetricsCompiled ? metrics : nullptr;
  const bool tr = obs::kMetricsCompiled && trace;
  out.moves.clear();
  out.movers = 0;
  if (!ws.ready) {
    // The initial full cache build lands in the first round's row-fill
    // phase, mirroring the symmetric kernel's accounting.
    obs::PhaseTimer prep_timer(m != nullptr ? &m->row_fill_ns : nullptr);
    ws.ctx.reset(game, x);
    ws.ready = true;
  }
  if (row_threads <= 1 && m == nullptr && !tr) {
    asymmetric_detail::draw_serial(game, x, kernel, rng, ws, out);
  } else {
    asymmetric_detail::draw_threaded(game, x, kernel, rng, ws, out,
                                     row_threads, m, tr);
  }
}

/// Params-taking frontend over draw_asymmetric_round<K>: validates the
/// params once and runs the AsymmetricImitationKernel (today's only
/// asymmetric protocol). Bitwise-identical to calling the template
/// directly.
void draw_asymmetric_round(const AsymmetricGame& game,
                           const AsymmetricState& x,
                           const AsymmetricImitationParams& params, Rng& rng,
                           AsymmetricRoundWorkspace& ws,
                           AsymmetricRoundResult& out, int row_threads = 1,
                           obs::EngineMetrics* metrics = nullptr,
                           bool trace = false);

/// Cached overload of is_asymmetric_imitation_stable: reads every latency
/// from the context (bitwise-identical verdicts; the context-free version
/// in game/asymmetric.hpp stays the reference oracle).
bool is_asymmetric_imitation_stable(const AsymmetricLatencyContext& ctx,
                                    double nu);

/// Cached overload of is_asymmetric_nash.
bool is_asymmetric_nash(const AsymmetricLatencyContext& ctx);

}  // namespace cid
