// ProtocolKernel concept: the statically-dispatched protocol interface the
// templated round engines monomorphize over (dynamics/engine_kernel.hpp).
// It serves the symmetric protocols and, through ClassImitationKernel, the
// class-local imitation of asymmetric games run on their flat game.
//
// The virtual Protocol class is the type-erased handle the CLIs and the
// scenario registry hold, and the per-pair REFERENCE ORACLE
// (move_probability) every kernel is audited against. A ProtocolKernel
// adds the row API — `row_block`, `fill_row`, `row_provably_zero` — and is
// dispatched at compile time, so the engines' five phases inline the row
// fill instead of paying a virtual call per origin, and the paper's
// protocols on singleton games run a branch-reduced select loop the
// auto-vectorizer can chew on.
//
// Layering (how a protocol reaches the hot path):
//
//   Protocol (virtual)  --dispatch_protocol_kernel-->  concrete kernel
//     ImitationProtocol   -> ImitationKernel     (select loop on singletons)
//     ExplorationProtocol -> ExplorationKernel   (select loop on singletons)
//     CombinedProtocol    -> CombinedKernel      (select loop on singletons)
//     anything else       -> refused (invariant_violation naming it)
//
// On non-singleton games each kernel calls its final class's
// fill_move_probabilities / row_provably_zero directly. ClassImitationKernel
// has no virtual Protocol: the asymmetric scenario families construct it
// directly, and its move_probability forwards to the class-wise oracle
// asymmetric_move_probability (game/asymmetric.hpp).
//
// A new protocol therefore needs a final class with the same row members
// plus a kernel and a dispatch case. The tests-only adapter in
// tests/support/reference_round.hpp fills rows pair by pair through
// move_probability and never prunes; the suites run it beside each kernel
// to audit both the row fill and the pruning.
//
// Bitwise contract: every kernel's fill_row writes the byte-identical row
// move_probability gives per pair — so batched, monomorphized, vectorized,
// and per-pair reference paths all consume the RNG identically and produce
// interchangeable checkpoints (tests/test_kernel_concepts.cpp and
// tests/test_engine_oracle.cpp enforce this). The singleton fast paths
// below preserve it by construction: identical hoisted constants,
// identical expression order, and ternary selects (never multiply-by-mask,
// which would turn a discarded-lane NaN into an output).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "game/asymmetric.hpp"
#include "game/congestion_game.hpp"
#include "game/expost_table.hpp"
#include "game/latency_context.hpp"
#include "game/state.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"
#include "protocols/protocol.hpp"
#include "util/assert.hpp"

namespace cid {

/// The statically-dispatched protocol interface:
///
///   * row_block(game, from) — the destination range of from's row;
///     destinations outside it have probability 0.
///   * fill_row(game, origin, out) — writes, for from = origin.from() and
///     every j, out[j] = move_probability(from, block.begin + j) (0 for
///     from itself) over the block. origin.ctx() is the round's latency
///     cache, consistent with the pre-round state. Every entry must be
///     BITWISE identical to the per-pair value: the engines feed rows
///     straight into the RNG samplers, so any drift would silently fork
///     every replay/checkpoint artifact.
///   * row_provably_zero(game, ctx, from, bounds) — true ONLY when every
///     entry fill_row would write is provably 0.0; the aggregate engine
///     then skips the row fill AND the multinomial draw. Bitwise-safe
///     because Rng::multinomial consumes no randomness for zero-probability
///     categories. It must be sound, not complete: a false for a zero row
///     merely costs time. `bounds` are computed over the block.
///   * move_probability(game, x, from, to) — the per-pair reference oracle.
///
/// Kernels are cheap value types (a pointer or two) the engines copy
/// freely.
template <typename K>
concept ProtocolKernel =
    std::copy_constructible<K> &&
    requires(const K k, const CongestionGame& game, const LatencyContext& ctx,
             const OriginView& origin, const State& x, StrategyId from,
             StrategyId to, std::span<double> out, const RowBounds& bounds) {
      { k.row_block(game, from) } -> std::same_as<RowBlock>;
      { k.fill_row(game, origin, out) } -> std::same_as<void>;
      { k.row_provably_zero(game, ctx, from, bounds) } -> std::same_as<bool>;
      { k.move_probability(game, x, from, to) } -> std::same_as<double>;
      { k.name() } -> std::convertible_to<std::string>;
    };

/// Monomorphized imitation kernel. Non-singleton games delegate to the
/// final ImitationProtocol methods (direct, devirtualized calls); singleton
/// games take a contiguous-array select loop: the per-destination ex-post
/// gather collapses to one ell/ell_plus read, and the branchy zero cases
/// become one ternary select per entry.
class ImitationKernel {
 public:
  explicit ImitationKernel(const ImitationProtocol& protocol) noexcept
      : protocol_(&protocol) {}

  RowBlock row_block(const CongestionGame& game, StrategyId /*from*/) const {
    return {0, game.num_strategies()};
  }
  void fill_row(const CongestionGame& game, const OriginView& origin,
                std::span<double> out) const {
    if (game.is_singleton()) {
      fill_row_singleton(game, origin.ctx(), origin.from(), out);
      return;
    }
    protocol_->fill_move_probabilities(game, origin, out);
  }
  bool row_provably_zero(const CongestionGame& game, const LatencyContext& ctx,
                         StrategyId from, const RowBounds& bounds) const {
    return protocol_->row_provably_zero(game, ctx, from, bounds);
  }
  double move_probability(const CongestionGame& game, const State& x,
                          StrategyId from, StrategyId to) const {
    return protocol_->move_probability(game, x, from, to);
  }
  std::string name() const { return protocol_->name(); }

 private:
  void fill_row_singleton(const CongestionGame& game, const LatencyContext& ctx,
                          StrategyId from, std::span<double> out) const {
    // Hoisted constants mirror ImitationProtocol::fill_move_probabilities
    // term for term (effective nu/d reconstructed from the public params —
    // same expressions as the private effective_* helpers).
    const ImitationParams& params = protocol_->params();
    const std::span<const std::int64_t> counts = ctx.state().counts();
    const std::span<const Strategy> strategies = game.strategies();
    const std::span<const double> ell = ctx.resource_latencies();
    const std::span<const double> ell_plus = ctx.resource_latencies_plus();
    const auto k = static_cast<std::size_t>(game.num_strategies());
    const std::int64_t v = params.virtual_agents;
    const std::int64_t pool =
        game.num_players() + v * game.num_strategies() -
        (params.convention == SamplingConvention::kExcludeSelf ? 1 : 0);
    const double l_from = ctx.strategy_latency(from);
    const double nu =
        params.nu_cutoff ? params.nu_override.value_or(game.nu()) : 0.0;
    const double d =
        params.damping ? params.elasticity_override.value_or(game.elasticity())
                       : 1.0;
    const double lambda_over_d = params.lambda / d;
    const Resource res_from = strategies[static_cast<std::size_t>(from)][0];
    for (std::size_t to = 0; to < k; ++to) {
      const std::int64_t targets = counts[to] + v;
      const double sample_prob =
          static_cast<double>(targets) / static_cast<double>(pool);
      const Resource res_to = strategies[to][0];
      const auto e = static_cast<std::size_t>(res_to);
      // Singleton ex-post latency: the one destination resource reads ell
      // when shared with the origin, ell_plus otherwise — exactly what
      // the origin table's gather computes for |Q| = 1.
      const double l_to = res_to == res_from ? ell[e] : ell_plus[e];
      const double mu = lambda_over_d * (l_from - l_to) / l_from;
      // One select covering every zero case of the scalar loop, in the
      // same semantics: self, empty target, vanished sample probability,
      // or failed gain test. Dead lanes may compute inf/NaN in mu — the
      // ternary discards them (never multiply-by-mask: 0 * NaN != 0).
      const bool moves = static_cast<StrategyId>(to) != from &&
                         targets != 0 && sample_prob != 0.0 &&
                         (l_from > l_to + nu);
      out[to] = moves ? sample_prob * std::clamp(mu, 0.0, 1.0) : 0.0;
    }
  }

  const ImitationProtocol* protocol_;
};

/// Monomorphized exploration kernel (same layering as ImitationKernel).
class ExplorationKernel {
 public:
  explicit ExplorationKernel(const ExplorationProtocol& protocol) noexcept
      : protocol_(&protocol) {}

  RowBlock row_block(const CongestionGame& game, StrategyId /*from*/) const {
    return {0, game.num_strategies()};
  }
  void fill_row(const CongestionGame& game, const OriginView& origin,
                std::span<double> out) const {
    if (game.is_singleton()) {
      fill_row_singleton(game, origin.ctx(), origin.from(), out);
      return;
    }
    protocol_->fill_move_probabilities(game, origin, out);
  }
  bool row_provably_zero(const CongestionGame& game, const LatencyContext& ctx,
                         StrategyId from, const RowBounds& bounds) const {
    return protocol_->row_provably_zero(game, ctx, from, bounds);
  }
  double move_probability(const CongestionGame& game, const State& x,
                          StrategyId from, StrategyId to) const {
    return protocol_->move_probability(game, x, from, to);
  }
  std::string name() const { return protocol_->name(); }

 private:
  void fill_row_singleton(const CongestionGame& game, const LatencyContext& ctx,
                          StrategyId from, std::span<double> out) const {
    // Mirrors ExplorationProtocol::fill_move_probabilities. Its
    // non-improving entries are sample_prob * 0.0 — bitwise +0.0, since
    // sample_prob = 1/k is positive and finite — so one 0.0 select covers
    // both zero cases exactly.
    const ExplorationParams& params = protocol_->params();
    const std::span<const Strategy> strategies = game.strategies();
    const std::span<const double> ell = ctx.resource_latencies();
    const std::span<const double> ell_plus = ctx.resource_latencies_plus();
    const auto k = static_cast<std::size_t>(game.num_strategies());
    const double sample_prob =
        1.0 / static_cast<double>(game.num_strategies());
    const double l_from = ctx.strategy_latency(from);
    const double beta = params.beta_override.value_or(game.beta_slope());
    const double lmin =
        params.lmin_override.value_or(game.min_nonempty_latency());
    const double num_strategies = static_cast<double>(game.num_strategies());
    const double n = static_cast<double>(game.num_players());
    const double damping = std::min(1.0, num_strategies * lmin / (beta * n));
    const double lambda_damping = params.lambda * damping;
    const Resource res_from = strategies[static_cast<std::size_t>(from)][0];
    for (std::size_t to = 0; to < k; ++to) {
      const Resource res_to = strategies[to][0];
      const auto e = static_cast<std::size_t>(res_to);
      const double l_to = res_to == res_from ? ell[e] : ell_plus[e];
      const double mu = lambda_damping * (l_from - l_to) / l_from;
      const bool moves =
          static_cast<StrategyId>(to) != from && (l_from > l_to);
      out[to] = moves ? sample_prob * std::clamp(mu, 0.0, 1.0) : 0.0;
    }
  }

  const ExplorationProtocol* protocol_;
};

/// Monomorphized combined kernel: one ell/ell_plus read per destination
/// feeds both sub-protocol cores, exactly as the scalar row fill shares one
/// ex-post gather between them.
class CombinedKernel {
 public:
  explicit CombinedKernel(const CombinedProtocol& protocol) noexcept
      : protocol_(&protocol) {}

  RowBlock row_block(const CongestionGame& game, StrategyId /*from*/) const {
    return {0, game.num_strategies()};
  }
  void fill_row(const CongestionGame& game, const OriginView& origin,
                std::span<double> out) const {
    if (game.is_singleton()) {
      fill_row_singleton(game, origin.ctx(), origin.from(), out);
      return;
    }
    protocol_->fill_move_probabilities(game, origin, out);
  }
  bool row_provably_zero(const CongestionGame& game, const LatencyContext& ctx,
                         StrategyId from, const RowBounds& bounds) const {
    return protocol_->row_provably_zero(game, ctx, from, bounds);
  }
  double move_probability(const CongestionGame& game, const State& x,
                          StrategyId from, StrategyId to) const {
    return protocol_->move_probability(game, x, from, to);
  }
  std::string name() const { return protocol_->name(); }

 private:
  void fill_row_singleton(const CongestionGame& game, const LatencyContext& ctx,
                          StrategyId from, std::span<double> out) const {
    // Mirrors CombinedProtocol::fill_move_probabilities: per entry, the
    // exact values the two move_probability_cached cores return, combined
    // as p·explore + (1−p)·imitate in the same order. The exploration core
    // returns sample_prob * 0.0 (== +0.0) for non-improving targets, so
    // its select writes 0.0 exactly like the imitation-style cases.
    const ImitationParams& ip = protocol_->imitation().params();
    const ExplorationParams& ep = protocol_->exploration().params();
    const double p_explore = protocol_->p_explore();
    const double one_minus_p = 1.0 - p_explore;
    const std::span<const std::int64_t> counts = ctx.state().counts();
    const std::span<const Strategy> strategies = game.strategies();
    const std::span<const double> ell = ctx.resource_latencies();
    const std::span<const double> ell_plus = ctx.resource_latencies_plus();
    const auto k = static_cast<std::size_t>(game.num_strategies());
    const double l_from = ctx.strategy_latency(from);
    // Imitation core constants (ImitationProtocol::move_probability_cached).
    const std::int64_t v = ip.virtual_agents;
    const std::int64_t pool =
        game.num_players() + v * game.num_strategies() -
        (ip.convention == SamplingConvention::kExcludeSelf ? 1 : 0);
    const double nu = ip.nu_cutoff ? ip.nu_override.value_or(game.nu()) : 0.0;
    const double d =
        ip.damping ? ip.elasticity_override.value_or(game.elasticity()) : 1.0;
    const double i_lambda_over_d = ip.lambda / d;
    // Exploration core constants (ExplorationProtocol::move_probability_cached).
    const double e_sample =
        1.0 / static_cast<double>(game.num_strategies());
    const double beta = ep.beta_override.value_or(game.beta_slope());
    const double lmin = ep.lmin_override.value_or(game.min_nonempty_latency());
    const double num_strategies = static_cast<double>(game.num_strategies());
    const double n = static_cast<double>(game.num_players());
    const double e_damping =
        std::min(1.0, num_strategies * lmin / (beta * n));
    const double e_lambda_damping = ep.lambda * e_damping;
    const Resource res_from = strategies[static_cast<std::size_t>(from)][0];
    for (std::size_t to = 0; to < k; ++to) {
      const Resource res_to = strategies[to][0];
      const auto e = static_cast<std::size_t>(res_to);
      const double l_to = res_to == res_from ? ell[e] : ell_plus[e];
      const double e_mu = e_lambda_damping * (l_from - l_to) / l_from;
      const double e_val = (l_from > l_to)
                               ? e_sample * std::clamp(e_mu, 0.0, 1.0)
                               : e_sample * 0.0;
      const std::int64_t targets = counts[to] + v;
      const double i_sample =
          static_cast<double>(targets) / static_cast<double>(pool);
      const double i_mu = i_lambda_over_d * (l_from - l_to) / l_from;
      const bool i_moves =
          targets != 0 && i_sample != 0.0 && (l_from > l_to + nu);
      const double i_val =
          i_moves ? i_sample * std::clamp(i_mu, 0.0, 1.0) : 0.0;
      out[to] = static_cast<StrategyId>(to) == from
                    ? 0.0
                    : p_explore * e_val + one_minus_p * i_val;
    }
  }

  const CombinedProtocol* protocol_;
};

/// Class-local imitation (the paper's §3 closing remark) on an asymmetric
/// game's flat game: a class-c player samples among the other n_c − 1
/// players of its class and accepts with Protocol 1's μ. Its rows span the
/// origin's class block, and its pruning bound is the block's cheapest used
/// strategy. The row fill mirrors asymmetric_move_probability term for term
/// over cached latencies; move_probability IS that oracle.
class ClassImitationKernel {
 public:
  ClassImitationKernel(const AsymmetricGame& game,
                       const AsymmetricImitationParams& params)
      : game_(&game), params_(params) {
    CID_ENSURE(params.lambda > 0.0 && params.lambda <= 1.0,
               "lambda must be in (0, 1]");
  }

  RowBlock row_block(const CongestionGame& /*game*/, StrategyId from) const {
    const std::int32_t c = game_->class_of(from);
    return {game_->class_offset(c), game_->class_offset(c + 1)};
  }

  void fill_row(const CongestionGame& game, const OriginView& origin,
                std::span<double> out) const {
    const LatencyContext& ctx = origin.ctx();
    const StrategyId from = origin.from();
    const std::int32_t c = game_->class_of(from);
    if (game_->player_class(c).num_players < 2) {  // nobody to sample
      std::fill(out.begin(), out.end(), 0.0);
      return;
    }
    const std::span<const std::int64_t> counts = ctx.state().counts();
    const StrategyId begin = game_->class_offset(c);
    const double l_from = ctx.strategy_latency(from);
    const double nu = params_.nu_cutoff ? game.nu() : 0.0;
    const double d = params_.damping ? game.elasticity() : 1.0;
    // λ/d of the same doubles is the same double every entry; hoisting it
    // cannot change a bit (as in the symmetric row fills).
    const double lambda_over_d = params_.lambda / d;
    const auto pool =
        static_cast<double>(game_->player_class(c).num_players - 1);
    for (std::size_t j = 0; j < out.size(); ++j) {
      const StrategyId to = begin + static_cast<StrategyId>(j);
      const std::int64_t targets = counts[static_cast<std::size_t>(to)];
      if (to == from || targets == 0) {
        out[j] = 0.0;
        continue;
      }
      const double l_to = origin.expost_latency(to);
      if (!(l_from > l_to + nu)) {
        out[j] = 0.0;
        continue;
      }
      const double mu =
          std::clamp(lambda_over_d * (l_from - l_to) / l_from, 0.0, 1.0);
      out[j] = static_cast<double>(targets) / pool * mu;
    }
  }

  /// Provably zero when the class has nobody to sample, or — under
  /// plus-dominance — when ℓ_P(x) is within ν of the block's cheapest used
  /// strategy (imitation is class-local, so only the class support counts).
  bool row_provably_zero(const CongestionGame& game, const LatencyContext& ctx,
                         StrategyId from, const RowBounds& bounds) const {
    if (game_->player_class(game_->class_of(from)).num_players < 2) {
      return true;
    }
    if (!bounds.plus_dominates) return false;
    const double nu = params_.nu_cutoff ? game.nu() : 0.0;
    return !(ctx.strategy_latency(from) > bounds.min_support_latency + nu);
  }

  /// The class-wise per-pair oracle on the flat state; 0 across classes.
  double move_probability(const CongestionGame& /*game*/, const State& x,
                          StrategyId from, StrategyId to) const {
    const std::int32_t c = game_->class_of(from);
    if (game_->class_of(to) != c) return 0.0;
    const StrategyId begin = game_->class_offset(c);
    return asymmetric_move_probability(*game_, game_->class_state(x), params_,
                                       c, from - begin, to - begin);
  }

  std::string name() const { return "class-imitation"; }

 private:
  const AsymmetricGame* game_;
  AsymmetricImitationParams params_;
};

static_assert(ProtocolKernel<ImitationKernel>);
static_assert(ProtocolKernel<ExplorationKernel>);
static_assert(ProtocolKernel<CombinedKernel>);
static_assert(ProtocolKernel<ClassImitationKernel>);

/// Resolves a type-erased Protocol to its concrete kernel and invokes
/// `f(kernel)` — THE frontend/kernel boundary: one dynamic_cast chain per
/// run (or per standalone draw), never per round. make_protocol builds
/// only the three final classes; any other Protocol is refused with an
/// invariant_violation naming it.
template <typename F>
decltype(auto) dispatch_protocol_kernel(const Protocol& protocol, F&& f) {
  if (const auto* imitation =
          dynamic_cast<const ImitationProtocol*>(&protocol)) {
    return f(ImitationKernel(*imitation));
  }
  if (const auto* exploration =
          dynamic_cast<const ExplorationProtocol*>(&protocol)) {
    return f(ExplorationKernel(*exploration));
  }
  const auto* combined = dynamic_cast<const CombinedProtocol*>(&protocol);
  CID_ENSURE(combined != nullptr,
             "no round kernel for protocol '" + protocol.name() + "'");
  return f(CombinedKernel(*combined));
}

}  // namespace cid
