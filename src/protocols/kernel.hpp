// ProtocolKernel concept: the statically-dispatched protocol interface the
// templated round engines monomorphize over (dynamics/engine_kernel.hpp).
// It serves the symmetric protocols and, through ClassImitationKernel, the
// class-local imitation of asymmetric games run on their flat game.
//
// The virtual Protocol class is the type-erased handle the CLIs and the
// scenario registry hold, and the per-pair REFERENCE ORACLE
// (move_probability) every kernel is audited against. A ProtocolKernel
// adds the row API — `row_block`, `fill_row`, `row_provably_zero` — and is
// dispatched at compile time, so the engines' five phases call the row
// fill directly instead of paying a virtual call per origin.
//
// Layering (how a protocol reaches the hot path):
//
//   Protocol (virtual)  --dispatch_protocol_kernel-->  concrete kernel
//     ImitationProtocol   -> ImitationKernel
//     ExplorationProtocol -> ExplorationKernel
//     CombinedProtocol    -> CombinedKernel
//     anything else       -> refused (invariant_violation naming it)
//
// The three symmetric kernels share ONE row path on every game
// (fill_protocol_row, protocols/kernel.cpp), two passes over the row:
//
//   gather  out[to] = ℓ_to(x + 1_to − 1_from): on singleton games one
//           ell/ell_plus read, otherwise OriginView::expost_row;
//   select  reads l_to back from out[to] and writes the probability in
//           place — one branch-free loop per protocol, built from one
//           source for AVX-512, AVX2 and the portable baseline and picked
//           at run time (best_lane_isa(), util/rng.hpp).
//
// Their prune proofs are the final classes' row_provably_zero.
// ClassImitationKernel has no virtual Protocol: the asymmetric scenario
// families construct it directly, and its move_probability forwards to
// the class-wise oracle asymmetric_move_probability (game/asymmetric.hpp).
//
// A new protocol therefore needs a final class, a fill_protocol_row
// overload and a dispatch case. The tests-only adapter in
// tests/support/reference_round.hpp fills rows pair by pair through
// move_probability and never prunes; the suites run it beside each kernel
// to audit both the row fill and the pruning.
//
// Bitwise contract: every kernel's fill_row writes the byte-identical row
// move_probability gives per pair — so batched, vectorized and per-pair
// reference paths all consume the RNG identically and produce
// interchangeable checkpoints (tests/test_kernel_concepts.cpp audits every
// row by bit pattern on every ISA the host runs; tests/test_engine_oracle.cpp
// whole runs). The select pass keeps it by construction: the oracle's
// hoisted constants and expression order, only IEEE-exact divides,
// multiplies, subtracts, compares and selects (never multiply-by-mask,
// which would turn a discarded-lane NaN into an output), and
// -ffp-contract=off, which covers the target-attributed variants too — so
// no vector width moves a bit.
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
#include "util/rng.hpp"

namespace cid {

/// The statically-dispatched protocol interface:
///
///   * row_block(game, from) — the destination range of from's row;
///     destinations outside it have probability 0.
///   * fill_row(game, origin, out) — writes, for from = origin.from() (a
///     populated origin: the engines fill no other row) and every j,
///     out[j] = move_probability(from, block.begin + j) (0 for from
///     itself) over the block. origin.ctx() is the round's latency
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

/// One origin's row of a symmetric protocol, in two passes over `out`
/// (the file comment): the ex-post gather, then `isa`'s select pass. Every
/// entry is move_probability(from, to), 0.0 for from itself.
void fill_protocol_row(const ImitationProtocol& protocol,
                       const CongestionGame& game, const OriginView& origin,
                       std::span<double> out, LaneIsa isa);
void fill_protocol_row(const ExplorationProtocol& protocol,
                       const CongestionGame& game, const OriginView& origin,
                       std::span<double> out, LaneIsa isa);
void fill_protocol_row(const CombinedProtocol& protocol,
                       const CongestionGame& game, const OriginView& origin,
                       std::span<double> out, LaneIsa isa);

/// The kernel of a symmetric protocol: rows span every strategy, fill
/// through fill_protocol_row with the select pass of `isa` (by default the
/// widest this host runs; the row audit passes each), and prune through
/// the final class's row_provably_zero.
template <typename ProtocolT>
class SymmetricKernel {
 public:
  explicit SymmetricKernel(const ProtocolT& protocol,
                           LaneIsa isa = best_lane_isa())
      : protocol_(&protocol), isa_(isa) {
    CID_ENSURE(lane_isa_supported(isa), "row select: ISA not supported here");
  }

  RowBlock row_block(const CongestionGame& game, StrategyId /*from*/) const {
    return {0, game.num_strategies()};
  }
  void fill_row(const CongestionGame& game, const OriginView& origin,
                std::span<double> out) const {
    fill_protocol_row(*protocol_, game, origin, out, isa_);
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
  const ProtocolT* protocol_;
  LaneIsa isa_;
};

using ImitationKernel = SymmetricKernel<ImitationProtocol>;
using ExplorationKernel = SymmetricKernel<ExplorationProtocol>;
using CombinedKernel = SymmetricKernel<CombinedProtocol>;

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
