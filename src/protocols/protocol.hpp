// Protocol: the per-pair law every dynamics engine reproduces.
//
// Both of the paper's protocols are two-stage (sample a target, then accept
// with a gain-dependent probability), executed independently by every player
// in parallel. For simulation, only the *marginal* per-player law matters:
//
//   p_PQ(x) = P[a fixed player on P ends the round on Q | state x],
//
// which is what move_probability returns. The per-player engine draws each
// player's destination from this categorical directly (exactly the protocol
// law, with the two sampling stages marginalized out); the aggregate engine
// draws the whole origin-strategy cohort as one multinomial — identical
// joint law, since players act independently given x.
//
// The virtual class is the oracle only. The engines' prune proofs are
// plain members of the three final classes (imitation.hpp,
// exploration.hpp, combined.hpp); their rows are filled by the kernels
// (protocols/kernel.hpp) from the classes' parameters. Both must match
// move_probability bit for bit.
#pragma once

#include <cstddef>
#include <string>

#include "game/congestion_game.hpp"
#include "game/state.hpp"

namespace cid {

/// The destination range [begin, end) one origin's row spans: [0, k) for
/// a symmetric protocol, the origin's class block for class-local
/// imitation (ClassImitationKernel in protocols/kernel.hpp). Rows are
/// filled, drawn and emitted over their block only.
struct RowBlock {
  StrategyId begin = 0;
  StrategyId end = 0;

  std::size_t size() const noexcept {
    return static_cast<std::size_t>(end - begin);
  }
  friend bool operator==(const RowBlock&, const RowBlock&) = default;
};

/// Per-round state summary the aggregate engine hands to a kernel's
/// row_provably_zero so a protocol can prove a whole origin row is zero
/// without filling it. Computed once per row block per round in
/// O(block) (see compute_row_bounds in dynamics/engine.hpp).
struct RowBounds {
  /// min ℓ_Q(x) over the block's Q with x_Q > 0 (+inf when none is used).
  double min_support_latency = 0.0;
  /// min over ALL strategies of the block of ℓ_Q(x).
  double min_latency = 0.0;
  /// LatencyContext::plus_dominates(): ℓ_e(x_e+1) >= ℓ_e(x_e) everywhere,
  /// hence ℓ_Q(x+1_Q−1_P) >= ℓ_Q(x) for every pair (term-by-term float
  /// dominance; IEEE rounding is monotone). Every row_provably_zero must
  /// return false when this is false — the bounds prove nothing then.
  bool plus_dominates = false;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Marginal probability that a single player currently on `from` migrates
  /// to `to` (!= from) this round, given the full pre-round state.
  /// Must satisfy Σ_{to != from} move_probability(..) <= 1 for every state.
  ///
  /// This is the REFERENCE ORACLE: every kernel's row fill must reproduce
  /// it bit for bit (tests/test_engine_oracle.cpp), and the tests-only
  /// per-pair reference engine (tests/support/reference_round.hpp) drives
  /// whole runs through it.
  virtual double move_probability(const CongestionGame& game, const State& x,
                                  StrategyId from, StrategyId to) const = 0;

  virtual std::string name() const = 0;
};

}  // namespace cid
