// Protocol interface consumed by the dynamics engines.
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
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "game/congestion_game.hpp"
#include "game/expost_table.hpp"
#include "game/latency_context.hpp"
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

/// Per-round state summary the aggregate engine hands to
/// Protocol::row_provably_zero so a protocol can prove a whole origin row
/// is zero without filling it. Computed once per row block per round in
/// O(block) (see compute_row_bounds in dynamics/engine.hpp).
struct RowBounds {
  /// min ℓ_Q(x) over the block's Q with x_Q > 0 (+inf when none is used).
  double min_support_latency = 0.0;
  /// min over ALL strategies of the block of ℓ_Q(x).
  double min_latency = 0.0;
  /// LatencyContext::plus_dominates(): ℓ_e(x_e+1) >= ℓ_e(x_e) everywhere,
  /// hence ℓ_Q(x+1_Q−1_P) >= ℓ_Q(x) for every pair (term-by-term float
  /// dominance; IEEE rounding is monotone). Every override must return
  /// false when this is false — the bounds prove nothing then.
  bool plus_dominates = false;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Marginal probability that a single player currently on `from` migrates
  /// to `to` (!= from) this round, given the full pre-round state.
  /// Must satisfy Σ_{to != from} move_probability(..) <= 1 for every state.
  ///
  /// This is the REFERENCE ORACLE: the batched round kernel must reproduce
  /// it bit-for-bit (tests/test_engine_oracle.cpp), and the engine's
  /// reference path still drives the dynamics through it.
  virtual double move_probability(const CongestionGame& game, const State& x,
                                  StrategyId from, StrategyId to) const = 0;

  /// Batched row fill for the round kernel: writes move_probability(from,
  /// to) for every strategy `to` into out[to] (out[from] = 0), where from =
  /// origin.from(). `out` spans exactly game.num_strategies() entries;
  /// origin.ctx() is the round's latency cache, already consistent with the
  /// pre-round state, and origin.expost_latency(to) its ex-post latencies.
  ///
  /// Contract: out[to] must be BITWISE identical to what move_probability
  /// returns — the engines feed these rows straight into the RNG samplers,
  /// so any drift would silently fork every replay/checkpoint artifact.
  /// The default implementation is the per-pair loop itself (correct for
  /// any protocol); the paper's protocols override it with cached-latency
  /// versions that never call a latency function.
  virtual void fill_move_probabilities(const CongestionGame& game,
                                       const OriginView& origin,
                                       std::span<double> out) const;

  /// Support/improvement pruning hook for the aggregate engine: return
  /// true ONLY when every entry fill_move_probabilities would write for
  /// `from` is provably 0.0 — then the engine skips the row fill AND the
  /// multinomial draw. Bitwise-safe because Rng::multinomial consumes no
  /// randomness for zero-probability categories, so skipping an all-zero
  /// row leaves the RNG stream untouched (pinned by
  /// tests/test_engine_distribution.cpp and the oracle suite).
  ///
  /// The default conservatively never prunes (correct for any protocol).
  /// Overrides must be sound, not complete: returning false for a row
  /// that happens to be zero merely costs time.
  virtual bool row_provably_zero(const CongestionGame& game,
                                 const LatencyContext& ctx, StrategyId from,
                                 const RowBounds& bounds) const;

  virtual std::string name() const = 0;
};

}  // namespace cid
