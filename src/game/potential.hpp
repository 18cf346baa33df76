// Rosenthal potential machinery (paper §3.1, Lemma 1 / Figure 1).
//
// Besides Φ itself (a CongestionGame method), this header provides the
// decomposition the paper's convergence proof rests on:
//
//   ΔΦ(x, Δx)  ≤  Σ_{P,Q} V_PQ(x, Δx)  +  Σ_e F_e(x, Δx)      (Lemma 1)
//
// where V_PQ is the "virtual potential gain" (each mover priced as if it
// moved alone) and F_e the concurrency error term (the shaded area in the
// paper's Figure 1). All three quantities are exposed so tests can verify
// the inequality on arbitrary migration vectors and benches can report how
// much slack concurrency actually costs.
//
// PotentialTracker maintains Φ incrementally across rounds in O(|Δx_e|)
// per changed resource, with an exact-resync escape hatch for long runs.
#pragma once

#include <cstdint>
#include <span>

#include "game/congestion_game.hpp"
#include "game/state.hpp"
#include "util/stats.hpp"

namespace cid {

/// Σ_{P,Q} V_PQ(x,Δx) = Σ moves count·(ℓ_Q(x+1_Q−1_P) − ℓ_P(x)),
/// all terms evaluated at the pre-round state x.
double virtual_potential_gain(const CongestionGame& game, const State& x,
                              std::span<const Migration> moves);

/// Σ_e F_e(x,Δx) per Lemma 1's definition (0 where Δx_e = 0).
double concurrency_error_term(const CongestionGame& game, const State& x,
                              std::span<const Migration> moves);

/// Exact ΔΦ = Φ(x+Δx) − Φ(x), computed from the per-resource load deltas
/// without materializing the successor state. O(Σ_e |Δx_e|).
double potential_gain(const CongestionGame& game, const State& x,
                      std::span<const Migration> moves);

/// Incremental Φ tracker. Usage: construct from a state, then mirror every
/// State::apply with an identical apply() here.
class PotentialTracker {
 public:
  PotentialTracker(const CongestionGame& game, const State& x);

  double value() const noexcept { return phi_.value(); }

  /// Accumulates ΔΦ for the same migration batch applied to the state.
  /// Call BEFORE State::apply (the gain is computed relative to x).
  void apply(const CongestionGame& game, const State& x,
             std::span<const Migration> moves);

  /// Recomputes Φ exactly from the state (floating-point drift control).
  void resync(const CongestionGame& game, const State& x);

 private:
  NeumaierSum phi_;  // Φ at the last resync plus every ΔΦ since
};

}  // namespace cid
