// Solution concepts (paper §2.3 and §4, Definition 1).
//
//   * imitation-stable: no player can improve by more than ν by copying a
//     strategy that is currently in use (support-restricted ν-Nash);
//   * (δ,ε,ν)-equilibrium: at most a δ-fraction of players sit on paths
//     whose latency deviates from the (ex-post) average by more than an
//     ε-fraction plus ν;
//   * exact Nash: no player improves by any unilateral deviation over the
//     *full* strategy space.
//
// Every predicate exists in two forms: a context-free REFERENCE version
// evaluating latencies through the game (kept as the oracle), and a
// LatencyContext-backed overload reading the round kernel's caches
// (ℓ_P(x), ℓ_e(x_e), ℓ_e(x_e+1)) instead of recomputing them —
// O(Σ|P|+|Q|) array reads per pair, zero latency-function calls. The two
// forms are BITWISE identical (same expressions, same accumulation
// order; pinned by tests/test_equilibrium_cached.cpp), so run_dynamics
// can route its stop checks through the per-round cache without
// perturbing any outcome.
#pragma once

#include <cstdint>

#include "game/congestion_game.hpp"
#include "game/latency_context.hpp"
#include "game/state.hpp"

namespace cid {

/// No used pair (P, Q) admits ℓ_P(x) > ℓ_Q(x+1_Q−1_P) + ν — equivalently,
/// every imitation move probability is zero, so x(t+1) = x(t) w.p. 1.
/// Pass nu = game.nu() for the protocol's own notion; nu = 0 checks
/// support-restricted exact stability.
bool is_imitation_stable(const CongestionGame& game, const State& x,
                         double nu);

/// Cached overload: evaluates over ctx.game()/ctx.state() from the latency
/// cache. ctx must be consistent with the state (reset or refreshed).
bool is_imitation_stable(const LatencyContext& ctx, double nu);

/// Largest support-restricted unilateral improvement:
/// max_{P used, Q used} (ℓ_P(x) − ℓ_Q(x+1_Q−1_P)), 0 if none positive.
double imitation_gap(const CongestionGame& game, const State& x);

/// Cached overload of imitation_gap.
double imitation_gap(const LatencyContext& ctx);

/// Definition 1's mass bound as an exact integer test: at most a
/// δ-fraction of the n players may be unsatisfied. δ is read as N / 10^k,
/// the shortest decimal that reads back to the double (the spelling
/// format_stop prints: 0.3 is 3/10), and the test is unsat·10^k ≤ N·n in
/// 128-bit integers — no rounding, no tolerance. Built once per run by the
/// stop predicate; implicit from δ, so call sites pass the double they
/// always did.
class DeltaThreshold {
 public:
  DeltaThreshold(double delta);

  /// Whether `unsatisfied` of `players` players satisfy the δ bound.
  bool holds(std::int64_t unsatisfied, std::int64_t players) const;

 private:
  std::uint64_t numerator_ = 0;  // N < 10^17
  int scale_ = 0;                // k >= 0, since δ <= 1
};

/// Definition 1 evaluation. Players on P⁺_{ε,ν} / P⁻_{ε,ν} are counted as
/// integers; at_equilibrium iff their sum passes the DeltaThreshold. The
/// masses are derived reports (count / n).
struct ApproxEqReport {
  double average_latency = 0.0;       // L_av(x)
  double plus_average_latency = 0.0;  // L⁺_av(x)
  std::int64_t unsatisfied_players = 0;  // Σ_{P∈P⁺∪P⁻} x_P
  double expensive_mass = 0.0;        // Σ_{P∈P⁺} x_P / n
  double cheap_mass = 0.0;            // Σ_{P∈P⁻} x_P / n
  double unsatisfied_mass = 0.0;      // expensive + cheap
  bool at_equilibrium = false;
};

ApproxEqReport check_delta_eps_nu(const CongestionGame& game, const State& x,
                                  const DeltaThreshold& delta, double eps,
                                  double nu);

/// Cached overload: L_av/L⁺_av and every per-strategy latency come from
/// the cache (ℓ⁺_P is the ell_plus table summed in plus_latency order).
ApproxEqReport check_delta_eps_nu(const LatencyContext& ctx,
                                  const DeltaThreshold& delta, double eps,
                                  double nu);

/// Convenience wrapper using the game's own ν.
bool is_delta_eps_equilibrium(const CongestionGame& game, const State& x,
                              const DeltaThreshold& delta, double eps);

/// Cached overload of is_delta_eps_equilibrium.
bool is_delta_eps_equilibrium(const LatencyContext& ctx,
                              const DeltaThreshold& delta, double eps);

/// Exact Nash: for every used P and *every* Q in the strategy space,
/// ℓ_P(x) <= ℓ_Q(x+1_Q−1_P).
bool is_nash(const CongestionGame& game, const State& x);

/// Cached overload of is_nash.
bool is_nash(const LatencyContext& ctx);

/// Largest unilateral improvement over the full strategy space
/// (0 at a Nash equilibrium). This is the ε of ε-Nash.
double nash_gap(const CongestionGame& game, const State& x);

/// Cached overload of nash_gap.
double nash_gap(const LatencyContext& ctx);

}  // namespace cid
