// EXPLORATION PROTOCOL (paper §6, Protocol 2).
//
// Each player samples a *strategy* uniformly at random (1/|P| each) instead
// of a player — so unused strategies remain reachable — and migrates on any
// strict improvement with probability
//
//     μ_PQ = min{ 1, λ · (|P|·ℓ_min)/(β·n) · (ℓ_P − ℓ_Q(x+1_Q−1_P))/ℓ_P }.
//
// The damping differs from imitation's 1/d because uniform sampling can
// direct an expected load increase far exceeding a resource's current load;
// β (max slope over integer loads) and ℓ_min (cheapest non-empty resource)
// bound the worst case instead. Under this protocol the dynamics converge
// to exact Nash equilibria (Theorem 15) — at the price of much slower
// convergence (bench E11/E12 quantify the gap).
#pragma once

#include <optional>

#include "game/latency_context.hpp"
#include "protocols/protocol.hpp"

namespace cid {

struct ExplorationParams {
  double lambda = 0.25;

  /// Overrides for game-derived damping ingredients (testing / ablations).
  std::optional<double> beta_override;   // max slope β
  std::optional<double> lmin_override;   // ℓ_min = min_e ℓ_e(1)
};

class ExplorationProtocol final : public Protocol {
 public:
  explicit ExplorationProtocol(ExplorationParams params = {});

  double move_probability(const CongestionGame& game, const State& x,
                          StrategyId from, StrategyId to) const override;

  /// Exploration samples ALL strategies (including empty ones), so its row
  /// is provably zero only when ℓ_P(x) <= min over every strategy of
  /// ℓ_Q(x) and plus-dominance lifts that to the ex-post latencies.
  bool row_provably_zero(const CongestionGame& game, const LatencyContext& ctx,
                         StrategyId from, const RowBounds& bounds) const;

  double acceptance_probability(const CongestionGame& game, const State& x,
                                StrategyId from, StrategyId to) const;

  std::string name() const override;

  const ExplorationParams& params() const noexcept { return params_; }

  /// The damping min{1, |P|·ℓ_min/(β·n)} of μ: state-independent, so the
  /// row fill hoists it (protocols/kernel.hpp).
  double damping(const CongestionGame& game) const;

 private:
  ExplorationParams params_;
};

}  // namespace cid
