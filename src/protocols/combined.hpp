// Combined protocol (paper §6, final paragraph).
//
// Each round every player flips an independent coin: with probability
// p_explore it runs the EXPLORATION PROTOCOL, otherwise the IMITATION
// PROTOCOL. The paper's recommendation is p_explore = 1/2: the dynamics
// then both converge to a Nash equilibrium in the long run *and* reach
// (δ,ε,ν)-equilibria within a factor 2 of Theorem 7's bound.
#pragma once

#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"

namespace cid {

class CombinedProtocol final : public Protocol {
 public:
  CombinedProtocol(ImitationParams imitation, ExplorationParams exploration,
                   double p_explore = 0.5);

  double move_probability(const CongestionGame& game, const State& x,
                          StrategyId from, StrategyId to) const override;

  /// A combined row entry is p·explore + (1−p)·imitate; it is provably
  /// zero exactly when both sub-rows are (0.0·anything + anything·0.0
  /// stays 0.0 for the finite sub-probabilities involved).
  bool row_provably_zero(const CongestionGame& game, const LatencyContext& ctx,
                         StrategyId from, const RowBounds& bounds) const;

  std::string name() const override;

  double p_explore() const noexcept { return p_explore_; }
  const ImitationProtocol& imitation() const noexcept { return imitation_; }
  const ExplorationProtocol& exploration() const noexcept {
    return exploration_;
  }

 private:
  ImitationProtocol imitation_;
  ExplorationProtocol exploration_;
  double p_explore_;
};

}  // namespace cid
