#include "protocols/combined.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace cid {

CombinedProtocol::CombinedProtocol(ImitationParams imitation,
                                   ExplorationParams exploration,
                                   double p_explore)
    : imitation_(imitation),
      exploration_(exploration),
      p_explore_(p_explore) {
  CID_ENSURE(p_explore_ >= 0.0 && p_explore_ <= 1.0,
             "p_explore must be in [0, 1]");
}

double CombinedProtocol::move_probability(const CongestionGame& game,
                                          const State& x, StrategyId from,
                                          StrategyId to) const {
  // The coin flip happens before either sub-protocol's sampling stage, so
  // the marginal law is the convex combination of the two marginals.
  return p_explore_ * exploration_.move_probability(game, x, from, to) +
         (1.0 - p_explore_) * imitation_.move_probability(game, x, from, to);
}

bool CombinedProtocol::row_provably_zero(const CongestionGame& game,
                                         const LatencyContext& ctx,
                                         StrategyId from,
                                         const RowBounds& bounds) const {
  return imitation_.row_provably_zero(game, ctx, from, bounds) &&
         exploration_.row_provably_zero(game, ctx, from, bounds);
}

std::string CombinedProtocol::name() const {
  std::ostringstream os;
  os << "combined(p_explore=" << p_explore_ << ", " << imitation_.name()
     << ", " << exploration_.name() << ")";
  return os.str();
}

}  // namespace cid
