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

void CombinedProtocol::fill_move_probabilities(const CongestionGame& game,
                                               const OriginView& origin,
                                               std::span<double> out) const {
  CID_DCHECK(out.size() == static_cast<std::size_t>(game.num_strategies()),
             "probability row must span every strategy");
  const State& x = origin.ctx().state();
  const StrategyId from = origin.from();
  const auto k = static_cast<std::size_t>(game.num_strategies());
  const double l_from = origin.ctx().strategy_latency(from);
  for (std::size_t to = 0; to < k; ++to) {
    const auto to_id = static_cast<StrategyId>(to);
    if (to_id == from) {
      out[to] = 0.0;
      continue;
    }
    const double l_to = origin.expost_latency(to_id);
    // Same convex combination, same order, as move_probability.
    out[to] = p_explore_ * exploration_.move_probability_cached(
                               game, from, to_id, l_from, l_to) +
              (1.0 - p_explore_) * imitation_.move_probability_cached(
                                       game, x, from, to_id, l_from, l_to);
  }
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
