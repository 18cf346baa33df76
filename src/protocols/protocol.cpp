#include "protocols/protocol.hpp"

#include "util/assert.hpp"

namespace cid {

void Protocol::fill_move_probabilities(const CongestionGame& game,
                                       const OriginView& origin,
                                       std::span<double> out) const {
  CID_DCHECK(out.size() == static_cast<std::size_t>(game.num_strategies()),
             "probability row must span every strategy");
  const State& x = origin.ctx().state();
  const StrategyId from = origin.from();
  const auto k = game.num_strategies();
  for (StrategyId to = 0; to < k; ++to) {
    out[static_cast<std::size_t>(to)] =
        to == from ? 0.0 : move_probability(game, x, from, to);
  }
}

bool Protocol::row_provably_zero(const CongestionGame& /*game*/,
                                 const LatencyContext& /*ctx*/,
                                 StrategyId /*from*/,
                                 const RowBounds& /*bounds*/) const {
  return false;
}

}  // namespace cid
