#include "protocols/exploration.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace cid {

ExplorationProtocol::ExplorationProtocol(ExplorationParams params)
    : params_(params) {
  CID_ENSURE(params_.lambda > 0.0 && params_.lambda <= 1.0,
             "lambda must be in (0, 1]");
  if (params_.beta_override) {
    CID_ENSURE(*params_.beta_override > 0.0, "beta override must be > 0");
  }
  if (params_.lmin_override) {
    CID_ENSURE(*params_.lmin_override > 0.0, "lmin override must be > 0");
  }
}

double ExplorationProtocol::acceptance_probability(const CongestionGame& game,
                                                   const State& x,
                                                   StrategyId from,
                                                   StrategyId to) const {
  CID_ENSURE(from != to, "acceptance probability needs distinct strategies");
  const double l_from = game.strategy_latency(x, from);
  const double l_to = game.expost_latency(x, from, to);
  if (!(l_from > l_to)) return 0.0;  // any strict improvement qualifies
  const double mu = params_.lambda * damping(game) * (l_from - l_to) / l_from;
  return std::clamp(mu, 0.0, 1.0);
}

double ExplorationProtocol::damping(const CongestionGame& game) const {
  // Not value_or: it would derive β (a scan of every load up to n) even
  // when the override replaces it.
  const double beta =
      params_.beta_override ? *params_.beta_override : game.beta_slope();
  const double lmin =
      params_.lmin_override.value_or(game.min_nonempty_latency());
  const double num_strategies = static_cast<double>(game.num_strategies());
  const double n = static_cast<double>(game.num_players());
  return std::min(1.0, num_strategies * lmin / (beta * n));
}

bool ExplorationProtocol::row_provably_zero(const CongestionGame& /*game*/,
                                            const LatencyContext& ctx,
                                            StrategyId from,
                                            const RowBounds& bounds) const {
  if (!bounds.plus_dominates) return false;
  // Every destination's l_to >= ℓ_Q(x) >= min_latency, so the strict-
  // improvement test !(l_from > l_to) fails row-wide and every entry is
  // sample_prob * 0.0 == 0.0 exactly.
  return !(ctx.strategy_latency(from) > bounds.min_latency);
}

double ExplorationProtocol::move_probability(const CongestionGame& game,
                                             const State& x, StrategyId from,
                                             StrategyId to) const {
  CID_ENSURE(from != to, "move probability needs distinct strategies");
  const double sample_prob =
      1.0 / static_cast<double>(game.num_strategies());
  return sample_prob * acceptance_probability(game, x, from, to);
}

std::string ExplorationProtocol::name() const {
  std::ostringstream os;
  os << "exploration(lambda=" << params_.lambda << ")";
  return os.str();
}

}  // namespace cid
