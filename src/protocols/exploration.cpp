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
  const double beta = params_.beta_override.value_or(game.beta_slope());
  const double lmin =
      params_.lmin_override.value_or(game.min_nonempty_latency());
  const double num_strategies = static_cast<double>(game.num_strategies());
  const double n = static_cast<double>(game.num_players());
  const double damping = std::min(1.0, num_strategies * lmin / (beta * n));
  const double mu = params_.lambda * damping * (l_from - l_to) / l_from;
  return std::clamp(mu, 0.0, 1.0);
}

double ExplorationProtocol::move_probability_cached(const CongestionGame& game,
                                                    StrategyId from,
                                                    StrategyId to,
                                                    double l_from,
                                                    double l_to) const {
  CID_DCHECK(from != to, "move probability needs distinct strategies");
  // Term-for-term mirror of move_probability/acceptance_probability with
  // the latencies supplied from the round cache.
  const double sample_prob =
      1.0 / static_cast<double>(game.num_strategies());
  if (!(l_from > l_to)) return sample_prob * 0.0;
  const double beta = params_.beta_override.value_or(game.beta_slope());
  const double lmin =
      params_.lmin_override.value_or(game.min_nonempty_latency());
  const double num_strategies = static_cast<double>(game.num_strategies());
  const double n = static_cast<double>(game.num_players());
  const double damping = std::min(1.0, num_strategies * lmin / (beta * n));
  const double mu = params_.lambda * damping * (l_from - l_to) / l_from;
  return sample_prob * std::clamp(mu, 0.0, 1.0);
}

void ExplorationProtocol::fill_move_probabilities(const CongestionGame& game,
                                                  const OriginView& origin,
                                                  std::span<double> out) const {
  CID_DCHECK(out.size() == static_cast<std::size_t>(game.num_strategies()),
             "probability row must span every strategy");
  const StrategyId from = origin.from();
  const auto k = static_cast<std::size_t>(game.num_strategies());
  const double sample_prob =
      1.0 / static_cast<double>(game.num_strategies());
  const double l_from = origin.ctx().strategy_latency(from);
  // Row constants: β, ℓ_min, and the damping are state-independent, and
  // λ·damping of the same doubles is the same double every iteration.
  const double beta = params_.beta_override.value_or(game.beta_slope());
  const double lmin =
      params_.lmin_override.value_or(game.min_nonempty_latency());
  const double num_strategies = static_cast<double>(game.num_strategies());
  const double n = static_cast<double>(game.num_players());
  const double damping = std::min(1.0, num_strategies * lmin / (beta * n));
  const double lambda_damping = params_.lambda * damping;
  for (std::size_t to = 0; to < k; ++to) {
    if (static_cast<StrategyId>(to) == from) {
      out[to] = 0.0;
      continue;
    }
    const double l_to = origin.expost_latency(static_cast<StrategyId>(to));
    if (!(l_from > l_to)) {
      out[to] = sample_prob * 0.0;
      continue;
    }
    const double mu = lambda_damping * (l_from - l_to) / l_from;
    out[to] = sample_prob * std::clamp(mu, 0.0, 1.0);
  }
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
