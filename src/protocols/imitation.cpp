#include "protocols/imitation.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace cid {

ImitationProtocol::ImitationProtocol(ImitationParams params)
    : params_(params) {
  CID_ENSURE(params_.lambda > 0.0 && params_.lambda <= 1.0,
             "lambda must be in (0, 1]");
  if (params_.nu_override) {
    CID_ENSURE(*params_.nu_override >= 0.0, "nu override must be >= 0");
  }
  if (params_.elasticity_override) {
    CID_ENSURE(*params_.elasticity_override >= 1.0,
               "elasticity override must be >= 1");
  }
  CID_ENSURE(params_.virtual_agents >= 0,
             "virtual agent count must be >= 0");
}

double ImitationProtocol::effective_nu(const CongestionGame& game) const {
  if (!params_.nu_cutoff) return 0.0;
  return params_.nu_override.value_or(game.nu());
}

double ImitationProtocol::effective_d(const CongestionGame& game) const {
  if (!params_.damping) return 1.0;
  return params_.elasticity_override.value_or(game.elasticity());
}

std::int64_t ImitationProtocol::sampling_pool(
    const CongestionGame& game) const {
  return game.num_players() + params_.virtual_agents * game.num_strategies() -
         (params_.convention == SamplingConvention::kExcludeSelf ? 1 : 0);
}

double ImitationProtocol::acceptance_probability(const CongestionGame& game,
                                                 const State& x,
                                                 StrategyId from,
                                                 StrategyId to) const {
  CID_ENSURE(from != to, "acceptance probability needs distinct strategies");
  const double l_from = game.strategy_latency(x, from);
  const double l_to = game.expost_latency(x, from, to);
  // Gain test: strict improvement by more than ν. With nu_cutoff disabled
  // this degenerates to strict improvement (Theorem 9 regime).
  if (!(l_from > l_to + effective_nu(game))) return 0.0;
  const double mu =
      (params_.lambda / effective_d(game)) * (l_from - l_to) / l_from;
  // μ < λ/d ≤ 1 whenever ℓ_Q(..) > 0, which holds for positive-latency
  // games; clamp defensively for degenerate user-supplied functions.
  return std::clamp(mu, 0.0, 1.0);
}

bool ImitationProtocol::row_provably_zero(const CongestionGame& game,
                                          const LatencyContext& ctx,
                                          StrategyId from,
                                          const RowBounds& bounds) const {
  if (!bounds.plus_dominates) return false;
  // Every populated destination Q has l_to >= ℓ_Q(x) >= floor (bitwise:
  // the ex-post sum adds per-resource values >= the ℓ_Q(x) terms in the
  // same order, and IEEE rounding is monotone, so float summation
  // preserves the dominance; adding the same nu keeps it). Then
  // ℓ_P <= floor + ν implies the gain test !(l_from > l_to + nu) fails for
  // every destination — exactly the mask the row fill's select applies.
  const double floor = params_.virtual_agents > 0 ? bounds.min_latency
                                                  : bounds.min_support_latency;
  return !(ctx.strategy_latency(from) > floor + effective_nu(game));
}

double ImitationProtocol::move_probability(const CongestionGame& game,
                                           const State& x, StrategyId from,
                                           StrategyId to) const {
  CID_ENSURE(from != to, "move probability needs distinct strategies");
  const std::int64_t v = params_.virtual_agents;
  const std::int64_t targets = x.count(to) + v;
  if (targets == 0) return 0.0;  // imitation cannot discover unused paths
  const double sample_prob = static_cast<double>(targets) /
                             static_cast<double>(sampling_pool(game));
  if (sample_prob == 0.0) return 0.0;
  return sample_prob * acceptance_probability(game, x, from, to);
}

std::string ImitationProtocol::name() const {
  std::ostringstream os;
  os << "imitation(lambda=" << params_.lambda;
  if (!params_.damping) os << ", no-damping";
  if (!params_.nu_cutoff) os << ", no-nu";
  if (params_.virtual_agents > 0) {
    os << ", virtual=" << params_.virtual_agents;
  }
  os << ")";
  return os.str();
}

}  // namespace cid
