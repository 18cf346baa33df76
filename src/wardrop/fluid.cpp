#include "wardrop/fluid.hpp"

#include <algorithm>
#include <cmath>

#include "game/state.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace cid {

FluidState::FluidState(const CongestionGame& game, std::vector<double> mass)
    : mass_(std::move(mass)) {
  CID_ENSURE(static_cast<std::int32_t>(mass_.size()) ==
                 game.num_strategies(),
             "mass vector size must match strategy count");
  double total = 0.0;
  for (double m : mass_) {
    CID_ENSURE(m >= -1e-9, "negative strategy mass");
    total += m;
  }
  CID_ENSURE(std::abs(total - static_cast<double>(game.num_players())) <
                 1e-6 * (1.0 + static_cast<double>(game.num_players())),
             "mass must sum to the player count");
  congestion_.assign(static_cast<std::size_t>(game.num_resources()), 0.0);
  for (std::size_t p = 0; p < mass_.size(); ++p) {
    if (mass_[p] == 0.0) continue;
    for (Resource e : game.strategy(static_cast<StrategyId>(p))) {
      congestion_[static_cast<std::size_t>(e)] += mass_[p];
    }
  }
}

FluidState FluidState::from_state(const CongestionGame& game,
                                  const State& x) {
  std::vector<double> mass(static_cast<std::size_t>(game.num_strategies()));
  for (std::size_t p = 0; p < mass.size(); ++p) {
    mass[p] = static_cast<double>(x.count(static_cast<StrategyId>(p)));
  }
  return FluidState(game, std::move(mass));
}

FluidState FluidState::spread_evenly(const CongestionGame& game) {
  const auto k = static_cast<double>(game.num_strategies());
  std::vector<double> mass(static_cast<std::size_t>(game.num_strategies()),
                           static_cast<double>(game.num_players()) / k);
  return FluidState(game, std::move(mass));
}

double FluidState::mass(StrategyId p) const {
  CID_ENSURE(p >= 0 && static_cast<std::size_t>(p) < mass_.size(),
             "strategy out of range");
  return mass_[static_cast<std::size_t>(p)];
}

double FluidState::congestion(Resource e) const {
  CID_ENSURE(e >= 0 && static_cast<std::size_t>(e) < congestion_.size(),
             "resource out of range");
  return congestion_[static_cast<std::size_t>(e)];
}

std::vector<StrategyId> FluidState::support(double threshold) const {
  std::vector<StrategyId> used;
  for (std::size_t p = 0; p < mass_.size(); ++p) {
    if (mass_[p] > threshold) used.push_back(static_cast<StrategyId>(p));
  }
  return used;
}

double fluid_strategy_latency(const CongestionGame& game, const FluidState& x,
                              StrategyId p) {
  double acc = 0.0;
  for (Resource e : game.strategy(p)) {
    acc += game.latency(e).value(x.congestion(e));
  }
  return acc;
}

double fluid_expost_latency(const CongestionGame& game, const FluidState& x,
                            StrategyId from, StrategyId to) {
  if (from == to) return fluid_strategy_latency(game, x, to);
  const Strategy& p = game.strategy(from);
  const Strategy& q = game.strategy(to);
  double acc = 0.0;
  std::size_t i = 0;
  for (Resource e : q) {
    while (i < p.size() && p[i] < e) ++i;
    const bool shared = i < p.size() && p[i] == e;
    acc += game.latency(e).value(x.congestion(e) + (shared ? 0.0 : 1.0));
  }
  return acc;
}

double fluid_move_probability(const CongestionGame& game, const FluidState& x,
                              const ImitationParams& params, StrategyId from,
                              StrategyId to) {
  CID_ENSURE(from != to, "move probability needs distinct strategies");
  const double targets = x.mass(to);
  if (targets <= 0.0) return 0.0;
  const double l_from = fluid_strategy_latency(game, x, from);
  const double l_to = fluid_expost_latency(game, x, from, to);
  const double nu =
      params.nu_cutoff ? params.nu_override.value_or(game.nu()) : 0.0;
  if (!(l_from > l_to + nu)) return 0.0;
  const double d = params.damping
                       ? params.elasticity_override.value_or(game.elasticity())
                       : 1.0;
  const double mu =
      std::clamp(params.lambda / d * (l_from - l_to) / l_from, 0.0, 1.0);
  return targets / static_cast<double>(game.num_players()) * mu;
}

FluidState fluid_round(const CongestionGame& game, const FluidState& x,
                       const ImitationParams& params) {
  FluidState next = x;
  const auto support = x.support();
  for (StrategyId from : support) {
    double stay = 1.0;
    for (StrategyId to = 0; to < game.num_strategies(); ++to) {
      if (to == from) continue;
      const double p = fluid_move_probability(game, x, params, from, to);
      if (p <= 0.0) continue;
      const double flow = x.mass(from) * p;
      next.mass_[static_cast<std::size_t>(to)] += flow;
      stay -= p;
      for (Resource e : game.strategy(to)) {
        next.congestion_[static_cast<std::size_t>(e)] += flow;
      }
    }
    CID_ENSURE(stay >= -1e-9, "fluid outflow exceeds unit probability");
    const double out = x.mass(from) * (1.0 - stay);
    next.mass_[static_cast<std::size_t>(from)] -= out;
    for (Resource e : game.strategy(from)) {
      next.congestion_[static_cast<std::size_t>(e)] -= out;
    }
  }
  return next;
}

double fluid_potential(const CongestionGame& game, const FluidState& x) {
  // 8-point Gauss-Legendre nodes/weights on [-1, 1] (exact to degree 15).
  static constexpr double kNodes[8] = {
      -0.9602898564975363, -0.7966664774136267, -0.5255324099163290,
      -0.1834346424956498, 0.1834346424956498,  0.5255324099163290,
      0.7966664774136267,  0.9602898564975363};
  static constexpr double kWeights[8] = {
      0.1012285362903763, 0.2223810344533745, 0.3137066458778873,
      0.3626837833783620, 0.3626837833783620, 0.3137066458778873,
      0.2223810344533745, 0.1012285362903763};
  NeumaierSum acc;
  for (Resource e = 0; e < game.num_resources(); ++e) {
    const double upper = x.congestion(e);
    if (upper <= 0.0) continue;
    const double half = upper / 2.0;
    double integral = 0.0;
    for (int i = 0; i < 8; ++i) {
      integral += kWeights[i] * game.latency(e).value(half * (kNodes[i] + 1));
    }
    acc.add(integral * half);
  }
  return acc.value();
}

double fluid_average_latency(const CongestionGame& game,
                             const FluidState& x) {
  double acc = 0.0;
  for (StrategyId p : x.support()) {
    acc += x.mass(p) * fluid_strategy_latency(game, x, p);
  }
  return acc / static_cast<double>(game.num_players());
}

bool fluid_is_delta_eps_nu(const CongestionGame& game, const FluidState& x,
                           double delta, double eps, double nu) {
  CID_ENSURE(delta >= 0.0 && delta <= 1.0, "delta must be in [0, 1]");
  CID_ENSURE(eps >= 0.0, "eps must be >= 0");
  CID_ENSURE(nu >= 0.0, "nu must be >= 0");
  const double lav = fluid_average_latency(game, x);
  double lav_plus = 0.0;
  for (StrategyId p : x.support()) {
    double plus = 0.0;
    for (Resource e : game.strategy(p)) {
      plus += game.latency(e).value(x.congestion(e) + 1.0);
    }
    lav_plus += x.mass(p) * plus;
  }
  lav_plus /= static_cast<double>(game.num_players());
  const double upper = (1.0 + eps) * lav_plus + nu;
  const double lower = (1.0 - eps) * lav - nu;
  double unsat = 0.0;
  for (StrategyId p : x.support()) {
    const double lp = fluid_strategy_latency(game, x, p);
    if (lp > upper || lp < lower) unsat += x.mass(p);
  }
  return unsat / static_cast<double>(game.num_players()) <= delta + 1e-12;
}

double fluid_state_distance(const CongestionGame& game, const FluidState& f,
                            const State& s) {
  double worst = 0.0;
  for (Resource e = 0; e < game.num_resources(); ++e) {
    worst = std::max(worst,
                     std::abs(f.congestion(e) -
                              static_cast<double>(s.congestion(e))));
  }
  return worst / static_cast<double>(game.num_players());
}

}  // namespace cid
