#include "game/singleton.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace cid {

namespace {

/// Extracts `a` from ℓ(x) = a·x; throws for any other shape.
double linear_coefficient(const LatencyFunction& fn) {
  switch (fn.kind()) {
    case LatencyFunction::Kind::kMonomial:
      CID_ENSURE(fn.degree() == 1.0, "latency is not linear: " +
                                         fn.describe());
      return fn.coefficient();
    case LatencyFunction::Kind::kPolynomial: {
      const auto& c = fn.coefficients();
      CID_ENSURE(c.size() == 2 && c[0] == 0.0 && c[1] > 0.0,
                 "latency is not of the form a*x: " + fn.describe());
      return c[1];
    }
    case LatencyFunction::Kind::kConstant:
    case LatencyFunction::Kind::kExponential:
    case LatencyFunction::Kind::kScaled:
      break;
  }
  CID_ENSURE(false, "latency is not linear: " + fn.describe());
  return 0.0;  // unreachable
}

}  // namespace

LinearSingletonAnalysis analyze_linear_singleton(const CongestionGame& game) {
  CID_ENSURE(game.is_singleton(),
             "linear singleton analysis requires a singleton game");
  LinearSingletonAnalysis out;
  const auto m = static_cast<std::size_t>(game.num_resources());
  out.coefficients.resize(m);
  for (Resource e = 0; e < game.num_resources(); ++e) {
    out.coefficients[static_cast<std::size_t>(e)] =
        linear_coefficient(game.latency(e));
  }
  out.a_gamma = 0.0;
  for (double a : out.coefficients) out.a_gamma += 1.0 / a;
  const auto n = static_cast<double>(game.num_players());
  out.fractional_cost = n / out.a_gamma;
  out.fractional_opt.resize(m);
  out.useless.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    out.fractional_opt[e] = n / (out.a_gamma * out.coefficients[e]);
    out.useless[e] = out.fractional_opt[e] < 1.0;
    out.any_useless = out.any_useless || out.useless[e];
  }
  return out;
}

double social_cost(const CongestionGame& game, const State& x) {
  return game.average_latency(x);
}

double makespan(const CongestionGame& game, const State& x) {
  double worst = 0.0;
  for (StrategyId p : x.support()) {
    worst = std::max(worst, game.strategy_latency(x, p));
  }
  return worst;
}

bool any_resource_extinct(const State& before, const State& after) {
  const auto b = before.congestions();
  const auto a = after.congestions();
  CID_ENSURE(a.size() == b.size(), "states from different games");
  for (std::size_t e = 0; e < b.size(); ++e) {
    if (b[e] > 0 && a[e] == 0) return true;
  }
  return false;
}

}  // namespace cid
