#include "dynamics/equilibrium.hpp"

#include <algorithm>
#include <charconv>
#include <span>
#include <system_error>

#include "util/assert.hpp"

namespace cid {

bool is_imitation_stable(const CongestionGame& game, const State& x,
                         double nu) {
  CID_ENSURE(nu >= 0.0, "nu must be >= 0");
  const auto support = x.support();
  for (StrategyId p : support) {
    const double lp = game.strategy_latency(x, p);
    for (StrategyId q : support) {
      if (q == p) continue;
      if (lp > game.expost_latency(x, p, q) + nu) return false;
    }
  }
  return true;
}

double imitation_gap(const CongestionGame& game, const State& x) {
  const auto support = x.support();
  double gap = 0.0;
  for (StrategyId p : support) {
    const double lp = game.strategy_latency(x, p);
    for (StrategyId q : support) {
      if (q == p) continue;
      gap = std::max(gap, lp - game.expost_latency(x, p, q));
    }
  }
  return gap;
}

namespace {

/// The cached predicates run every check_interval inside the engine's
/// allocation-free loop, so they iterate the counts span directly instead
/// of materializing a support vector — same ascending order, bitwise-
/// identical verdicts.
inline bool used(std::span<const std::int64_t> counts, StrategyId p) {
  return counts[static_cast<std::size_t>(p)] > 0;
}

}  // namespace

bool is_imitation_stable(const LatencyContext& ctx, double nu,
                         ExpostTable& scratch) {
  CID_ENSURE(nu >= 0.0, "nu must be >= 0");
  CID_ENSURE(ctx.ready(), "cached predicate needs a reset context");
  const std::span<const std::int64_t> counts = ctx.state().counts();
  const auto k = ctx.game().num_strategies();
  scratch.sync(ctx);
  for (StrategyId p = 0; p < k; ++p) {
    if (!used(counts, p)) continue;
    const double lp = ctx.strategy_latency(p);
    const OriginView origin(scratch, p);
    for (StrategyId q = 0; q < k; ++q) {
      if (q == p || !used(counts, q)) continue;
      if (lp > origin.expost_latency(q) + nu) return false;
    }
  }
  return true;
}

double imitation_gap(const LatencyContext& ctx, ExpostTable& scratch) {
  CID_ENSURE(ctx.ready(), "cached predicate needs a reset context");
  const std::span<const std::int64_t> counts = ctx.state().counts();
  const auto k = ctx.game().num_strategies();
  scratch.sync(ctx);
  double gap = 0.0;
  for (StrategyId p = 0; p < k; ++p) {
    if (!used(counts, p)) continue;
    const double lp = ctx.strategy_latency(p);
    const OriginView origin(scratch, p);
    for (StrategyId q = 0; q < k; ++q) {
      if (q == p || !used(counts, q)) continue;
      gap = std::max(gap, lp - origin.expost_latency(q));
    }
  }
  return gap;
}

DeltaThreshold::DeltaThreshold(double delta) {
  CID_ENSURE(delta >= 0.0 && delta <= 1.0, "delta must be in [0, 1]");
  // Shortest round-trip digits in scientific form: "d.ddde-XX" is
  // N·10^(−XX − (digits − 1)).
  char text[32];
  const auto [end, ec] = std::to_chars(text, text + sizeof text, delta,
                                       std::chars_format::scientific);
  CID_ENSURE(ec == std::errc(), "delta does not format");
  const char* p = text;
  int digits = 0;
  for (; p != end && *p != 'e'; ++p) {
    if (*p == '.') continue;
    numerator_ = numerator_ * 10 + static_cast<std::uint64_t>(*p - '0');
    ++digits;
  }
  int exponent = 0;
  std::from_chars(p + 1 + (p[1] == '+' ? 1 : 0), end, exponent);
  scale_ = digits - 1 - exponent;
}

bool DeltaThreshold::holds(std::int64_t unsatisfied,
                           std::int64_t players) const {
  // -Wpedantic rejects the bare __int128 keyword; the typedef is fine.
  __extension__ typedef unsigned __int128 u128;
  // N·n < 10^17·2^63 < 10^37, so past 10^37 the bound is 0 players.
  if (scale_ > 37) return unsatisfied <= 0;
  u128 denominator = 1;
  for (int i = 0; i < scale_; ++i) denominator *= 10;
  const u128 bound =
      static_cast<u128>(numerator_) * static_cast<u128>(players) /
      denominator;
  return static_cast<u128>(unsatisfied) <= bound;
}

namespace {

/// Counts the players on P⁺ (latency above `upper`) and P⁻ (below
/// `lower`) over the used strategies, then derives the report fields.
template <typename LatencyOf>
void count_unsatisfied(ApproxEqReport& report,
                       std::span<const std::int64_t> counts,
                       std::int64_t players, const DeltaThreshold& delta,
                       double upper, double lower, LatencyOf latency_of) {
  std::int64_t expensive = 0;
  std::int64_t cheap = 0;
  for (std::size_t p = 0; p < counts.size(); ++p) {
    if (counts[p] <= 0) continue;
    const double lp = latency_of(static_cast<StrategyId>(p));
    if (lp > upper) {
      expensive += counts[p];
    } else if (lp < lower) {
      cheap += counts[p];
    }
  }
  const auto n = static_cast<double>(players);
  report.unsatisfied_players = expensive + cheap;
  report.expensive_mass = static_cast<double>(expensive) / n;
  report.cheap_mass = static_cast<double>(cheap) / n;
  report.unsatisfied_mass = static_cast<double>(expensive + cheap) / n;
  report.at_equilibrium = delta.holds(expensive + cheap, players);
}

}  // namespace

ApproxEqReport check_delta_eps_nu(const CongestionGame& game, const State& x,
                                  const DeltaThreshold& delta, double eps,
                                  double nu) {
  CID_ENSURE(eps >= 0.0, "eps must be >= 0");
  CID_ENSURE(nu >= 0.0, "nu must be >= 0");
  ApproxEqReport report;
  report.average_latency = game.average_latency(x);
  report.plus_average_latency = game.plus_average_latency(x);
  const double upper = (1.0 + eps) * report.plus_average_latency + nu;
  const double lower = (1.0 - eps) * report.average_latency - nu;
  count_unsatisfied(report, x.counts(), game.num_players(), delta, upper,
                    lower, [&](StrategyId p) {
                      return game.strategy_latency(x, p);
                    });
  return report;
}

ApproxEqReport check_delta_eps_nu(const LatencyContext& ctx,
                                  const DeltaThreshold& delta, double eps,
                                  double nu) {
  CID_ENSURE(eps >= 0.0, "eps must be >= 0");
  CID_ENSURE(nu >= 0.0, "nu must be >= 0");
  CID_ENSURE(ctx.ready(), "cached predicate needs a reset context");
  const CongestionGame& game = ctx.game();
  const State& x = ctx.state();
  ApproxEqReport report;
  const std::span<const std::int64_t> counts = x.counts();
  const auto k = game.num_strategies();
  const auto n = static_cast<double>(game.num_players());
  // L_av / L⁺_av: same support traversal and accumulation order as the
  // game methods, with the per-strategy sums read from the cache.
  double av = 0.0;
  for (StrategyId p = 0; p < k; ++p) {
    if (!used(counts, p)) continue;
    av += static_cast<double>(x.count(p)) * ctx.strategy_latency(p);
  }
  report.average_latency = av / n;
  double plus_av = 0.0;
  for (StrategyId p = 0; p < k; ++p) {
    if (!used(counts, p)) continue;
    plus_av += static_cast<double>(x.count(p)) * ctx.plus_latency(p);
  }
  report.plus_average_latency = plus_av / n;
  const double upper = (1.0 + eps) * report.plus_average_latency + nu;
  const double lower = (1.0 - eps) * report.average_latency - nu;
  count_unsatisfied(report, counts, game.num_players(), delta, upper, lower,
                    [&](StrategyId p) { return ctx.strategy_latency(p); });
  return report;
}

bool is_delta_eps_equilibrium(const CongestionGame& game, const State& x,
                              const DeltaThreshold& delta, double eps) {
  return check_delta_eps_nu(game, x, delta, eps, game.nu()).at_equilibrium;
}

bool is_delta_eps_equilibrium(const LatencyContext& ctx,
                              const DeltaThreshold& delta, double eps) {
  return check_delta_eps_nu(ctx, delta, eps, ctx.game().nu()).at_equilibrium;
}

bool is_nash(const CongestionGame& game, const State& x) {
  for (StrategyId p : x.support()) {
    const double lp = game.strategy_latency(x, p);
    for (StrategyId q = 0; q < game.num_strategies(); ++q) {
      if (q == p) continue;
      if (lp > game.expost_latency(x, p, q) + 1e-12) return false;
    }
  }
  return true;
}

bool is_nash(const LatencyContext& ctx, ExpostTable& scratch) {
  CID_ENSURE(ctx.ready(), "cached predicate needs a reset context");
  const std::span<const std::int64_t> counts = ctx.state().counts();
  const auto k = ctx.game().num_strategies();
  scratch.sync(ctx);
  for (StrategyId p = 0; p < k; ++p) {
    if (!used(counts, p)) continue;
    const double lp = ctx.strategy_latency(p);
    const OriginView origin(scratch, p);
    for (StrategyId q = 0; q < k; ++q) {
      if (q == p) continue;
      if (lp > origin.expost_latency(q) + 1e-12) return false;
    }
  }
  return true;
}

double nash_gap(const CongestionGame& game, const State& x) {
  double gap = 0.0;
  for (StrategyId p : x.support()) {
    const double lp = game.strategy_latency(x, p);
    for (StrategyId q = 0; q < game.num_strategies(); ++q) {
      if (q == p) continue;
      gap = std::max(gap, lp - game.expost_latency(x, p, q));
    }
  }
  return gap;
}

double nash_gap(const LatencyContext& ctx, ExpostTable& scratch) {
  CID_ENSURE(ctx.ready(), "cached predicate needs a reset context");
  const std::span<const std::int64_t> counts = ctx.state().counts();
  const auto k = ctx.game().num_strategies();
  scratch.sync(ctx);
  double gap = 0.0;
  for (StrategyId p = 0; p < k; ++p) {
    if (!used(counts, p)) continue;
    const double lp = ctx.strategy_latency(p);
    const OriginView origin(scratch, p);
    for (StrategyId q = 0; q < k; ++q) {
      if (q == p) continue;
      gap = std::max(gap, lp - origin.expost_latency(q));
    }
  }
  return gap;
}

}  // namespace cid
