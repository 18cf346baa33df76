#include "game/potential.hpp"

#include <vector>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace cid {

namespace {

/// Per-resource net load change induced by a migration batch.
std::vector<std::int64_t> load_deltas(const CongestionGame& game,
                                      std::span<const Migration> moves) {
  std::vector<std::int64_t> delta(
      static_cast<std::size_t>(game.num_resources()), 0);
  for (const Migration& mv : moves) {
    if (mv.count == 0) continue;
    for (Resource e : game.strategy(mv.from)) {
      delta[static_cast<std::size_t>(e)] -= mv.count;
    }
    for (Resource e : game.strategy(mv.to)) {
      delta[static_cast<std::size_t>(e)] += mv.count;
    }
  }
  return delta;
}

}  // namespace

double virtual_potential_gain(const CongestionGame& game, const State& x,
                              std::span<const Migration> moves) {
  NeumaierSum acc;
  for (const Migration& mv : moves) {
    if (mv.count == 0) continue;
    const double gain = game.expost_latency(x, mv.from, mv.to) -
                        game.strategy_latency(x, mv.from);
    acc.add(static_cast<double>(mv.count) * gain);
  }
  return acc.value();
}

double concurrency_error_term(const CongestionGame& game, const State& x,
                              std::span<const Migration> moves) {
  const auto delta = load_deltas(game, moves);
  NeumaierSum acc;
  for (Resource e = 0; e < game.num_resources(); ++e) {
    const std::int64_t d = delta[static_cast<std::size_t>(e)];
    if (d == 0) continue;
    const std::int64_t xe = x.congestion(e);
    const LatencyFunction& fn = game.latency(e);
    if (d > 0) {
      const double base = fn.value(static_cast<double>(xe + 1));
      for (std::int64_t u = xe + 1; u <= xe + d; ++u) {
        acc.add(fn.value(static_cast<double>(u)) - base);
      }
    } else {
      const double base = fn.value(static_cast<double>(xe));
      for (std::int64_t u = xe + d + 1; u <= xe; ++u) {
        acc.add(base - fn.value(static_cast<double>(u)));
      }
    }
  }
  return acc.value();
}

double potential_gain(const CongestionGame& game, const State& x,
                      std::span<const Migration> moves) {
  const auto delta = load_deltas(game, moves);
  NeumaierSum acc;
  for (Resource e = 0; e < game.num_resources(); ++e) {
    const std::int64_t d = delta[static_cast<std::size_t>(e)];
    if (d == 0) continue;
    const std::int64_t xe = x.congestion(e);
    CID_ENSURE(xe + d >= 0, "migration drives congestion negative");
    const LatencyFunction& fn = game.latency(e);
    if (d > 0) {
      for (std::int64_t u = xe + 1; u <= xe + d; ++u) {
        acc.add(fn.value(static_cast<double>(u)));
      }
    } else {
      for (std::int64_t u = xe + d + 1; u <= xe; ++u) {
        acc.add(-fn.value(static_cast<double>(u)));
      }
    }
  }
  return acc.value();
}

}  // namespace cid
