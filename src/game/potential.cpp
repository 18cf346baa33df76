#include "game/potential.hpp"

#include <vector>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

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
  long double acc = 0.0L;
  for (const Migration& mv : moves) {
    if (mv.count == 0) continue;
    const double gain = game.expost_latency(x, mv.from, mv.to) -
                        game.strategy_latency(x, mv.from);
    acc += static_cast<long double>(mv.count) * gain;
  }
  return static_cast<double>(acc);
}

double concurrency_error_term(const CongestionGame& game, const State& x,
                              std::span<const Migration> moves) {
  const auto delta = load_deltas(game, moves);
  long double acc = 0.0L;
  for (Resource e = 0; e < game.num_resources(); ++e) {
    const std::int64_t d = delta[static_cast<std::size_t>(e)];
    if (d == 0) continue;
    const std::int64_t xe = x.congestion(e);
    const LatencyFunction& fn = game.latency(e);
    if (d > 0) {
      const double base = fn.value(static_cast<double>(xe + 1));
      for (std::int64_t u = xe + 1; u <= xe + d; ++u) {
        acc += fn.value(static_cast<double>(u)) - base;
      }
    } else {
      const double base = fn.value(static_cast<double>(xe));
      for (std::int64_t u = xe + d + 1; u <= xe; ++u) {
        acc += base - fn.value(static_cast<double>(u));
      }
    }
  }
  return static_cast<double>(acc);
}

double potential_gain(const CongestionGame& game, const State& x,
                      std::span<const Migration> moves) {
  const auto delta = load_deltas(game, moves);
  long double acc = 0.0L;
  for (Resource e = 0; e < game.num_resources(); ++e) {
    const std::int64_t d = delta[static_cast<std::size_t>(e)];
    if (d == 0) continue;
    const std::int64_t xe = x.congestion(e);
    CID_ENSURE(xe + d >= 0, "migration drives congestion negative");
    const LatencyFunction& fn = game.latency(e);
    if (d > 0) {
      for (std::int64_t u = xe + 1; u <= xe + d; ++u) {
        acc += fn.value(static_cast<double>(u));
      }
    } else {
      for (std::int64_t u = xe + d + 1; u <= xe; ++u) {
        acc -= fn.value(static_cast<double>(u));
      }
    }
  }
  return static_cast<double>(acc);
}

PotentialTracker::PotentialTracker(const CongestionGame& game,
                                   const State& x) {
  resync(game, x);
}

void PotentialTracker::apply(const CongestionGame& game, const State& x,
                             std::span<const Migration> moves) {
  phi_ += static_cast<long double>(potential_gain(game, x, moves));
}

void PotentialTracker::resync(const CongestionGame& game, const State& x) {
  // Counts construction-time syncs too — every resync is a full O(m·n)
  // potential recomputation, which is exactly what the counter is for.
  static const auto id =
      obs::global_metrics().counter("analysis.potential_resyncs");
  obs::global_metrics().add(id, 1);
  phi_ = static_cast<long double>(game.potential(x));
}

}  // namespace cid
