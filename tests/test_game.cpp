#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "game/builders.hpp"
#include "game/congestion_game.hpp"
#include "game/state.hpp"
#include "persist/snapshot.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

CongestionGame braess_game(std::int64_t n) {
  const auto net = make_braess_network();
  // Edges in creation order: s->u, s->v, u->t, v->t, u->v.
  std::vector<LatencyPtr> fns{make_linear(1.0), make_constant(10.0),
                              make_constant(10.0), make_linear(1.0),
                              make_constant(1.0)};
  return make_network_game(net, std::move(fns), n);
}

TEST(CongestionGame, ValidatesInputs) {
  EXPECT_THROW(CongestionGame({}, {{0}}, 1), invariant_violation);
  EXPECT_THROW(CongestionGame({make_linear(1.0)}, {}, 1),
               invariant_violation);
  EXPECT_THROW(CongestionGame({make_linear(1.0)}, {{0}}, 0),
               invariant_violation);
  EXPECT_THROW(CongestionGame({make_linear(1.0)}, {{}}, 1),
               invariant_violation);
  EXPECT_THROW(CongestionGame({make_linear(1.0)}, {{1}}, 1),
               invariant_violation);
  EXPECT_THROW(CongestionGame({make_linear(1.0)}, {{0, 0}}, 1),
               invariant_violation);
  EXPECT_THROW(CongestionGame({make_linear(1.0), make_linear(1.0)},
                              {{1, 0}}, 1),
               invariant_violation);  // unsorted
}

TEST(CongestionGame, SingletonDetection) {
  const auto single = make_uniform_links_game(3, make_linear(1.0), 5);
  EXPECT_TRUE(single.is_singleton());
  EXPECT_EQ(single.num_strategies(), 3);
  const auto braess = braess_game(4);
  EXPECT_FALSE(braess.is_singleton());
  EXPECT_EQ(braess.num_strategies(), 3);
  EXPECT_EQ(braess.num_resources(), 5);
}

TEST(CongestionGame, ElasticityFlooredAtOne) {
  // All-constant latencies have elasticity 0; the protocol parameter floors
  // at 1 so 1/d never amplifies.
  const auto game = make_uniform_links_game(2, make_constant(5.0), 4);
  EXPECT_DOUBLE_EQ(game.elasticity(), 1.0);
  const auto cubic = make_uniform_links_game(2, make_monomial(1.0, 3.0), 4);
  EXPECT_DOUBLE_EQ(cubic.elasticity(), 3.0);
}

TEST(CongestionGame, NuIsMaxStrategySlopeSum) {
  // Braess: ν_P sums edge slopes; the s->u (x) + u->v (const) + v->t (x)
  // bridge path has ν = 1 + 0 + 1 = 2.
  const auto game = braess_game(4);
  double nu_max = 0.0;
  for (StrategyId p = 0; p < game.num_strategies(); ++p) {
    nu_max = std::max(nu_max, game.nu_strategy(p));
  }
  EXPECT_DOUBLE_EQ(game.nu(), nu_max);
  EXPECT_DOUBLE_EQ(game.nu(), 2.0);
}

TEST(CongestionGame, ProtocolParameterBounds) {
  const auto game = make_uniform_links_game(4, make_linear(2.0), 10);
  EXPECT_DOUBLE_EQ(game.min_nonempty_latency(), 2.0);
  EXPECT_DOUBLE_EQ(game.beta_slope(), 2.0);      // linear slope a
  EXPECT_DOUBLE_EQ(game.max_latency_upper(), 20.0);  // a*n
  EXPECT_DOUBLE_EQ(game.nu(), 2.0);
}

TEST(CongestionGame, LatencyQueries) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {7, 3});
  EXPECT_DOUBLE_EQ(game.resource_latency(x, 0), 7.0);
  EXPECT_DOUBLE_EQ(game.strategy_latency(x, 0), 7.0);
  EXPECT_DOUBLE_EQ(game.plus_latency(x, 1), 4.0);
  // Ex-post: mover from 0 to 1 sees load 4 on link 1.
  EXPECT_DOUBLE_EQ(game.expost_latency(x, 0, 1), 4.0);
  EXPECT_DOUBLE_EQ(game.expost_latency(x, 1, 1), 3.0);  // self-move: as-is
}

TEST(CongestionGame, ExpostSharedResourcesUnchanged) {
  // Two overlapping 2-resource strategies sharing resource 1.
  std::vector<LatencyPtr> fns{make_linear(1.0), make_linear(1.0),
                              make_linear(1.0)};
  CongestionGame game(std::move(fns), {{0, 1}, {1, 2}}, 6);
  const State x(game, {4, 2});
  // loads: r0=4, r1=6, r2=2. Mover 0->1: r1 shared (stays 6), r2 becomes 3.
  EXPECT_DOUBLE_EQ(game.expost_latency(x, 0, 1), 6.0 + 3.0);
  // Mover 1->0: r0 becomes 5, r1 stays 6.
  EXPECT_DOUBLE_EQ(game.expost_latency(x, 1, 0), 5.0 + 6.0);
}

TEST(CongestionGame, AverageLatencies) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {7, 3});
  // L_av = (7*7 + 3*3)/10 = 5.8; L+_av = (7*8 + 3*4)/10 = 6.8.
  EXPECT_DOUBLE_EQ(game.average_latency(x), 5.8);
  EXPECT_DOUBLE_EQ(game.plus_average_latency(x), 6.8);
}

TEST(CongestionGame, PotentialClosedFormLinear) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {7, 3});
  // Φ = Σ_{i<=7} i + Σ_{i<=3} i = 28 + 6 = 34.
  EXPECT_DOUBLE_EQ(game.potential(x), 34.0);
}

TEST(CongestionGame, DescribeMentionsShape) {
  const auto game = braess_game(4);
  const std::string d = game.describe();
  EXPECT_NE(d.find("n=4"), std::string::npos);
  EXPECT_NE(d.find("|P|=3"), std::string::npos);
}

TEST(NetworkGame, BraessPathsAreSorted) {
  const auto game = braess_game(4);
  for (StrategyId p = 0; p < game.num_strategies(); ++p) {
    const Strategy& s = game.strategy(p);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  }
}

TEST(NetworkGame, RequiresMatchingLatencyCount) {
  const auto net = make_parallel_links(3);
  EXPECT_THROW(
      make_network_game(net, {make_linear(1.0)}, 2),
      invariant_violation);
}

// ---- Lazy β ----------------------------------------------------------------

/// The original β: max_step_slope re-evaluated for every (strategy,
/// resource) pair, each step evaluating both ℓ(x) and ℓ(x−1) afresh.
double beta_oracle(const CongestionGame& game) {
  const std::int64_t n = game.num_players();
  double beta = 0.0;
  for (StrategyId p = 0; p < game.num_strategies(); ++p) {
    double acc = 0.0;
    for (Resource e : game.strategy(p)) {
      const LatencyFunction& fn = game.latency(e);
      double slope = 0.0;
      for (std::int64_t x = 1; x <= n; ++x) {
        slope = std::max(slope, fn.value(static_cast<double>(x)) -
                                    fn.value(static_cast<double>(x - 1)));
      }
      acc += slope;
    }
    beta = std::max(beta, acc);
  }
  return beta;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The symmetric registry families at their defaults (the asymmetric and
// threshold families have no β).
CongestionGame singleton_uniform_game(std::int64_t n) {
  return make_monomial_fan_game(10, 1.0, 0.0, n);
}

CongestionGame load_balancing_game(std::int64_t n) {
  std::vector<LatencyPtr> fns;
  for (int e = 0; e < 10; ++e) {
    fns.push_back(make_linear(1.0 + static_cast<double>(e) / 10.0));
  }
  return make_singleton_game(std::move(fns), n);
}

CongestionGame network_routing_game(std::int64_t n) {
  const auto net = make_layered_network(3, 2);
  Rng latency_rng(7);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    const double a = 0.5 + latency_rng.uniform();
    fns.push_back(latency_rng.bernoulli(0.5) ? make_linear(a)
                                             : make_monomial(0.05 * a, 2.0));
  }
  return make_network_game(net, std::move(fns), n);
}

TEST(LazyBeta, MatchesPerPairOracleOnRegistryFamilies) {
  for (const std::int64_t n : {std::int64_t{777}, std::int64_t{54321}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    for (const CongestionGame& game :
         {singleton_uniform_game(n), load_balancing_game(n),
          network_routing_game(n)}) {
      EXPECT_EQ(bits(game.beta_slope()), bits(beta_oracle(game)))
          << game.describe();
    }
  }
}

TEST(LazyBeta, MatchesOracleWithSharedAndUnusedResources) {
  // Resource 1 is shared by both strategies, resource 3 by none; scaled,
  // polynomial and exponential latencies take the non-monomial paths.
  std::vector<LatencyPtr> fns{make_scaled(make_monomial(2.0, 2.0), 300),
                              make_polynomial({1.0, 0.5, 0.01}),
                              make_exponential(1.0, 0.001), make_linear(9.0)};
  const CongestionGame game(std::move(fns), {{0, 1}, {1, 2}}, 2500);
  EXPECT_EQ(bits(game.beta_slope()), bits(beta_oracle(game)));
}

TEST(LazyBeta, ConcurrentFirstReadsAgree) {
  const CongestionGame game = network_routing_game(200000);
  const double expected = beta_oracle(game);
  constexpr int kThreads = 8;
  std::array<double, kThreads> seen{};
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Spin until every thread is up, so the first reads overlap.
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      seen[static_cast<std::size_t>(t)] = game.beta_slope();
    });
  }
  for (auto& th : threads) th.join();
  for (const double v : seen) EXPECT_EQ(bits(v), bits(expected));
}

TEST(LazyBeta, CopiesAndSnapshotDecodesAgree) {
  const CongestionGame game = network_routing_game(30000);
  const double expected = beta_oracle(game);
  const CongestionGame copy_before = game;  // copied before the first read
  EXPECT_EQ(bits(copy_before.beta_slope()), bits(expected));
  EXPECT_EQ(bits(game.beta_slope()), bits(expected));
  const CongestionGame copy_after = game;
  EXPECT_EQ(bits(copy_after.beta_slope()), bits(expected));

  Rng rng(3);
  const State x = State::uniform_random(game, rng);
  const std::string path = ::testing::TempDir() + "/lazy_beta.cidsnap";
  persist::save_snapshot(persist::make_snapshot(game, x, rng, 0, {}), path);
  const persist::Snapshot loaded = persist::load_snapshot(path);
  const auto& snap = std::get<persist::SymmetricPart>(loaded.part);
  std::remove(path.c_str());
  EXPECT_EQ(bits(snap.game.beta_slope()), bits(expected));
  EXPECT_EQ(bits(snap.game.potential(snap.state())), bits(game.potential(x)));
}

}  // namespace
}  // namespace cid
