// Tests for the Rosenthal potential machinery, including the paper's
// Lemma 1 decomposition (ΔΦ ≤ Σ V_PQ + Σ F_e) verified as a property over
// random migration vectors — this is the content of the paper's Figure 1.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "game/builders.hpp"
#include "game/potential.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

CongestionGame braess_game(std::int64_t n) {
  const auto net = make_braess_network();
  std::vector<LatencyPtr> fns{make_linear(1.0), make_polynomial({0.0, 2.0}),
                              make_monomial(1.0, 2.0), make_linear(1.0),
                              make_affine(1.0, 3.0)};
  return make_network_game(net, std::move(fns), n);
}

TEST(Potential, RosenthalIdentitySingleMove) {
  // The defining property of Rosenthal's potential: a unilateral move P→Q
  // changes Φ by exactly the mover's latency change,
  // Φ(x+1_Q−1_P) − Φ(x) = ℓ_Q(x+1_Q−1_P) − ℓ_P(x).
  const auto game = braess_game(12);
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    State x = State::uniform_random(game, rng);
    const auto support = x.support();
    const StrategyId p =
        support[static_cast<std::size_t>(rng.uniform_int(support.size()))];
    const auto q = static_cast<StrategyId>(
        rng.uniform_int(static_cast<std::uint64_t>(game.num_strategies())));
    if (q == p) continue;
    const std::array<Migration, 1> mv{Migration{p, q, 1}};
    const double dphi = potential_gain(game, x, mv);
    const double latency_change =
        game.expost_latency(x, p, q) - game.strategy_latency(x, p);
    EXPECT_NEAR(dphi, latency_change, 1e-9);
    // Cross-check against the O(n·m) recomputation.
    State y = x;
    y.apply(game, mv);
    EXPECT_NEAR(dphi, game.potential(y) - game.potential(x), 1e-9);
  }
}

TEST(Potential, GainMatchesRecomputationForBatches) {
  const auto game = braess_game(30);
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    State x = State::uniform_random(game, rng);
    // Random feasible batch.
    std::vector<Migration> moves;
    for (StrategyId p = 0; p < game.num_strategies(); ++p) {
      std::int64_t budget = x.count(p);
      for (StrategyId q = 0; q < game.num_strategies(); ++q) {
        if (q == p || budget == 0) continue;
        const std::int64_t k =
            rng.binomial(budget, 0.3);
        if (k > 0) {
          moves.push_back(Migration{p, q, k});
          budget -= k;
        }
      }
    }
    const double dphi = potential_gain(game, x, moves);
    State y = x;
    y.apply(game, moves);
    EXPECT_NEAR(dphi, game.potential(y) - game.potential(x),
                1e-8 * (1.0 + std::abs(dphi)));
  }
}

TEST(Potential, Lemma1UpperBoundHoldsOnRandomMigrations) {
  // ΔΦ ≤ Σ V_PQ + Σ F_e for *arbitrary* migration vectors (Lemma 1 is
  // protocol-independent).
  const auto game = braess_game(24);
  Rng rng(11);
  int nontrivial = 0;
  for (int trial = 0; trial < 200; ++trial) {
    State x = State::uniform_random(game, rng);
    std::vector<Migration> moves;
    for (StrategyId p = 0; p < game.num_strategies(); ++p) {
      std::int64_t budget = x.count(p);
      for (StrategyId q = 0; q < game.num_strategies(); ++q) {
        if (q == p || budget == 0) continue;
        const std::int64_t k = rng.binomial(budget, rng.uniform() * 0.5);
        if (k > 0) {
          moves.push_back(Migration{p, q, k});
          budget -= k;
        }
      }
    }
    if (moves.empty()) continue;
    ++nontrivial;
    const double dphi = potential_gain(game, x, moves);
    const double vpq = virtual_potential_gain(game, x, moves);
    const double err = concurrency_error_term(game, x, moves);
    EXPECT_LE(dphi, vpq + err + 1e-9)
        << "Lemma 1 violated on trial " << trial;
    EXPECT_GE(err, -1e-12) << "error terms are sums of non-negative steps";
  }
  EXPECT_GT(nontrivial, 150);
}

TEST(Potential, VirtualGainIsExactForSingleMover) {
  // With one mover the error term vanishes and V_PQ == ΔΦ.
  const auto game = braess_game(10);
  Rng rng(13);
  const State x = State::uniform_random(game, rng);
  for (StrategyId p : x.support()) {
    for (StrategyId q = 0; q < game.num_strategies(); ++q) {
      if (q == p) continue;
      const std::array<Migration, 1> mv{Migration{p, q, 1}};
      EXPECT_NEAR(virtual_potential_gain(game, x, mv),
                  potential_gain(game, x, mv), 1e-9);
      EXPECT_NEAR(concurrency_error_term(game, x, mv), 0.0, 1e-12);
    }
  }
}

TEST(Potential, ErrorTermZeroWhenFlowsCancel) {
  // A perfect swap leaves every congestion unchanged: F_e = 0 and
  // ΔΦ = 0... but V_PQ can be negative; Lemma 1 still holds.
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {5, 5});
  const std::array<Migration, 2> moves{Migration{0, 1, 2},
                                       Migration{1, 0, 2}};
  EXPECT_DOUBLE_EQ(concurrency_error_term(game, x, moves), 0.0);
  EXPECT_DOUBLE_EQ(potential_gain(game, x, moves), 0.0);
}

}  // namespace
}  // namespace cid
