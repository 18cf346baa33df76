// Engine tests: mass conservation, pre-round-state semantics, stop/observer
// plumbing, and the statistical equivalence of the per-player and aggregate
// engines (same marginal law by construction; here verified empirically).
#include <gtest/gtest.h>

#include <cmath>

#include "dynamics/engine.hpp"
#include "game/builders.hpp"
#include "protocols/imitation.hpp"
#include "util/assert.hpp"

namespace cid {
namespace {

TEST(Engine, RoundConservesMass) {
  const auto game = make_uniform_links_game(4, make_linear(1.0), 1000);
  Rng rng(1);
  const ImitationProtocol protocol;
  for (EngineMode mode : {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    State x(game, {700, 100, 100, 100});
    for (int round = 0; round < 10; ++round) {
      step_round(game, x, protocol, rng, mode);
      x.check_consistent(game);
    }
  }
}

TEST(Engine, MoveCountsNeverExceedOrigin) {
  const auto game = make_uniform_links_game(3, make_monomial(2.0, 2.0), 300);
  Rng rng(2);
  ImitationParams params;
  params.lambda = 1.0;  // aggressive λ stresses feasibility
  const ImitationProtocol protocol(params);
  State x(game, {250, 40, 10});
  for (int round = 0; round < 20; ++round) {
    const RoundResult rr = draw_round(game, x, protocol, rng,
                                      EngineMode::kAggregate);
    std::vector<std::int64_t> outflow(3, 0);
    for (const auto& mv : rr.moves) {
      outflow[static_cast<std::size_t>(mv.from)] += mv.count;
    }
    for (StrategyId p = 0; p < 3; ++p) {
      EXPECT_LE(outflow[static_cast<std::size_t>(p)], x.count(p));
    }
    x.apply(game, rr.moves);
  }
}

TEST(Engine, EnginesAgreeOnExpectedFlow) {
  // One round from a fixed state: E[movers 0→1] must agree across engines
  // (they implement the same law). n·p ≈ 700·(3/9.99…)·μ; compare means.
  const auto game = make_uniform_links_game(2, make_linear(1.0), 1000);
  const ImitationProtocol protocol;
  const State x0(game, {700, 300});
  const double p01 = protocol.move_probability(game, x0, 0, 1);
  const double expect = 700.0 * p01;
  const int kTrials = 3000;
  for (EngineMode mode : {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    Rng rng(42);
    double total = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      const RoundResult rr = draw_round(game, x0, protocol, rng, mode);
      for (const auto& mv : rr.moves) {
        ASSERT_EQ(mv.from, 0);
        ASSERT_EQ(mv.to, 1);
        total += static_cast<double>(mv.count);
      }
    }
    const double mean = total / kTrials;
    // s.d. of one round ≈ sqrt(700·p(1−p)) ≈ 8; 6σ/sqrt(3000) tolerance.
    EXPECT_NEAR(mean, expect, 6.0 * std::sqrt(700.0 * p01) /
                                  std::sqrt(static_cast<double>(kTrials)))
        << "mode=" << static_cast<int>(mode);
  }
}

TEST(Engine, EnginesAgreeOnVariance) {
  // Second moments must agree too: movers 0→1 is Binomial(700, p01) in both
  // engines (σ² = np(1−p)).
  const auto game = make_uniform_links_game(2, make_linear(1.0), 1000);
  const ImitationProtocol protocol;
  const State x0(game, {700, 300});
  const double p01 = protocol.move_probability(game, x0, 0, 1);
  const double true_var = 700.0 * p01 * (1.0 - p01);
  const int kTrials = 4000;
  for (EngineMode mode : {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    Rng rng(43);
    double sum = 0.0, sumsq = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      const RoundResult rr = draw_round(game, x0, protocol, rng, mode);
      double movers = 0.0;
      for (const auto& mv : rr.moves) movers += static_cast<double>(mv.count);
      sum += movers;
      sumsq += movers * movers;
    }
    const double mean = sum / kTrials;
    const double var = sumsq / kTrials - mean * mean;
    EXPECT_NEAR(var, true_var, 0.15 * true_var)
        << "mode=" << static_cast<int>(mode);
  }
}

TEST(Engine, ProbabilitiesComputedFromPreRoundState) {
  // Concurrency semantics: all cohorts decide against the same state. With
  // three strategies in a cycle-improving configuration, movers in both
  // directions can cross in one round — verify both directions occur
  // simultaneously at least once over many rounds.
  const auto game = make_uniform_links_game(3, make_linear(1.0), 90);
  ImitationParams params;
  params.lambda = 1.0;
  params.nu_cutoff = false;
  const ImitationProtocol protocol(params);
  Rng rng(7);
  State x(game, {60, 20, 10});
  bool crossing_seen = false;
  for (int round = 0; round < 50 && !crossing_seen; ++round) {
    const RoundResult rr =
        draw_round(game, x, protocol, rng, EngineMode::kAggregate);
    bool from0 = false, from1 = false;
    for (const auto& mv : rr.moves) {
      if (mv.from == 0) from0 = true;
      if (mv.from == 1) from1 = true;
    }
    crossing_seen = from0 && from1;
    x.apply(game, rr.moves);
  }
  EXPECT_TRUE(crossing_seen);
}

TEST(Engine, RunStopsOnPredicate) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 100);
  Rng rng(3);
  State x(game, {90, 10});
  const ImitationProtocol protocol;
  RunOptions opts;
  opts.max_rounds = 10000;
  const RunResult rr = run_dynamics(
      game, x, protocol, rng,
      {.options = opts,
       .stop = [](const CongestionGame&, const State& s, std::int64_t) {
         return std::abs(s.count(0) - s.count(1)) <= 10;
       }});
  EXPECT_TRUE(rr.converged);
  EXPECT_LT(rr.rounds, 10000);
  EXPECT_LE(std::abs(x.count(0) - x.count(1)), 10);
}

TEST(Engine, RunHonoursMaxRounds) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 100);
  Rng rng(4);
  State x(game, {90, 10});
  const ImitationProtocol protocol;
  RunOptions opts;
  opts.max_rounds = 5;
  const RunResult rr = run_dynamics(
      game, x, protocol, rng,
      {.options = opts,
       .stop = [](const CongestionGame&, const State&, std::int64_t) {
         return false;
       }});
  EXPECT_FALSE(rr.converged);
  EXPECT_EQ(rr.rounds, 5);
}

TEST(Engine, ObserverSeesEveryRoundAndFinalState) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 100);
  Rng rng(5);
  State x(game, {90, 10});
  const ImitationProtocol protocol;
  RunOptions opts;
  opts.max_rounds = 7;
  std::int64_t calls = 0;
  bool saw_final = false;
  run_dynamics(
      game, x, protocol, rng,
      {.options = opts,
       .stop = [](const CongestionGame&, const State&, std::int64_t) {
         return false;
       },
       .observer = [&](const CongestionGame&, const State&,
                       std::span<const Migration> moves, std::int64_t round,
                       bool final) {
         ++calls;
         if (final && moves.empty() && round == 7) saw_final = true;
       }});
  EXPECT_EQ(calls, 8);  // 7 rounds + final flush
  EXPECT_TRUE(saw_final);
}

TEST(Engine, CheckIntervalSkipsPredicateEvaluations) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 100);
  Rng rng(6);
  State x(game, {90, 10});
  const ImitationProtocol protocol;
  RunOptions opts;
  opts.max_rounds = 100;
  opts.check_interval = 10;
  std::int64_t evaluations = 0;
  run_dynamics(game, x, protocol, rng,
               {.options = opts,
                .stop = [&](const CongestionGame&, const State&, std::int64_t) {
                  ++evaluations;
                  return false;
                }});
  EXPECT_EQ(evaluations, 11);  // rounds 0,10,...,90 plus the final check
}

TEST(Engine, ValidatesOptions) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  Rng rng(8);
  State x(game, {5, 5});
  const ImitationProtocol protocol;
  RunOptions opts;
  opts.check_interval = 0;
  EXPECT_THROW(run_dynamics(game, x, protocol, rng, {.options = opts}),
               invariant_violation);
}

}  // namespace
}  // namespace cid
