#include <gtest/gtest.h>

#include <cstdint>

#include "dynamics/equilibrium.hpp"
#include "game/builders.hpp"
#include "util/assert.hpp"

namespace cid {
namespace {

TEST(ImitationStable, BalancedStateIsStable) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State balanced(game, {5, 5});
  EXPECT_TRUE(is_imitation_stable(game, balanced, 0.0));
  EXPECT_DOUBLE_EQ(imitation_gap(game, balanced), 0.0);
}

TEST(ImitationStable, NuToleratesSmallGaps) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {6, 4});  // gain of a 0→1 move: 6−5 = 1
  EXPECT_TRUE(is_imitation_stable(game, x, 1.0));
  EXPECT_FALSE(is_imitation_stable(game, x, 0.5));
  EXPECT_DOUBLE_EQ(imitation_gap(game, x), 1.0);
  EXPECT_THROW(is_imitation_stable(game, x, -1.0), invariant_violation);
}

TEST(ImitationStable, RestrictedToSupport) {
  // All players on one expensive link; the cheap link is unused, so the
  // state is imitation-stable (nothing to copy) but NOT Nash.
  std::vector<LatencyPtr> fns{make_linear(10.0), make_linear(1.0)};
  const auto game = make_singleton_game(std::move(fns), 10);
  const State x(game, {10, 0});
  EXPECT_TRUE(is_imitation_stable(game, x, 0.0));
  EXPECT_FALSE(is_nash(game, x));
  EXPECT_GT(nash_gap(game, x), 0.0);
}

TEST(Nash, BalancedIsNashForIdenticalLinks) {
  const auto game = make_uniform_links_game(4, make_linear(1.0), 8);
  EXPECT_TRUE(is_nash(game, State(game, {2, 2, 2, 2})));
  EXPECT_FALSE(is_nash(game, State(game, {4, 2, 1, 1})));
  EXPECT_DOUBLE_EQ(nash_gap(game, State(game, {2, 2, 2, 2})), 0.0);
}

TEST(Nash, UsesFullStrategySpace) {
  std::vector<LatencyPtr> fns{make_linear(1.0), make_linear(1.0),
                              make_constant(100.0)};
  const auto game = make_singleton_game(std::move(fns), 10);
  // 5/5/0 on the two fast links: Nash (the constant link costs 100).
  EXPECT_TRUE(is_nash(game, State(game, {5, 5, 0})));
  EXPECT_FALSE(is_nash(game, State(game, {8, 2, 0})));
}

TEST(DeltaEpsNu, PerfectlyBalancedIsEquilibrium) {
  const auto game = make_uniform_links_game(4, make_linear(1.0), 100);
  const State x(game, {25, 25, 25, 25});
  const auto report = check_delta_eps_nu(game, x, 0.0, 0.1, 0.0);
  EXPECT_TRUE(report.at_equilibrium);
  EXPECT_DOUBLE_EQ(report.unsatisfied_mass, 0.0);
  EXPECT_DOUBLE_EQ(report.average_latency, 25.0);
  EXPECT_DOUBLE_EQ(report.plus_average_latency, 26.0);
}

TEST(DeltaEpsNu, DetectsExpensivePaths) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 100);
  const State x(game, {80, 20});
  // L_av = (80·80+20·20)/100 = 68; L+_av = (80·81+20·21)/100 = 69.
  // With ε=0.05, ν=0: upper = 72.45 → link 0 (80) is expensive (mass .8);
  // lower = 64.6 → link 1 (20) is cheap (mass .2) → unsatisfied = 1.
  const auto report = check_delta_eps_nu(game, x, 0.5, 0.05, 0.0);
  EXPECT_NEAR(report.expensive_mass, 0.8, 1e-12);
  EXPECT_NEAR(report.cheap_mass, 0.2, 1e-12);
  EXPECT_FALSE(report.at_equilibrium);
  // With δ = 1 everything passes by definition.
  EXPECT_TRUE(check_delta_eps_nu(game, x, 1.0, 0.05, 0.0).at_equilibrium);
}

TEST(DeltaEpsNu, NuWidensTheBand) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 100);
  const State x(game, {60, 40});
  // L_av = 52, L+_av = 53. ε=0: upper=53+ν, lower=52−ν.
  // ν=15: band [37,68] contains both 60 and 40 → equilibrium at δ=0.
  EXPECT_TRUE(check_delta_eps_nu(game, x, 0.0, 0.0, 15.0).at_equilibrium);
  // ν=5: band [47,58]: link 1 (40) is cheap → mass 0.4 unsatisfied.
  const auto r = check_delta_eps_nu(game, x, 0.3, 0.0, 5.0);
  EXPECT_NEAR(r.cheap_mass, 0.4, 1e-12);
  EXPECT_FALSE(r.at_equilibrium);
}

TEST(DeltaEpsNu, EpsilonScalesWithAverage) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 100);
  const State x(game, {55, 45});
  // L_av = 50.5, L+_av = 51.5. ε=0.2 → upper 61.8, lower 40.4: all inside.
  EXPECT_TRUE(check_delta_eps_nu(game, x, 0.0, 0.2, 0.0).at_equilibrium);
  // ε=0.01 → upper 52.0, lower 50.0: 55 expensive, 45 cheap.
  const auto r = check_delta_eps_nu(game, x, 0.0, 0.01, 0.0);
  EXPECT_NEAR(r.unsatisfied_mass, 1.0, 1e-12);
}

TEST(DeltaThreshold, ComparesPlayerCountsExactly) {
  // δ reads as its shortest decimal: 0.3 is 3/10, so 3 of 10 players is
  // exactly on the bound (the double 0.3 is slightly below 3/10, which a
  // floating-point mass test could only accept with a slack).
  const DeltaThreshold three_tenths(0.3);
  EXPECT_TRUE(three_tenths.holds(3, 10));
  EXPECT_FALSE(three_tenths.holds(4, 10));
  EXPECT_TRUE(three_tenths.holds(300000000000, 1000000000000));
  EXPECT_FALSE(three_tenths.holds(300000000001, 1000000000000));
  const DeltaThreshold tenth(0.1);
  EXPECT_TRUE(tenth.holds(1, 10));
  EXPECT_FALSE(tenth.holds(2, 19));
  EXPECT_TRUE(DeltaThreshold(0.125).holds(1, 8));
  EXPECT_FALSE(DeltaThreshold(0.125).holds(2, 15));
  EXPECT_TRUE(DeltaThreshold(0.0).holds(0, 100));
  EXPECT_FALSE(DeltaThreshold(0.0).holds(1, 100));
  EXPECT_TRUE(DeltaThreshold(1.0).holds(100, 100));
  // Every double digit counts: 0.1000000000000001 > 1/10.
  EXPECT_TRUE(DeltaThreshold(0.1000000000000001).holds(1, 10));
  EXPECT_FALSE(DeltaThreshold(0.09999999999999999).holds(1, 10));
  // Far below one player in the largest games: nobody may be unsatisfied.
  EXPECT_TRUE(DeltaThreshold(1e-300).holds(0, INT64_MAX));
  EXPECT_FALSE(DeltaThreshold(1e-300).holds(1, INT64_MAX));
  EXPECT_TRUE(DeltaThreshold(1e-18).holds(9, INT64_MAX));
  EXPECT_FALSE(DeltaThreshold(1e-18).holds(10, INT64_MAX));
  EXPECT_THROW(DeltaThreshold(1.5), invariant_violation);
}

TEST(DeltaEpsNu, CountsUnsatisfiedPlayers) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 10);
  const State x(game, {7, 3});
  // L_av = (49+9)/10 = 5.8, L+_av = (56+12)/10 = 6.8; ε = ν = 0: link 0
  // (latency 7) is expensive, link 1 (3) cheap — 10 players unsatisfied.
  const auto all = check_delta_eps_nu(game, x, 1.0, 0.0, 0.0);
  EXPECT_EQ(all.unsatisfied_players, 10);
  EXPECT_TRUE(all.at_equilibrium);
  // ε = 0.5: upper 10.2, lower 2.9 — everyone is satisfied.
  EXPECT_EQ(check_delta_eps_nu(game, x, 0.0, 0.5, 0.0).unsatisfied_players,
            0);
  // ε = 0.2: upper 8.16, lower 4.64 — the 3 players on link 1 are cheap,
  // exactly on δ = 0.3's bound.
  const auto r = check_delta_eps_nu(game, x, 0.3, 0.2, 0.0);
  EXPECT_EQ(r.unsatisfied_players, 3);
  EXPECT_TRUE(r.at_equilibrium);
  EXPECT_FALSE(check_delta_eps_nu(game, x, 0.29, 0.2, 0.0).at_equilibrium);
}

TEST(DeltaEpsNu, ValidatesArguments) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 4);
  const State x(game, {2, 2});
  EXPECT_THROW(check_delta_eps_nu(game, x, -0.1, 0.1, 0.0),
               invariant_violation);
  EXPECT_THROW(check_delta_eps_nu(game, x, 0.1, -0.1, 0.0),
               invariant_violation);
  EXPECT_THROW(check_delta_eps_nu(game, x, 0.1, 0.1, -1.0),
               invariant_violation);
}

TEST(DeltaEpsNu, ConvenienceWrapperUsesGameNu) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 100);
  const State x(game, {60, 40});
  // game.nu() = 1 for a=1 linear links.
  EXPECT_EQ(is_delta_eps_equilibrium(game, x, 0.0, 0.0),
            check_delta_eps_nu(game, x, 0.0, 0.0, 1.0).at_equilibrium);
}

TEST(Equilibrium, NashImpliesImitationStableAndDeltaEps) {
  const auto game = make_uniform_links_game(4, make_linear(1.0), 8);
  const State nash(game, {2, 2, 2, 2});
  ASSERT_TRUE(is_nash(game, nash));
  EXPECT_TRUE(is_imitation_stable(game, nash, 0.0));
  EXPECT_TRUE(check_delta_eps_nu(game, nash, 0.0, 0.5, game.nu())
                  .at_equilibrium);
}

}  // namespace
}  // namespace cid
