// Distribution-level equivalence of the two engines: beyond matching means
// and variances (test_engine.cpp), the full mover-count law of one round
// must agree — checked with a two-sample chi-square on binned counts, and
// the aggregate engine's law must match the analytic Binomial(n_P, p_PQ)
// pmf exactly.
#include <gtest/gtest.h>

#include <cmath>

#include "dynamics/engine.hpp"
#include "game/builders.hpp"
#include "game/latency_context.hpp"
#include "protocols/imitation.hpp"
#include "support/reference_round.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cid {
namespace {

std::vector<double> mover_histogram(const CongestionGame& game,
                                    const State& x, const Protocol& protocol,
                                    EngineMode mode, int draws,
                                    std::size_t max_bin, std::uint64_t seed) {
  std::vector<double> hist(max_bin + 1, 0.0);
  Rng rng(seed);
  for (int i = 0; i < draws; ++i) {
    const RoundResult rr = draw_round(game, x, protocol, rng, mode);
    std::size_t movers = 0;
    for (const auto& mv : rr.moves) {
      movers += static_cast<std::size_t>(mv.count);
    }
    hist[std::min(movers, max_bin)] += 1.0;
  }
  return hist;
}

TEST(EngineDistribution, TwoSampleChiSquareAgreement) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 200);
  const State x(game, {150, 50});
  const ImitationProtocol protocol;
  const double p = protocol.move_probability(game, x, 0, 1);
  const double mean = 150.0 * p;
  const auto max_bin =
      static_cast<std::size_t>(mean + 6.0 * std::sqrt(mean) + 2.0);
  const int kDraws = 30000;
  const auto a = mover_histogram(game, x, protocol, EngineMode::kAggregate,
                                 kDraws, max_bin, 11);
  const auto b = mover_histogram(game, x, protocol, EngineMode::kPerPlayer,
                                 kDraws, max_bin, 22);
  // Merge sparse bins (< 10 expected) then two-sample chi-square:
  // X² = Σ (a_i − b_i)² / (a_i + b_i).
  double stat = 0.0;
  int bins = 0;
  double a_acc = 0.0, b_acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a_acc += a[i];
    b_acc += b[i];
    if (a_acc + b_acc >= 20.0) {
      stat += (a_acc - b_acc) * (a_acc - b_acc) / (a_acc + b_acc);
      ++bins;
      a_acc = b_acc = 0.0;
    }
  }
  if (a_acc + b_acc > 0.0) {
    stat += (a_acc - b_acc) * (a_acc - b_acc) / (a_acc + b_acc);
    ++bins;
  }
  // dof ≈ bins−1 (≈ 25); 1e-6-level threshold ≈ 70.
  EXPECT_LT(stat, 70.0) << "engines disagree in distribution (" << bins
                        << " bins)";
}

TEST(EngineDistribution, AggregateMatchesAnalyticBinomialPmf) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 100);
  const State x(game, {80, 20});
  const ImitationProtocol protocol;
  const double p = protocol.move_probability(game, x, 0, 1);
  const std::int64_t cohort = 80;
  // Exact pmf by recurrence.
  const auto max_bin = static_cast<std::size_t>(
      static_cast<double>(cohort) * p + 6.0 * std::sqrt(80.0 * p) + 3.0);
  std::vector<double> pmf(max_bin + 1, 0.0);
  pmf[0] = std::pow(1.0 - p, static_cast<double>(cohort));
  for (std::size_t k = 1; k <= max_bin; ++k) {
    pmf[k] = pmf[k - 1] * (p / (1.0 - p)) *
             static_cast<double>(cohort - static_cast<std::int64_t>(k) + 1) /
             static_cast<double>(k);
  }
  const int kDraws = 40000;
  const auto hist = mover_histogram(game, x, protocol,
                                    EngineMode::kAggregate, kDraws, max_bin,
                                    33);
  // Tail mass into the last bin.
  double tail = 1.0;
  for (std::size_t k = 0; k < max_bin; ++k) tail -= pmf[k];
  std::vector<double> expected(max_bin + 1);
  for (std::size_t k = 0; k < max_bin; ++k) expected[k] = pmf[k] * kDraws;
  expected[max_bin] = std::max(tail, 0.0) * kDraws;
  // Merge sparse bins and chi-square against the analytic law.
  std::vector<double> obs_b, exp_b;
  double o_acc = 0.0, e_acc = 0.0;
  for (std::size_t k = 0; k <= max_bin; ++k) {
    o_acc += hist[k];
    e_acc += expected[k];
    if (e_acc >= 10.0) {
      obs_b.push_back(o_acc);
      exp_b.push_back(e_acc);
      o_acc = e_acc = 0.0;
    }
  }
  if (e_acc > 0.0 && !exp_b.empty()) {
    obs_b.back() += o_acc;
    exp_b.back() += e_acc;
  }
  EXPECT_LT(chi_square_statistic(obs_b, exp_b), 60.0);
}

TEST(EngineDistribution, PruningPreservesDistributionAndRngStream) {
  // Three identical links with a skewed state: the lightest link's origin
  // is provably all-zero (its ℓ_P is the support minimum), so the batched
  // kernel prunes it, while the heavy origin keeps drawing. Pruning must
  // (a) actually fire, (b) consume the SAME RNG draws as the unpruned
  // per-pair path (bitwise-equal rounds with the same seed), and (c)
  // leave the mover-count law untouched — checked with the same
  // two-sample chi-square as the engine-vs-engine test, against the
  // per-pair reference path on an INDEPENDENT stream.
  const auto game = make_uniform_links_game(3, make_linear(1.0), 260);
  const State x(game, {200, 50, 10});
  const ImitationProtocol protocol;

  {  // (a) the prunable origin really is pruned
    LatencyContext ctx;
    ctx.reset(game, x);
    const RowBounds bounds =
        compute_row_bounds(x, ctx, {0, game.num_strategies()});
    ASSERT_TRUE(bounds.plus_dominates);
    EXPECT_TRUE(protocol.row_provably_zero(game, ctx, 2, bounds));
    EXPECT_FALSE(protocol.row_provably_zero(game, ctx, 0, bounds));
  }

  {  // (b) same seed ⇒ bitwise-equal rounds AND identical stream position
    Rng pruned_rng(55);
    Rng reference_rng(55);
    for (int i = 0; i < 200; ++i) {
      const RoundResult pruned = draw_round(
          game, x, protocol, pruned_rng, EngineMode::kAggregate);
      const RoundResult reference = test::draw_round_reference(
          game, x, protocol, reference_rng, EngineMode::kAggregate);
      ASSERT_EQ(pruned.moves, reference.moves) << "draw " << i;
      ASSERT_EQ(pruned_rng.state(), reference_rng.state()) << "draw " << i;
    }
  }

  // (c) distribution-level agreement on independent streams.
  const double p1 = protocol.move_probability(game, x, 0, 1);
  const double p2 = protocol.move_probability(game, x, 0, 2);
  const double mean = 200.0 * (p1 + p2);
  const auto max_bin =
      static_cast<std::size_t>(mean + 6.0 * std::sqrt(mean) + 2.0);
  const int kDraws = 30000;
  const auto pruned_hist = mover_histogram(
      game, x, protocol, EngineMode::kAggregate, kDraws, max_bin, 66);
  std::vector<double> reference_hist(max_bin + 1, 0.0);
  {
    Rng rng(77);
    for (int i = 0; i < kDraws; ++i) {
      const RoundResult rr = test::draw_round_reference(
          game, x, protocol, rng, EngineMode::kAggregate);
      std::size_t movers = 0;
      for (const auto& mv : rr.moves) {
        movers += static_cast<std::size_t>(mv.count);
      }
      reference_hist[std::min(movers, max_bin)] += 1.0;
    }
  }
  double stat = 0.0;
  int bins = 0;
  double a_acc = 0.0, b_acc = 0.0;
  for (std::size_t i = 0; i < pruned_hist.size(); ++i) {
    a_acc += pruned_hist[i];
    b_acc += reference_hist[i];
    if (a_acc + b_acc >= 20.0) {
      stat += (a_acc - b_acc) * (a_acc - b_acc) / (a_acc + b_acc);
      ++bins;
      a_acc = b_acc = 0.0;
    }
  }
  if (a_acc + b_acc > 0.0) {
    stat += (a_acc - b_acc) * (a_acc - b_acc) / (a_acc + b_acc);
    ++bins;
  }
  EXPECT_LT(stat, 70.0) << "pruned kernel drifted in distribution (" << bins
                        << " bins)";
}

TEST(EngineDistribution, MultiDestinationJointLawHasNegativeCorrelation) {
  // From one origin cohort the destination counts are jointly multinomial:
  // Cov(N_1, N_2) = −n·p1·p2 < 0. Check the sample covariance sign and
  // magnitude for both engines.
  std::vector<LatencyPtr> fns{make_linear(1.0), make_linear(1.0),
                              make_linear(1.0)};
  const auto game = make_singleton_game(std::move(fns), 300);
  const State x(game, {260, 20, 20});
  ImitationParams params;
  params.lambda = 1.0;
  params.nu_cutoff = false;
  const ImitationProtocol protocol(params);
  const double p1 = protocol.move_probability(game, x, 0, 1);
  const double p2 = protocol.move_probability(game, x, 0, 2);
  const double expected_cov = -260.0 * p1 * p2;
  for (EngineMode mode : {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    Rng rng(44);
    const int kDraws = 20000;
    double s1 = 0.0, s2 = 0.0, s12 = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      const RoundResult rr = draw_round(game, x, protocol, rng, mode);
      double n1 = 0.0, n2 = 0.0;
      for (const auto& mv : rr.moves) {
        if (mv.to == 1) n1 += static_cast<double>(mv.count);
        if (mv.to == 2) n2 += static_cast<double>(mv.count);
      }
      s1 += n1;
      s2 += n2;
      s12 += n1 * n2;
    }
    const double cov = s12 / kDraws - (s1 / kDraws) * (s2 / kDraws);
    EXPECT_LT(cov, 0.0) << "mode=" << static_cast<int>(mode);
    EXPECT_NEAR(cov, expected_cov, 0.35 * std::abs(expected_cov) + 0.05)
        << "mode=" << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace cid
