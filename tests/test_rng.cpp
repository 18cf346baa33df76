// Unit and statistical tests for the RNG substrate. Exactness of the
// binomial/multinomial samplers is load-bearing for the whole reproduction
// (the aggregate engine's round law is built out of them), so the moment and
// goodness-of-fit tolerances here are deliberately tight.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "support/reference_rng.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cid {
namespace {

TEST(SplitMix64, MatchesReferenceVector) {
  // Reference values from the public-domain splitmix64 with seed 0.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(sm.next(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(sm.next(), 0x06C45D188009454FULL);
}

TEST(Xoshiro256pp, DeterministicPerSeed) {
  Xoshiro256pp a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    // Different seeds should diverge almost surely.
    if (va != c()) return;
  }
  FAIL() << "seeds 123 and 124 produced identical 100-draw streams";
}

TEST(Xoshiro256pp, JumpChangesStream) {
  Xoshiro256pp a(7), b(7);
  b.jump();
  int agree = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++agree;
  }
  EXPECT_LT(agree, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBoundsAndMean) {
  Rng rng(2);
  const std::uint64_t bound = 17;
  double sum = 0.0;
  const int kDraws = 200000;
  std::vector<double> counts(bound, 0.0);
  for (int i = 0; i < kDraws; ++i) {
    const auto v = rng.uniform_int(bound);
    ASSERT_LT(v, bound);
    counts[v] += 1.0;
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / kDraws, 8.0, 0.05);
  // Chi-square uniformity: 16 dof, reject-at-1e-6 threshold ~ 56.
  std::vector<double> expected(bound,
                               static_cast<double>(kDraws) /
                                   static_cast<double>(bound));
  EXPECT_LT(chi_square_statistic(counts, expected), 56.0);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(4);
  EXPECT_EQ(rng.binomial(0, 0.5), 0);
  EXPECT_EQ(rng.binomial(100, 0.0), 0);
  EXPECT_EQ(rng.binomial(100, 1.0), 100);
  EXPECT_THROW(rng.binomial(-1, 0.5), invariant_violation);
}

struct BinomialCase {
  std::int64_t n;
  double p;
};

class BinomialMoments : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialMoments, MeanAndVarianceMatch) {
  // Covers all three sampler regimes: Bernoulli sum (n<=32), inversion
  // (np < 12), and BTRS (np >= 12), plus the p > 1/2 reflection.
  const auto [n, p] = GetParam();
  Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(n));
  const int kDraws = 60000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const auto k = rng.binomial(n, p);
    ASSERT_GE(k, 0);
    ASSERT_LE(k, n);
    const auto kd = static_cast<double>(k);
    sum += kd;
    sumsq += kd * kd;
  }
  const double mean = sum / kDraws;
  const double var = sumsq / kDraws - mean * mean;
  const double true_mean = static_cast<double>(n) * p;
  const double true_var = static_cast<double>(n) * p * (1.0 - p);
  const double mean_tol = 6.0 * std::sqrt(true_var / kDraws) + 1e-9;
  EXPECT_NEAR(mean, true_mean, mean_tol) << "n=" << n << " p=" << p;
  EXPECT_NEAR(var, true_var, 0.08 * true_var + 0.01) << "n=" << n
                                                     << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BinomialMoments,
    ::testing::Values(BinomialCase{10, 0.3},        // Bernoulli sum
                      BinomialCase{31, 0.5},        // Bernoulli sum boundary
                      BinomialCase{1000, 0.001},    // inversion, tiny mean
                      BinomialCase{500, 0.01},      // inversion
                      BinomialCase{200, 0.4},       // BTRS
                      BinomialCase{100000, 0.25},   // BTRS large n
                      BinomialCase{1000, 0.97},     // reflection + inversion
                      BinomialCase{5000, 0.75}));   // reflection + BTRS

TEST(Rng, BinomialDistributionChiSquare) {
  // Goodness-of-fit for Binomial(40, 0.3) over a binned support.
  Rng rng(99);
  const std::int64_t n = 40;
  const double p = 0.3;
  const int kDraws = 100000;
  std::vector<double> observed(41, 0.0);
  for (int i = 0; i < kDraws; ++i) {
    observed[static_cast<std::size_t>(rng.binomial(n, p))] += 1.0;
  }
  // Exact pmf via recurrence.
  std::vector<double> pmf(41);
  pmf[0] = std::pow(1.0 - p, static_cast<double>(n));
  for (int k = 1; k <= 40; ++k) {
    pmf[static_cast<std::size_t>(k)] =
        pmf[static_cast<std::size_t>(k - 1)] * (p / (1.0 - p)) *
        static_cast<double>(n - k + 1) / static_cast<double>(k);
  }
  // Merge bins with expectation < 10 into neighbours (standard practice).
  std::vector<double> obs_binned, exp_binned;
  double o_acc = 0.0, e_acc = 0.0;
  for (int k = 0; k <= 40; ++k) {
    o_acc += observed[static_cast<std::size_t>(k)];
    e_acc += pmf[static_cast<std::size_t>(k)] * kDraws;
    if (e_acc >= 10.0) {
      obs_binned.push_back(o_acc);
      exp_binned.push_back(e_acc);
      o_acc = e_acc = 0.0;
    }
  }
  if (e_acc > 0.0) {
    obs_binned.back() += o_acc;
    exp_binned.back() += e_acc;
  }
  const double stat = chi_square_statistic(obs_binned, exp_binned);
  // dof ~ bins-1 (~20); 1e-6-level rejection threshold ~ 60.
  EXPECT_LT(stat, 60.0);
}

TEST(Rng, MultinomialConservesTrialsAndMeans) {
  Rng rng(5);
  const std::vector<double> probs{0.1, 0.2, 0.3, 0.15};  // sums to 0.75
  const std::int64_t n = 10000;
  std::vector<double> mean(probs.size(), 0.0);
  const int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    const auto counts = rng.multinomial(n, probs);
    ASSERT_EQ(counts.size(), probs.size());
    std::int64_t total = 0;
    for (std::size_t j = 0; j < counts.size(); ++j) {
      ASSERT_GE(counts[j], 0);
      total += counts[j];
      mean[j] += static_cast<double>(counts[j]);
    }
    ASSERT_LE(total, n);  // residual mass stays put
  }
  for (std::size_t j = 0; j < probs.size(); ++j) {
    EXPECT_NEAR(mean[j] / kDraws, static_cast<double>(n) * probs[j],
                0.02 * static_cast<double>(n) * probs[j] + 1.0);
  }
}

TEST(Rng, MultinomialFullMassConservesExactly) {
  Rng rng(6);
  const std::vector<double> probs{0.25, 0.25, 0.25, 0.25};
  for (int i = 0; i < 200; ++i) {
    const auto counts = rng.multinomial(1000, probs);
    std::int64_t total = 0;
    for (auto c : counts) total += c;
    EXPECT_EQ(total, 1000);
  }
}

// ---- Zero squeeze of the inversion sampler ----------------------------------

/// Inversion-regime (n, p) points: n ∈ {33, 100, 1e4, 1e6, 2^40}, p from
/// 1e-300 up to a mean just under 12, plus p < 2^-54, where 1 − p rounds
/// to exactly 1.
std::vector<std::pair<std::int64_t, double>> inversion_grid() {
  std::vector<std::pair<std::int64_t, double>> grid;
  for (const std::int64_t n : {std::int64_t{33}, std::int64_t{100},
                               std::int64_t{10'000}, std::int64_t{1'000'000},
                               std::int64_t{1} << 40}) {
    const double top = 11.999 / static_cast<double>(n);
    for (double p = 1e-300; p < top; p *= 7.0) grid.emplace_back(n, p);
    for (const double f : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0}) {
      grid.emplace_back(n, top * f);
    }
    for (const double tiny : {0x1.0p-54, 0x1.fp-55, 0x1.0p-60, 0x1.0p-80}) {
      grid.emplace_back(n, tiny);
    }
  }
  return grid;
}

TEST(BinomialSqueeze, SameValuesAndDrawsAsThePreSqueezeWalk) {
  std::uint64_t seed = 1;
  for (const auto& [n, p] : inversion_grid()) {
    ASSERT_TRUE(n > 32 && p <= 0.5 && static_cast<double>(n) * p < 12.0)
        << "grid point outside the inversion regime: n=" << n << " p=" << p;
    Rng production(seed);
    Rng reference(seed);
    ++seed;
    for (int draw = 0; draw < 200; ++draw) {
      ASSERT_EQ(production.binomial(n, p),
                test::binomial_inversion_reference(reference, n, p))
          << "n=" << n << " p=" << p << " draw " << draw;
    }
    ASSERT_EQ(production.state(), reference.state())
        << "n=" << n << " p=" << p;
  }
}

TEST(BinomialSqueeze, MultinomialSameCountsAndDrawsAsThePreInlineLoop) {
  // Rng::multinomial draws the inversion's first uniform itself and skips
  // a category that squeezes to 0. Against the loop that called binomial
  // for every category: equal counts and equal state after every draw, on
  // rows that reach each regime of binomial(left, cond) — counted below
  // from the counts, as the loop sees them.
  std::vector<std::pair<std::int64_t, std::vector<double>>> rows = {
      {20, {0.1, 0.3, 0.0, 0.2}},             // n <= 32: Bernoulli sums
      {32, {0.01, 0.02, 0.0, 0.3}},           // the last Bernoulli n
      {33, {0.01, 0.02, 0.0, 0.3}},           // the first inversion n
      {48, {0.25, 0.1}},                      // mean exactly 12: BTRS
      {10000, {0.01, 0.0, 0.02, 0.005}},      // BTRS (mean >= 12)
      {5000, {0.1, 0.85}},                    // cond > 1/2: symmetric
      {600, {0.6, 0.5, 0.3}},                 // remaining <= 0: cond = 1
      {0, {0.5}},                             // nothing to draw
      {70, {}},                               // no categories
  };
  Rng shape(17);
  for (int r = 0; r < 60; ++r) {  // mover-round rows: mostly tiny entries
    std::vector<double> probs(64);
    for (double& p : probs) {
      const double v = shape.uniform();
      p = v < 0.3 ? 0.0 : v < 0.9 ? 1e-5 * shape.uniform() : 1e-3 * v;
    }
    rows.emplace_back(std::int64_t{40} + static_cast<std::int64_t>(
                                             shape.uniform_int(20000)),
                      probs);
  }
  enum Regime { kZeroProb, kBernoulli, kInversionZero, kInversionWalk,
                kBtrs, kSymmetric, kRegimes };
  std::array<std::int64_t, kRegimes> seen{};
  std::uint64_t seed = 1;
  for (const auto& [n, probs] : rows) {
    Rng production(seed);
    Rng reference(seed);
    ++seed;
    for (int draw = 0; draw < 300; ++draw) {
      const std::vector<std::int64_t> counts = production.multinomial(n, probs);
      ASSERT_EQ(counts, test::multinomial_reference(reference, n, probs))
          << "n=" << n << " row of " << probs.size() << ", draw " << draw;
      ASSERT_EQ(production.state(), reference.state())
          << "n=" << n << " row of " << probs.size() << ", draw " << draw;
      std::int64_t left = n;
      double remaining = 1.0;
      for (std::size_t i = 0; i < probs.size() && left > 0; ++i) {
        if (probs[i] <= 0.0) {
          ++seen[kZeroProb];
          continue;
        }
        const double cond =
            remaining <= 0.0 ? 1.0 : std::min(1.0, probs[i] / remaining);
        remaining -= probs[i];
        if (cond > 0.5) {
          ++seen[kSymmetric];
        } else if (left <= 32) {
          ++seen[kBernoulli];
        } else if (static_cast<double>(left) * cond < 12.0) {
          ++seen[counts[i] == 0 ? kInversionZero : kInversionWalk];
        } else {
          ++seen[kBtrs];
        }
        left -= counts[i];
      }
    }
  }
  for (int regime = 0; regime < kRegimes; ++regime) {
    EXPECT_GT(seen[static_cast<std::size_t>(regime)], 100)
        << "regime " << regime << " barely reached";
  }
}

TEST(BinomialSqueeze, LowerBoundNeverExceedsTheZeroProbability) {
  // Dense (n, p) grid over the whole symmetric range p <= 1/2; the bound
  // is only worth testing where it is positive, but it must hold
  // everywhere.
  std::int64_t checked = 0;
  for (double nd = 33.0; nd <= 0x1.0p40; nd *= 1.37) {
    const auto n = static_cast<std::int64_t>(nd);
    for (double p = 1e-300; p <= 0.5; p *= 1.05) {
      const double lower = binomial_zero_bound(n, p);
      ASSERT_LE(lower, std::pow(1.0 - p, static_cast<double>(n)))
          << "n=" << n << " p=" << p;
      ++checked;
    }
    for (double p = 0x1.0p-54; p > 0x1.0p-70; p *= 0.9) {
      ASSERT_LE(binomial_zero_bound(n, p),
                std::pow(1.0 - p, static_cast<double>(n)))
          << "n=" << n << " p=" << p;
    }
  }
  EXPECT_GT(checked, 1'000'000);
}

TEST(ZeroBound, IntegerTestIsExactlyTheDoubleInterval) {
  // bound.holds(m) must agree with lo <= m·2⁻⁵³ < hi for every 53-bit m:
  // checked at L−1, L, H−1, H, next to lo·2⁵³ and hi·2⁵³ computed here,
  // and at random m, over the bounds the planner makes (Bernoulli [cond, 1),
  // inversion [0, binomial_zero_bound), negative bounds included) and
  // random pairs.
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double ulp53 = 0x1.0p-53;
  std::vector<std::pair<double, double>> cases;
  for (const double cond :
       {0.3, 0.5, std::nextafter(0.5, 0.0), tiny, 4.0 * tiny,
        std::numeric_limits<double>::min(), ulp53, std::nextafter(ulp53, 0.0),
        std::nextafter(ulp53, 1.0), 3.0 * ulp53, 0x1.0p-54, 1e-300, 1e-9}) {
    cases.emplace_back(cond, 1.0);  // a Bernoulli uniform
    for (const std::int64_t n : {33, 100, 10000, 1000000000}) {
      cases.emplace_back(0.0, binomial_zero_bound(n, cond));  // inversion
    }
  }
  cases.emplace_back(0.0, 1.0);
  cases.emplace_back(0.25, 0.25);
  cases.emplace_back(0.75, 0.25);
  cases.emplace_back(-0.5, 0.5);
  Rng pairs(99);
  for (int i = 0; i < 400; ++i) {
    const double scale = std::pow(2.0, -60.0 * pairs.uniform());
    cases.emplace_back(scale * pairs.uniform(), scale * pairs.uniform());
    cases.emplace_back(pairs.uniform(), 1.0);
  }
  int negative = 0;
  for (const auto& [lo, hi] : cases) {
    const ZeroBound bound = zero_bound(lo, hi);
    if (hi <= 0.0) {
      ++negative;
      EXPECT_EQ(bound.width, 0u) << "hi " << hi;
    }
    const auto expect_exact = [&](std::uint64_t m) {
      if (m >= kTop) return;  // not a uniform's integer (or wrapped below 0)
      const double u = static_cast<double>(m) * 0x1.0p-53;
      ASSERT_EQ(bound.holds(m), lo <= u && u < hi)
          << std::hexfloat << "lo " << lo << " hi " << hi << " m " << m;
    };
    const std::uint64_t l = bound.lo;
    const std::uint64_t h = bound.lo + bound.width;
    for (const std::uint64_t m : {l - 1, l, h - 1, h}) expect_exact(m);
    for (const double edge : {lo, hi}) {
      const double scaled = std::clamp(edge, 0.0, 1.0) * 0x1.0p53;
      const auto m = static_cast<std::uint64_t>(std::floor(scaled));
      for (std::uint64_t d = 0; d < 3; ++d) {
        expect_exact(m - 1 + d);
      }
    }
    for (int r = 0; r < 64; ++r) expect_exact(pairs.next_u64() >> 11);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(negative, 10);
  // The 2⁻⁵³-adjacent Bernoulli cuts: m = 0 is the one success below a
  // subnormal or 2⁻⁵³ cond, m = 1 joins it just above 2⁻⁵³.
  EXPECT_EQ(zero_bound(tiny, 1.0).lo, 1u);
  EXPECT_EQ(zero_bound(ulp53, 1.0).lo, 1u);
  EXPECT_EQ(zero_bound(std::nextafter(ulp53, 1.0), 1.0).lo, 2u);
  EXPECT_EQ(zero_bound(0.0, 1.0).width, kTop);
}

/// A plan_zero_multinomial plan flattened the way the round engine
/// flattens it: one bound per uniform, and where each came from.
struct FlatPlan {
  std::vector<ZeroBound> bounds;
  std::vector<std::pair<std::size_t, std::uint32_t>> at;  // step, draw

  explicit FlatPlan(std::span<const ZeroStep> steps) {
    for (std::size_t s = 0; s < steps.size(); ++s) {
      for (std::uint32_t d = 0; d < steps[s].draws; ++d) {
        bounds.push_back(steps[s].bound);
        at.emplace_back(s, d);
      }
    }
  }

  /// multinomial(n, probs, out) through Rng::scan_zero and
  /// Rng::multinomial_planned: false when every count is 0 (out untouched).
  bool draw(Rng& rng, std::int64_t n, std::span<const double> probs,
            std::span<const ZeroStep> steps,
            std::span<std::int64_t> out) const {
    for (std::size_t e = 0;; ++e) {
      double u = 0.0;
      e = rng.scan_zero(bounds, e, u);
      if (e == bounds.size()) return false;
      if (rng.multinomial_planned(n, probs, steps[at[e].first], at[e].second,
                                  u, out)) {
        return true;
      }
    }
  }
};

TEST(MultinomialPlanned, SameCountsAndDrawsAsMultinomial) {
  // Random rows over cohorts on both sides of the Bernoulli cut (n <= 32)
  // and masses from tiny to BTRS-sized: a flattened planned draw must equal
  // multinomial's counts and stream position draw for draw, including
  // misses that move somebody and inversion misses that still land on 0.
  Rng rows(2024);
  std::int64_t planned = 0;
  std::int64_t refused = 0;
  std::int64_t moved = 0;
  for (std::uint64_t row = 0; row < 1500; ++row) {
    const auto n = static_cast<std::int64_t>(1 + rows.uniform_int(300));
    const std::size_t k = 2 + rows.uniform_int(20);
    const double scale = std::pow(10.0, -4.0 * rows.uniform());
    std::vector<double> probs(k, 0.0);
    for (double& p : probs) {
      if (rows.bernoulli(0.8)) {
        p = scale * rows.uniform() / static_cast<double>(k);
      }
    }
    std::vector<ZeroStep> plan(1);  // a caller's earlier steps stay put
    if (!Rng::plan_zero_multinomial(n, probs, plan)) {
      ++refused;
      EXPECT_EQ(plan.size(), 1u);
      continue;
    }
    ++planned;
    const std::span<const ZeroStep> steps(plan.data() + 1, plan.size() - 1);
    const FlatPlan flat(steps);
    Rng reference(row);
    Rng replay(row);
    std::vector<std::int64_t> expected(k);
    std::vector<std::int64_t> counts(k);
    for (int draw = 0; draw < 40; ++draw) {
      reference.multinomial(n, probs, expected);
      std::fill(counts.begin(), counts.end(), std::int64_t{-1});
      if (flat.draw(replay, n, probs, steps, counts)) {
        ++moved;
        ASSERT_EQ(counts, expected) << "row " << row << " draw " << draw;
      } else {
        ASSERT_EQ(std::count(expected.begin(), expected.end(), 0),
                  static_cast<std::ptrdiff_t>(k))
            << "row " << row << " draw " << draw;
        ASSERT_EQ(std::count(counts.begin(), counts.end(), -1),
                  static_cast<std::ptrdiff_t>(k));  // left untouched
      }
      ASSERT_EQ(replay.state(), reference.state())
          << "row " << row << " draw " << draw;
    }
  }
  EXPECT_GT(planned, 500);
  EXPECT_GT(refused, 50);
  EXPECT_GT(moved, 1000);
}

TEST(MultinomialPlanned, PlansOnlyThresholdZeroOutcomes) {
  std::vector<ZeroStep> plan;
  // BTRS (n > 32, mean >= 12) and the symmetric path (cond > 1/2).
  EXPECT_FALSE(Rng::plan_zero_multinomial(1000, std::vector{0.02}, plan));
  EXPECT_FALSE(Rng::plan_zero_multinomial(10, std::vector{0.3, 0.7}, plan));
  EXPECT_TRUE(plan.empty());
  // n <= 32: n Bernoulli uniforms per category, none below cond (so m at
  // or above ceil(cond·2⁵³)); the second category's cond is 0.2 / (1 - 0.3).
  ASSERT_TRUE(Rng::plan_zero_multinomial(5, std::vector{0.3, 0.0, 0.2}, plan));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].index, 0u);
  EXPECT_EQ(plan[0].draws, 5u);
  EXPECT_EQ(plan[0].bound.lo, std::ceil(0.3 * 0x1.0p53));
  EXPECT_EQ(plan[0].bound.lo + plan[0].bound.width, std::uint64_t{1} << 53);
  EXPECT_EQ(plan[1].index, 2u);
  EXPECT_EQ(plan[1].cond, 0.2 / (1.0 - 0.3));
  EXPECT_EQ(plan[1].remaining, 1.0 - 0.3 - 0.2);
  // n > 32: one uniform per category, below binomial_zero_bound; at
  // n·p = 1 that bound is negative, so every uniform goes to the walk.
  plan.clear();
  ASSERT_TRUE(Rng::plan_zero_multinomial(100, std::vector{0.01}, plan));
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].draws, 1u);
  EXPECT_LT(binomial_zero_bound(100, 0.01), 0.0);
  EXPECT_EQ(plan[0].bound.width, 0u);
  plan.clear();
  ASSERT_TRUE(Rng::plan_zero_multinomial(100, std::vector{0.001}, plan));
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].bound.lo, 0u);
  EXPECT_EQ(plan[0].bound.width,
            std::ceil(binomial_zero_bound(100, 0.001) * 0x1.0p53));
}

TEST(Xoshiro256pp, AdvanceEqualsStepping) {
  std::vector<std::uint64_t> ks{0, 1, 2, 63, 64, 65, 255, 256, 257, 4096};
  Rng pick(99);
  for (int i = 0; i < 32; ++i) ks.push_back(pick.uniform_int(1'000'000));
  for (std::uint64_t k : ks) {
    Xoshiro256pp stepped(k + 5);
    Xoshiro256pp jumped(k + 5);
    for (std::uint64_t i = 0; i < k; ++i) (void)stepped();
    jumped.advance(k);
    ASSERT_EQ(jumped.state(), stepped.state()) << "k = " << k;
    ASSERT_EQ(jumped(), stepped()) << "k = " << k;
  }
}

TEST(Xoshiro256pp, CharacteristicPolynomialReproducesTheJumpConstant) {
  // x^(2^128) by 128 squarings modulo the characteristic polynomial is
  // the published jump polynomial, and x^(2^0) advances by one step.
  Xoshiro256pp::Poly p{2, 0, 0, 0};
  for (int i = 0; i < 128; ++i) p = Xoshiro256pp::mul_mod(p, p);
  EXPECT_EQ(p, Xoshiro256pp::kJump);
  Xoshiro256pp a(3), b(3);
  a.apply({2, 0, 0, 0});
  (void)b();
  EXPECT_EQ(a.state(), b.state());
}

/// The first miss of each lane's own segment, found by stepping a scalar
/// generator through the stream: (round within the segment, bound index),
/// or none.
struct SegmentMiss {
  bool missed = false;
  std::int64_t round = 0;
  std::size_t index = 0;
  bool operator<(const SegmentMiss& o) const {
    return round != o.round ? round < o.round : index < o.index;
  }
  bool operator==(const SegmentMiss& o) const {
    return round == o.round && index == o.index;
  }
};

std::vector<SegmentMiss> segment_misses(const std::array<std::uint64_t, 4>& s,
                                        std::span<const ZeroBound> bounds,
                                        std::int64_t lane_rounds,
                                        std::int64_t total) {
  std::vector<SegmentMiss> misses(8);
  Rng rng(1);
  rng.set_state(s);
  for (std::int64_t r = 0; r < total; ++r) {
    SegmentMiss& lane = misses[static_cast<std::size_t>(r / lane_rounds)];
    for (std::size_t e = 0; e < bounds.size(); ++e) {
      const std::uint64_t m = rng.next_u64() >> 11;
      if (!lane.missed && !bounds[e].holds(m)) {
        lane = {true, r % lane_rounds, e};
      }
    }
  }
  return misses;
}

TEST(LaneScan, AgreesWithScanZeroOnEveryIsa) {
  // Random plans mixing Bernoulli bounds [cond, 1) (lo > 0) and inversion
  // bounds [0, zero bound), on random streams: every variant this host
  // runs must return what the plain scan_zero loop returns and leave the
  // same state. The cases each lane layout must meet are counted.
  std::vector<LaneIsa> isas;
  for (LaneIsa isa : {LaneIsa::kPortable, LaneIsa::kAvx2, LaneIsa::kAvx512}) {
    if (lane_isa_supported(isa)) isas.push_back(isa);
  }
  EXPECT_TRUE(lane_isa_supported(best_lane_isa()));
  int lane0 = 0, lane7 = 0, same_step = 0, later_found_first = 0;
  int segment_first = 0, segment_last = 0, cap_inside = 0, full_block = 0;
  Rng plans(4242);
  for (std::uint64_t c = 0; c < 4000; ++c) {
    const std::size_t b = 1 + plans.uniform_int(c % 4 == 0 ? 40 : 4);
    const double miss = std::pow(10.0, -0.5 - 3.0 * plans.uniform()) /
                        static_cast<double>(b);
    std::vector<ZeroBound> bounds;
    for (std::size_t e = 0; e < b; ++e) {
      bounds.push_back(plans.bernoulli(0.5)
                           ? zero_bound(miss * plans.uniform(), 1.0)
                           : zero_bound(0.0, 1.0 - miss * plans.uniform()));
    }
    const auto lane_rounds =
        static_cast<std::int64_t>(1 + plans.uniform_int(6));
    const std::int64_t max_rounds =
        plans.bernoulli(0.5)
            ? static_cast<std::int64_t>(plans.uniform_int(
                  static_cast<std::uint64_t>(8 * lane_rounds + 3)))
            : 8 * lane_rounds;
    Rng start(c * 7919 + 1);
    (void)start.next_u64();
    Rng reference = start;
    const LaneScan want =
        reference.scan_lanes(bounds, lane_rounds, max_rounds,
                             LaneIsa::kPortable);
    for (LaneIsa isa : isas) {
      Rng lanes = start;
      const LaneScan got =
          lanes.scan_lanes(bounds, lane_rounds, max_rounds, isa);
      ASSERT_EQ(got.missed, want.missed) << "case " << c;
      ASSERT_EQ(got.rounds, want.rounds) << "case " << c;
      if (want.missed) {
        ASSERT_EQ(got.index, want.index) << "case " << c;
        ASSERT_EQ(got.u, want.u) << "case " << c;
      }
      ASSERT_EQ(lanes.state(), reference.state()) << "case " << c;
    }
    // The portable result is the sequential scan_zero loop itself; check
    // it against the segments' own misses and classify the case.
    const std::int64_t total = std::min(max_rounds, 8 * lane_rounds);
    const auto misses =
        segment_misses(start.state(), bounds, lane_rounds, total);
    const auto first =
        std::find_if(misses.begin(), misses.end(),
                     [](const SegmentMiss& m) { return m.missed; });
    ASSERT_EQ(first != misses.end(), want.missed) << "case " << c;
    if (!want.missed) {
      ASSERT_EQ(want.rounds, total);
      if (total % lane_rounds != 0) ++cap_inside;
      if (total == 8 * lane_rounds) ++full_block;
      continue;
    }
    const auto lane = static_cast<std::int64_t>(first - misses.begin());
    ASSERT_EQ(want.rounds, lane * lane_rounds + first->round) << "case " << c;
    ASSERT_EQ(want.index, first->index) << "case " << c;
    lane0 += lane == 0;
    lane7 += lane == 7;
    segment_first += lane > 0 && first->round == 0 && first->index == 0;
    segment_last += first->round == lane_rounds - 1 && first->index == b - 1;
    for (auto later = first + 1; later != misses.end(); ++later) {
      if (!later->missed) continue;
      same_step += *later == *first;
      later_found_first += *later < *first;
    }
  }
  EXPECT_GT(lane0, 10);
  EXPECT_GT(lane7, 10);
  EXPECT_GT(same_step, 10);
  EXPECT_GT(later_found_first, 10);
  EXPECT_GT(segment_first, 10);
  EXPECT_GT(segment_last, 10);
  EXPECT_GT(cap_inside, 10);
  EXPECT_GT(full_block, 10);
}

TEST(LaneScan, EmptyPlanHoldsForEveryRound) {
  for (LaneIsa isa : {LaneIsa::kPortable, LaneIsa::kAvx2, LaneIsa::kAvx512}) {
    if (!lane_isa_supported(isa)) continue;
    Rng rng(5);
    const auto before = rng.state();
    const LaneScan scan = rng.scan_lanes({}, 3, 1000, isa);
    EXPECT_FALSE(scan.missed);
    EXPECT_EQ(scan.rounds, 1000);
    EXPECT_EQ(rng.state(), before);
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(7);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.categorical(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
  EXPECT_THROW(rng.categorical(std::vector<double>{}), invariant_violation);
  EXPECT_THROW(rng.categorical(std::vector<double>{0.0, 0.0}),
               invariant_violation);
}

TEST(Rng, SplitProducesDecorrelatedStreams) {
  Rng parent(11);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int agree = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++agree;
  }
  EXPECT_EQ(agree, 0);
}

// ---- RNG durability (the persistence subsystem's contract) -----------------
//
// state()/set_state must make the stream durable: a generator saved at ANY
// point and restored elsewhere continues the identical draw sequence. The
// binomial sampler makes this non-trivial to state — it switches between
// three regimes (Bernoulli summation, CDF inversion, BTRS rejection) that
// consume different numbers of uniforms per variate, and BTRS consumes a
// *data-dependent* number (rejection). Durability must hold mid-sequence
// and across every regime boundary regardless.

TEST(RngDurability, StateRoundTripContinuesTheRawStream) {
  Xoshiro256pp gen(2024);
  for (int i = 0; i < 1000; ++i) (void)gen();
  const auto saved = gen.state();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 256; ++i) expected.push_back(gen());
  Xoshiro256pp restored(1);  // deliberately different seed
  restored.set_state(saved);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(restored(), expected[i]);
}

TEST(RngDurability, AllZeroStateIsClampedOffTheFixedPoint) {
  Xoshiro256pp gen(1);
  gen.set_state({0, 0, 0, 0});
  // The all-zero state is a fixed point of xoshiro; set_state must not
  // allow a (corrupt) snapshot to freeze the stream at zero forever.
  bool nonzero = false;
  for (int i = 0; i < 8; ++i) nonzero = nonzero || gen() != 0;
  EXPECT_TRUE(nonzero);
}

TEST(RngDurability, SaveRestoreMidBinomialSequenceAcrossAllRegimes) {
  // A schedule that walks every sampler regime, including both sides of
  // the BTRS/inversion boundary at mean = 12 (n * p around 12 with
  // n > 32): inversion just below, BTRS just above.
  const std::vector<std::pair<std::int64_t, double>> schedule = {
      {8, 0.5},      // direct Bernoulli summation (n <= 32)
      {1000, 0.005}, // inversion (mean 5 < 12)
      {1000, 0.0119},// inversion, just below the boundary (mean 11.9)
      {1000, 0.0121},// BTRS, just above the boundary (mean 12.1)
      {1000, 0.3},   // BTRS, deep rejection territory
      {50, 0.9},     // symmetry flip (p > 1/2) on top of BTRS/inversion
  };
  Rng rng(0xD00D);
  // Burn in partway through the schedule, then save MID-sequence.
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const auto& [n, p] : schedule) (void)rng.binomial(n, p);
  }
  const auto saved = rng.state();
  Rng restored(1);
  restored.set_state(saved);
  // The continuation must be identical draw by draw, for many passes —
  // long enough that any desynchronization (an off-by-one uniform in a
  // rejection loop, say) would surface.
  for (int repeat = 0; repeat < 50; ++repeat) {
    for (const auto& [n, p] : schedule) {
      EXPECT_EQ(restored.binomial(n, p), rng.binomial(n, p))
          << "repeat " << repeat << " n=" << n << " p=" << p;
    }
  }
  EXPECT_EQ(restored.state(), rng.state());
}

TEST(RngDurability, SaveRestoreMidMultinomialSequence) {
  const std::vector<double> probs = {0.25, 0.125, 0.5, 0.0625};
  Rng rng(777);
  for (int i = 0; i < 10; ++i) (void)rng.multinomial(5000, probs);
  const auto saved = rng.state();
  Rng restored(1);
  restored.set_state(saved);
  for (int i = 0; i < 100; ++i) {
    // Vary n so the conditional binomials cross regimes as mass depletes.
    const std::int64_t n = 17 + 311 * i;
    EXPECT_EQ(restored.multinomial(n, probs), rng.multinomial(n, probs))
        << "draw " << i;
  }
  EXPECT_EQ(restored.state(), rng.state());
}

}  // namespace
}  // namespace cid
