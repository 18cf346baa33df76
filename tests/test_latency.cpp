#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "latency/latency.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ConstantLatency, ValueAndElasticity) {
  const LatencyPtr fn = make_constant(4.0);
  EXPECT_EQ(fn->kind(), LatencyFunction::Kind::kConstant);
  EXPECT_EQ(fn->constant(), 4.0);
  EXPECT_DOUBLE_EQ(fn->value(0.0), 4.0);
  EXPECT_DOUBLE_EQ(fn->value(100.0), 4.0);
  EXPECT_DOUBLE_EQ(fn->elasticity_upper(1000.0), 0.0);
  EXPECT_THROW(make_constant(0.0), invariant_violation);
}

TEST(MonomialLatency, ValueAndExactElasticity) {
  const LatencyPtr fn = make_monomial(2.0, 3.0);  // 2x^3
  EXPECT_EQ(fn->kind(), LatencyFunction::Kind::kMonomial);
  EXPECT_EQ(fn->coefficient(), 2.0);
  EXPECT_EQ(fn->degree(), 3.0);
  EXPECT_DOUBLE_EQ(fn->value(2.0), 16.0);
  EXPECT_DOUBLE_EQ(fn->elasticity_upper(1e6), 3.0);
  EXPECT_THROW(fn->value(-1.0), invariant_violation);
  EXPECT_THROW(make_monomial(-1.0, 2.0), invariant_violation);
  EXPECT_THROW(make_monomial(1.0, -2.0), invariant_violation);
  const LatencyPtr lin = make_linear(5.0);
  EXPECT_EQ(lin->kind(), LatencyFunction::Kind::kMonomial);
  EXPECT_EQ(lin->degree(), 1.0);
}

TEST(PolynomialLatency, HornerEvaluation) {
  const LatencyPtr fn = make_polynomial({1.0, 2.0, 3.0});  // 1 + 2x + 3x^2
  EXPECT_EQ(fn->kind(), LatencyFunction::Kind::kPolynomial);
  EXPECT_DOUBLE_EQ(fn->value(0.0), 1.0);
  EXPECT_DOUBLE_EQ(fn->value(2.0), 17.0);
  EXPECT_EQ(fn->coefficients(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(make_affine(2.0, 1.0)->coefficients(),
            (std::vector<double>{1.0, 2.0}));
}

TEST(PolynomialLatency, ElasticityIsMaxActiveDegree) {
  // Trailing zero trimmed.
  const LatencyPtr fn = make_polynomial({1.0, 0.0, 3.0, 0.0});
  EXPECT_EQ(fn->coefficients().size(), 3u);
  EXPECT_DOUBLE_EQ(fn->elasticity_upper(100.0), 2.0);
  EXPECT_DOUBLE_EQ(make_polynomial({5.0})->elasticity_upper(100.0), 0.0);
}

TEST(PolynomialLatency, RejectsInvalidCoefficients) {
  EXPECT_THROW(make_polynomial({}), invariant_violation);
  EXPECT_THROW(make_polynomial({1.0, -2.0}), invariant_violation);
  EXPECT_THROW(make_polynomial({0.0, 0.0}), invariant_violation);
}

TEST(PolynomialLatency, CoefficientCapIsTheFormats) {
  // Both game formats store at most kMaxPolynomialCoefficients; the
  // factory refuses more, counting after the trailing zeros are trimmed.
  std::vector<double> coef(kMaxPolynomialCoefficients, 1.0);
  EXPECT_EQ(make_polynomial(coef)->coefficients().size(),
            kMaxPolynomialCoefficients);
  coef.push_back(0.0);
  EXPECT_EQ(make_polynomial(coef)->coefficients().size(),
            kMaxPolynomialCoefficients);
  coef.back() = 1.0;
  EXPECT_THROW(make_polynomial(coef), invariant_violation);
}

TEST(ScaledLatency, MatchesBaseOnScaledArgument) {
  auto base = make_monomial(2.0, 2.0);
  const LatencyPtr fn = make_scaled(base, 100);
  EXPECT_EQ(fn->kind(), LatencyFunction::Kind::kScaled);
  EXPECT_EQ(fn->divisor(), 100);
  EXPECT_EQ(&fn->base(), base.get());
  EXPECT_DOUBLE_EQ(fn->value(50.0), base->value(0.5));
  // Elasticity invariant under scaling.
  EXPECT_NEAR(fn->elasticity_upper(100.0), 2.0, 1e-9);
  EXPECT_THROW(make_scaled(base, 0), invariant_violation);
  // The divisor reads back as given, also where double(n) rounds.
  constexpr std::int64_t kHuge = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(make_scaled(base, kHuge)->divisor(), kHuge);
  EXPECT_THROW(make_scaled(nullptr, 10), invariant_violation);
}

TEST(ScaledLatency, NuShrinksWithN) {
  // The §5 point: scaling leaves elasticity fixed but shrinks the step ν.
  auto base = make_linear(1.0);
  const double nu_small = slope_nu(*make_scaled(base, 10), 1.0);
  const double nu_large = slope_nu(*make_scaled(base, 1000), 1.0);
  EXPECT_NEAR(nu_small / nu_large, 100.0, 1e-6);
}

TEST(ScaledLatency, NestingCapIsTheFormats) {
  // Both game formats read at most kMaxScaledNesting scaled levels, so
  // the factory builds no deeper function for a writer to emit.
  LatencyPtr fn = make_linear(1.0);
  for (int level = 1; level <= kMaxScaledNesting; ++level) {
    fn = make_scaled(fn, 2);
  }
  EXPECT_EQ(bits(fn->value(65536.0)), bits(1.0));
  EXPECT_THROW(make_scaled(fn, 2), invariant_violation);
}

TEST(ExponentialLatency, UnboundedElasticityGrowsWithDomain) {
  const LatencyPtr fn = make_exponential(1.0, 0.1);
  EXPECT_EQ(fn->kind(), LatencyFunction::Kind::kExponential);
  EXPECT_DOUBLE_EQ(fn->value(0.0), 1.0);
  EXPECT_NEAR(fn->elasticity_upper(10.0), 1.0, 1e-12);
  EXPECT_NEAR(fn->elasticity_upper(100.0), 10.0, 1e-12);
  EXPECT_THROW(make_exponential(0.0, 0.1), invariant_violation);
  EXPECT_THROW(make_exponential(1.0, -0.1), invariant_violation);
}

TEST(ExponentialLatency, KeepsTheParametersItWasBuiltWith) {
  // The formats store scale() and rate() as given: ℓ'(0)/ℓ(0), the old
  // reconstruction, turns a rate of 0.1 at scale 3 into
  // 0.10000000000000002.
  const LatencyPtr fn = make_exponential(3.0, 0.1);
  EXPECT_EQ(bits(fn->scale()), bits(3.0));
  EXPECT_EQ(bits(fn->rate()), bits(0.1));
  EXPECT_EQ(bits(fn->value(7.0)), bits(3.0 * std::exp(0.1 * 7.0)));
}

TEST(SlopeNu, MaxStepOnAlmostEmptyResource) {
  // x^2: steps are 1, 3, 5, ... so nu over {1..d} with d=3 is 5.
  auto quad = make_monomial(1.0, 2.0);
  EXPECT_DOUBLE_EQ(slope_nu(*quad, 3.0), 5.0);
  EXPECT_DOUBLE_EQ(slope_nu(*quad, 1.0), 1.0);
  // Constant function: zero slope.
  EXPECT_DOUBLE_EQ(slope_nu(*make_constant(7.0), 4.0), 0.0);
  // d < 1 is treated as window {1}.
  EXPECT_DOUBLE_EQ(slope_nu(*quad, 0.2), 1.0);
}

TEST(MaxStepSlope, ScansFullRange) {
  auto quad = make_monomial(1.0, 2.0);
  // Steps up to n=5: 1,3,5,7,9.
  EXPECT_DOUBLE_EQ(max_step_slope(*quad, 5), 9.0);
  EXPECT_THROW(max_step_slope(*quad, 0), invariant_violation);
}

/// The network-routing scenario's coefficients (latency_seed 7, 3x2 layered
/// network: 15 edges), linear a and quadratic 0.05·a alike.
std::vector<double> network_routing_coefficients() {
  Rng latency_rng(7);
  std::vector<double> out;
  for (int e = 0; e < 15; ++e) {
    const double a = 0.5 + latency_rng.uniform();
    out.push_back(latency_rng.bernoulli(0.5) ? a : 0.05 * a);
  }
  return out;
}

/// An exponent the compiler cannot see: with a literal 2.0 it folds
/// pow(x, 2.0) into x*x and the reference would not call pow at all.
double runtime_exponent(double d) {
  volatile double hidden = d;
  return hidden;
}

TEST(MonomialValue, ExactPowersMatchPowOnEveryWholeNumberUpTo2Pow23) {
  // The degree-1 and degree-2 shortcuts are exact; this pins that pow
  // agrees bit for bit on every whole load the engines reach at n <= 2^23.
  const std::vector<double> coefficients = network_routing_coefficients();
  const double d1 = runtime_exponent(1.0);
  const double d2 = runtime_exponent(2.0);
  std::int64_t mismatches = 0;
  for (std::int64_t i = 0; i <= (std::int64_t{1} << 23); ++i) {
    const auto x = static_cast<double>(i);
    const double p1 = std::pow(x, d1);
    const double p2 = std::pow(x, d2);
    for (const double a : coefficients) {
      mismatches += bits(monomial_value(a, d1, x)) != bits(a * p1);
      mismatches += bits(monomial_value(a, d2, x)) != bits(a * p2);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(MonomialValue, OtherInputsTakeThePowFallback) {
  // Fractional, beyond-the-exact-range, and scaled (x/n) arguments,
  // plus non-integer and higher degrees: all bitwise a * pow(x, d). For a
  // fractional x, pow(x, 2) and x*x can differ in the last bit (glibc does
  // at several of the scaled loads below), so these checks fail if such
  // an argument took the x*x shortcut.
  const std::vector<double> xs{0.5,    2.25,   1e-3,        12345.678,
                               9e7,    9e7 + 1.0, 1.5e8,    0x1p40,
                               0x1p53, 7.0 / 300.0, 805.0 / 300.0, 1e300};
  for (const double a : network_routing_coefficients()) {
    for (const double degree : {1.0, 2.0, 0.5, 3.0, 2.5}) {
      const double d = runtime_exponent(degree);
      for (const double x : xs) {
        EXPECT_EQ(bits(monomial_value(a, d, x)), bits(a * std::pow(x, d)))
            << "a=" << a << " d=" << d << " x=" << x;
      }
    }
  }
  EXPECT_EQ(bits(monomial_value(3.0, 0.0, 5.0)), bits(3.0));
  const double d2 = runtime_exponent(2.0);
  for (const double a : {0.05, 0.7, 1.3}) {
    const LatencyPtr scaled = make_scaled(make_monomial(a, 2.0), 300);
    for (std::int64_t load = 0; load <= 2000; ++load) {
      const auto x = static_cast<double>(load);
      ASSERT_EQ(bits(scaled->value(x)), bits(a * std::pow(x / 300.0, d2)))
          << "a=" << a << " load=" << load;
    }
  }
}

TEST(Factories, DescribeStrings) {
  EXPECT_EQ(make_linear(2.0)->describe(), "2*x^1");
  EXPECT_NE(make_affine(2.0, 1.0)->describe().find("2*x"), std::string::npos);
  EXPECT_NE(make_scaled(make_linear(1.0), 10)->describe().find("x/10"),
            std::string::npos);
}

}  // namespace
}  // namespace cid
