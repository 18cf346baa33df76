#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "latency/latency.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

TEST(ConstantLatency, ValueDerivativeElasticity) {
  ConstantLatency fn(4.0);
  EXPECT_DOUBLE_EQ(fn.value(0.0), 4.0);
  EXPECT_DOUBLE_EQ(fn.value(100.0), 4.0);
  EXPECT_DOUBLE_EQ(fn.derivative(10.0), 0.0);
  EXPECT_DOUBLE_EQ(fn.elasticity_upper(1000.0), 0.0);
  EXPECT_THROW(ConstantLatency(0.0), invariant_violation);
}

TEST(MonomialLatency, ValueAndExactElasticity) {
  MonomialLatency fn(2.0, 3.0);  // 2x^3
  EXPECT_DOUBLE_EQ(fn.value(2.0), 16.0);
  EXPECT_DOUBLE_EQ(fn.derivative(2.0), 24.0);
  EXPECT_DOUBLE_EQ(fn.elasticity_upper(1e6), 3.0);
  EXPECT_THROW(fn.value(-1.0), invariant_violation);
  EXPECT_THROW(MonomialLatency(-1.0, 2.0), invariant_violation);
  EXPECT_THROW(MonomialLatency(1.0, -2.0), invariant_violation);
}

TEST(MonomialLatency, LinearDerivativeAtZero) {
  MonomialLatency lin(5.0, 1.0);
  EXPECT_DOUBLE_EQ(lin.derivative(0.0), 5.0);
  MonomialLatency quad(5.0, 2.0);
  EXPECT_DOUBLE_EQ(quad.derivative(0.0), 0.0);
}

TEST(PolynomialLatency, HornerEvaluation) {
  PolynomialLatency fn({1.0, 2.0, 3.0});  // 1 + 2x + 3x^2
  EXPECT_DOUBLE_EQ(fn.value(0.0), 1.0);
  EXPECT_DOUBLE_EQ(fn.value(2.0), 17.0);
  EXPECT_DOUBLE_EQ(fn.derivative(2.0), 14.0);
  EXPECT_EQ(fn.degree(), 2);
}

TEST(PolynomialLatency, ElasticityIsMaxActiveDegree) {
  PolynomialLatency fn({1.0, 0.0, 3.0, 0.0});  // trailing zero trimmed
  EXPECT_EQ(fn.degree(), 2);
  EXPECT_DOUBLE_EQ(fn.elasticity_upper(100.0), 2.0);
  PolynomialLatency constant({5.0});
  EXPECT_DOUBLE_EQ(constant.elasticity_upper(100.0), 0.0);
}

TEST(PolynomialLatency, RejectsInvalidCoefficients) {
  EXPECT_THROW(PolynomialLatency({}), invariant_violation);
  EXPECT_THROW(PolynomialLatency({1.0, -2.0}), invariant_violation);
  EXPECT_THROW(PolynomialLatency({0.0, 0.0}), invariant_violation);
}

TEST(ScaledLatency, MatchesBaseOnScaledArgument) {
  auto base = make_monomial(2.0, 2.0);
  ScaledLatency fn(base, 100);
  EXPECT_DOUBLE_EQ(fn.value(50.0), base->value(0.5));
  // Elasticity invariant under scaling.
  EXPECT_NEAR(fn.elasticity_upper(100.0), 2.0, 1e-9);
  // Derivative shrinks by 1/n (chain rule).
  EXPECT_NEAR(fn.derivative(50.0), base->derivative(0.5) / 100.0, 1e-9);
}

TEST(ScaledLatency, NuShrinksWithN) {
  // The §5 point: scaling leaves elasticity fixed but shrinks the step ν.
  auto base = make_linear(1.0);
  const double nu_small = slope_nu(ScaledLatency(base, 10), 1.0);
  const double nu_large = slope_nu(ScaledLatency(base, 1000), 1.0);
  EXPECT_NEAR(nu_small / nu_large, 100.0, 1e-6);
}

TEST(ExponentialLatency, UnboundedElasticityGrowsWithDomain) {
  ExponentialLatency fn(1.0, 0.1);
  EXPECT_DOUBLE_EQ(fn.value(0.0), 1.0);
  EXPECT_NEAR(fn.elasticity_upper(10.0), 1.0, 1e-12);
  EXPECT_NEAR(fn.elasticity_upper(100.0), 10.0, 1e-12);
}

TEST(NumericFallback, ElasticityUpperBoundsTruth) {
  // The generic numeric elasticity (used by classes without closed forms)
  // must upper-bound the analytic value; check against x^2 via a thin
  // wrapper that hides the override.
  class Opaque final : public LatencyFunction {
   public:
    double value(double x) const override { return 3.0 * x * x + 1e-9; }
    std::string describe() const override { return "opaque"; }
  };
  Opaque fn;
  const double est = fn.elasticity_upper(1000.0);
  EXPECT_GE(est, 2.0 - 1e-6);
  EXPECT_LE(est, 2.4);  // not wildly conservative either
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

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
  // Fractional, beyond-the-exact-range, and ScaledLatency (x/n) arguments,
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
    const ScaledLatency scaled(make_monomial(a, 2.0), 300);
    for (std::int64_t load = 0; load <= 2000; ++load) {
      const auto x = static_cast<double>(load);
      ASSERT_EQ(bits(scaled.value(x)), bits(a * std::pow(x / 300.0, d2)))
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
