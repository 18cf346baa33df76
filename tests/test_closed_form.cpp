// Closed-form Rosenthal potential (outcome semantics v2).
//
// LatencyTable::potential sums each polynomial-family resource through
// Faulhaber closed forms instead of an O(load) loop. This suite pins the
// definition against independent references:
//
//   * whole coefficients — Φ of one resource equals the exact integer sum
//     Σ_{i≤L} ℓ(i) rounded once to double (correct rounding);
//   * real coefficients — within 1 ulp of a quad-precision reference per
//     resource (2 ulps under a scaled divisor, one rounding more);
//   * the kinds with no closed form (exponential, non-integer degree) and
//     sums that would
//     leave 128 bits keep the step loop, in a NeumaierSum;
//
// over L ∈ {0, 1, 2, 1e3, 1e6, 1e9}. There is one build of these closed
// forms; the x86-64-v3 build runs them too and writes the same bits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "latency/kernel.hpp"
#include "latency/latency.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cid {
namespace {

__extension__ typedef unsigned __int128 u128;

constexpr std::int64_t kLoads[] = {0, 1, 2, 1000, 1000000, 1000000000};

double table_potential(const LatencyFunction& fn, std::int64_t load) {
  LatencyTable table;
  table.add(fn);
  return table.potential(std::vector<std::int64_t>{load});
}

/// Σ_{i≤L} i^k from the textbook Faulhaber formulas (k ≤ 3).
u128 faulhaber(std::int64_t load, int k) {
  const auto l = static_cast<u128>(load);
  switch (k) {
    case 0:
      return l;
    case 1:
      return l * (l + 1) / 2;
    case 2:
      return l * (l + 1) * (2 * l + 1) / 6;
    default: {
      const u128 half = l * (l + 1) / 2;
      return half * half;
    }
  }
}

#if defined(__SIZEOF_FLOAT128__)
__extension__ typedef __float128 quad;

/// Distance from `got` to the exact reference `want`, in ulps of the
/// double nearest `want`.
double ulps(double got, quad want) {
  const double near = want;
  const double ulp = std::nextafter(near, INFINITY) - near;
  const quad diff = static_cast<quad>(got) - want;
  return static_cast<double>(diff < 0 ? -diff : diff) / ulp;
}

double round_exact(u128 v) {
  // Below 2^113 the quad holds v exactly, so one rounding remains.
  if (v >> 113 == 0) return static_cast<double>(static_cast<quad>(v));
  return static_cast<double>(v);
}
#endif

TEST(ClosedForm, WholeCoefficientsRoundOnce) {
#if !defined(__SIZEOF_FLOAT128__)
  GTEST_SKIP() << "no quad type on this target";
#else
  struct Case {
    LatencyPtr fn;
    std::vector<std::uint64_t> coef;  // coefficient of x^k
  };
  const std::vector<Case> cases = {
      {make_constant(3.0), {3}},
      {make_linear(1.0), {0, 1}},
      {make_linear(7.0), {0, 7}},
      {make_monomial(1.0, 2.0), {0, 0, 1}},
      {make_monomial(3.0, 2.0), {0, 0, 3}},
      {make_monomial(2.0, 3.0), {0, 0, 0, 2}},
      {make_affine(5.0, 2.0), {2, 5}},
      {make_polynomial({1.0, 2.0, 3.0}), {1, 2, 3}},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const std::int64_t load : kLoads) {
      u128 exact = 0;
      for (std::size_t k = 0; k < cases[c].coef.size(); ++k) {
        exact += cases[c].coef[k] * faulhaber(load, static_cast<int>(k));
      }
      EXPECT_EQ(table_potential(*cases[c].fn, load), round_exact(exact))
          << cases[c].fn->describe() << " at L=" << load;
    }
  }
#endif
}

TEST(ClosedForm, RealCoefficientsWithinOneUlp) {
#if !defined(__SIZEOF_FLOAT128__)
  GTEST_SKIP() << "no quad type on this target";
#else
  Rng rng(2009);
  for (int rep = 0; rep < 200; ++rep) {
    const double a = 0.01 + 10.0 * rng.uniform();
    const int degree = static_cast<int>(rng.uniform_int(4));
    const LatencyPtr fn = degree == 0 ? make_constant(a)
                                      : make_monomial(a, degree);
    for (const std::int64_t load : kLoads) {
      const quad want =
          static_cast<quad>(a) * static_cast<quad>(faulhaber(load, degree));
      EXPECT_LE(ulps(table_potential(*fn, load), want), 1.0)
          << fn->describe() << " at L=" << load;
    }
  }
#endif
}

TEST(ClosedForm, ScaledDividesOnceAfterTheIntegerSum) {
#if !defined(__SIZEOF_FLOAT128__)
  GTEST_SKIP() << "no quad type on this target";
#else
  Rng rng(13);
  for (int rep = 0; rep < 100; ++rep) {
    const double a = rep % 2 == 0 ? 3.0 : 0.01 + 10.0 * rng.uniform();
    const int degree = 1 + static_cast<int>(rng.uniform_int(2));
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.uniform_int(5000));
    const LatencyPtr fn = make_scaled(make_monomial(a, degree), n);
    const quad scale = degree == 1 ? static_cast<quad>(n)
                                   : static_cast<quad>(n) * n;
    for (const std::int64_t load : kLoads) {
      const quad want = static_cast<quad>(a) *
                        static_cast<quad>(faulhaber(load, degree)) / scale;
      EXPECT_LE(ulps(table_potential(*fn, load), want), 2.0)
          << fn->describe() << " at L=" << load;
    }
  }
#endif
}

TEST(ClosedForm, PolynomialTermsWithinOneUlpEach) {
#if !defined(__SIZEOF_FLOAT128__)
  GTEST_SKIP() << "no quad type on this target";
#else
  Rng rng(5);
  for (int rep = 0; rep < 100; ++rep) {
    std::vector<double> coef;
    for (int k = 0; k < 4; ++k) coef.push_back(0.5 + rng.uniform());
    const LatencyPtr fn = make_polynomial(coef);
    for (const std::int64_t load : kLoads) {
      quad want = 0;
      for (int k = 0; k < 4; ++k) {
        want += static_cast<quad>(coef[static_cast<std::size_t>(k)]) *
                static_cast<quad>(faulhaber(load, k));
      }
      // Four terms of at most one ulp each, plus the final rounding.
      EXPECT_LE(ulps(table_potential(*fn, load), want), 4.0)
          << fn->describe() << " at L=" << load;
    }
  }
#endif
}

/// Σ_{i≤L} ℓ(i) added step by step into one NeumaierSum: the loop the
/// kinds with no closed form keep.
double step_loop(const LatencyFunction& fn, std::int64_t load) {
  NeumaierSum acc;
  for (std::int64_t i = 1; i <= load; ++i) {
    acc.add(fn.value(static_cast<double>(i)));
  }
  return acc.value();
}

TEST(ClosedForm, OpaqueKindsAndOverflowKeepTheStepLoop) {
  const std::vector<LatencyPtr> fns = {
      make_exponential(1.1, 0.002),
      make_monomial(0.01, 2.5),
      // C(L+1, 17) leaves 128 bits at L = 1e6: falls back to the loop.
      make_monomial(1.5, 16.0),
      // Above kMaxClosedDegree: always the loop.
      make_monomial(1.0, 17.0),
  };
  for (const LatencyPtr& fn : fns) {
    for (const std::int64_t load : {0, 1, 2, 1000, 1000000}) {
      EXPECT_EQ(table_potential(*fn, load), step_loop(*fn, load))
          << fn->describe() << " at L=" << load;
    }
  }
  // Degree 16 at a small load still fits: closed form, exact integers.
  EXPECT_EQ(table_potential(*make_monomial(1.0, 16.0), 3),
            1.0 + 65536.0 + 43046721.0);
}

TEST(ClosedForm, ResourcesSumInOrderWithNeumaier) {
  // Single-term resources each add one term, so Φ is their NeumaierSum.
  const std::vector<LatencyPtr> fns = {
      make_constant(2.5),         make_linear(1.5),
      make_monomial(0.07, 2.0),   make_monomial(3.0, 0.0),
      make_linear(1e-9),          make_monomial(1e6, 2.0),
  };
  LatencyTable table;
  for (const LatencyPtr& fn : fns) table.add(*fn);
  Rng rng(17);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<std::int64_t> loads;
    NeumaierSum want;
    for (const LatencyPtr& fn : fns) {
      loads.push_back(static_cast<std::int64_t>(rng.uniform_int(3000000)));
      want.add(table_potential(*fn, loads.back()));
    }
    ASSERT_EQ(table.potential(loads), want.value()) << rep;
  }
  const std::vector<std::int64_t> short_loads(fns.size() - 1, 1);
  EXPECT_THROW(table.potential(short_loads), invariant_violation);
}

TEST(NeumaierSum, RecoversWhatPlainDoubleSumsLose) {
  NeumaierSum acc;
  acc.add(1.0);
  acc.add(1e100);
  acc.add(1.0);
  acc.add(-1e100);
  EXPECT_EQ(acc.value(), 2.0);
  NeumaierSum inf;
  inf.add(INFINITY);
  inf.add(1.0);
  EXPECT_EQ(inf.value(), INFINITY);
}

}  // namespace
}  // namespace cid
