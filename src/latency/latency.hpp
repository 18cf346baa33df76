// Latency functions (paper §2.1–2.2).
//
// A latency function is a non-decreasing, differentiable ℓ: R≥0 → R≥0 with
// ℓ(x) > 0 for x > 0. Two derived quantities drive the IMITATION PROTOCOL:
//
//   * elasticity  d ≥ sup_{x∈(0,n]} x·ℓ'(x)/ℓ(x)   — the damping factor 1/d
//     in the migration probability (μ_PQ = λ/d · relative gain);
//   * slope       ν_e = max_{x∈{1..⌈d⌉}} ℓ(x)−ℓ(x−1) — the minimum-gain
//     cutoff that controls probabilistic effects on almost-empty resources.
//
// LatencyFunction is one closed value type over the five kinds the game
// formats store (constant, monomial, polynomial, exponential, scaled), each
// with an analytic elasticity bound. Code that needs the shape switches on
// kind(); with -Wswitch under -Werror a new kind must reach every switch.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cid {

// ---- Format caps -----------------------------------------------------------
//
// Shared by the text format (game/io.cpp) and the binary snapshot codec
// (persist/codec.cpp). The factories enforce the structural caps, so every
// function a game holds can be written and read back by both formats; the
// readers check them again before building anything from hostile bytes.

/// Scaled levels in one function; make_scaled refuses deeper nesting.
inline constexpr int kMaxScaledNesting = 16;
/// Coefficients of one polynomial (after trimming trailing zeros);
/// make_polynomial refuses more.
inline constexpr std::size_t kMaxPolynomialCoefficients = 64;
/// Elasticity bound over the player count. Building a game costs O(d)
/// (slope_nu scans loads 1..⌈d⌉), so the cap bounds what a hostile file
/// can cost to load.
inline constexpr double kMaxElasticity = 1u << 20;

// ---- The formulas ----------------------------------------------------------
//
// Each is the one expression behind both LatencyFunction::value and
// LatencyTable::value, so the two agree bit for bit.

/// a·x^d. Degree 0 is the constant a. Degree 1 returns a·x, since pow(x, 1)
/// is exactly x. Degree 2 at a whole x ≤ 9e7 returns a·(x·x): x·x < 2^53 is
/// then exact, and a faithful pow returns an exactly representable result
/// unchanged. Every other input goes through std::pow, so for d > 0 the
/// result is bitwise a * std::pow(x, d).
inline double monomial_value(double a, double d, double x) {
  if (d == 0.0) return a;
  if (d == 1.0) return a * x;
  if (d == 2.0 && x >= 0.0 && x <= 9e7 &&
      static_cast<double>(static_cast<std::int64_t>(x)) == x) {
    return a * (x * x);
  }
  return a * std::pow(x, d);
}

/// Σ_k c[k]·x^k by Horner's rule, highest degree first.
inline double horner_value(const double* c, std::size_t len, double x) {
  double acc = 0.0;
  for (std::size_t i = len; i-- > 0;) acc = acc * x + c[i];
  return acc;
}

/// a·exp(b·x).
inline double exponential_value(double a, double b, double x) {
  return a * std::exp(b * x);
}

class LatencyFunction;
using LatencyPtr = std::shared_ptr<const LatencyFunction>;

class LatencyFunction final {
 public:
  enum class Kind : std::uint8_t {
    kConstant,     // c > 0; elasticity 0
    kMonomial,     // a·x^d, a > 0, d >= 0; elasticity exactly d
    kPolynomial,   // Σ_k a_k·x^k, a_k >= 0, not all zero; elasticity ≤ degree
    kExponential,  // a·exp(b·x), a > 0, b >= 0; elasticity b·x, unbounded
    kScaled,       // base(x / n), n > 0: the paper's §5 normalization
  };

  Kind kind() const noexcept { return kind_; }

  /// ℓ(x). Precondition: x >= 0.
  double value(double x) const;

  /// Upper bound on the elasticity over (0, x_max].
  double elasticity_upper(double x_max) const;

  /// Human-readable description, e.g. "3*x^2".
  std::string describe() const;

  // Parameters, each meaningful for the kinds named.
  double constant() const noexcept { return a_; }     // kConstant
  double coefficient() const noexcept { return a_; }  // kMonomial
  double degree() const noexcept { return b_; }       // kMonomial
  double scale() const noexcept { return a_; }        // kExponential
  double rate() const noexcept { return b_; }         // kExponential
  /// kPolynomial: coefficients()[k] multiplies x^k; no trailing zeros.
  const std::vector<double>& coefficients() const noexcept { return coef_; }
  std::int64_t divisor() const noexcept { return n_; }              // kScaled
  const LatencyFunction& base() const noexcept { return *base_; }  // kScaled

 private:
  explicit LatencyFunction(Kind kind, double a = 0.0, double b = 0.0)
      : kind_(kind), a_(a), b_(b) {}

  friend LatencyPtr make_constant(double c);
  friend LatencyPtr make_monomial(double a, double d);
  friend LatencyPtr make_polynomial(std::vector<double> coefficients);
  friend LatencyPtr make_scaled(LatencyPtr base, std::int64_t n);
  friend LatencyPtr make_exponential(double a, double b);

  Kind kind_;
  double a_;  // constant c / monomial or exponential a
  double b_;  // monomial degree / exponential rate
  std::vector<double> coef_;  // kPolynomial
  std::int64_t n_ = 0;        // kScaled: the divisor as given, so the
                              // formats write back the n they read
  LatencyPtr base_;           // kScaled
};

// ---- Factory helpers -------------------------------------------------------

LatencyPtr make_constant(double c);
LatencyPtr make_linear(double a);               // a·x
LatencyPtr make_affine(double a, double b);     // a·x + b
LatencyPtr make_monomial(double a, double d);   // a·x^d
LatencyPtr make_polynomial(std::vector<double> coefficients);
LatencyPtr make_scaled(LatencyPtr base, std::int64_t n);
LatencyPtr make_exponential(double a, double b);

// ---- Derived protocol quantities (§2.2) ------------------------------------

/// ν_e = max_{x∈{1..max(1,⌈d⌉)}} ℓ(x)−ℓ(x−1): max slope on almost-empty
/// resources.
double slope_nu(const LatencyFunction& fn, double elasticity_d);

/// β-style global slope bound over integer loads 1..n (used by the
/// EXPLORATION PROTOCOL's damping): max_{x∈{1..n}} ℓ(x)−ℓ(x−1).
double max_step_slope(const LatencyFunction& fn, std::int64_t n);

}  // namespace cid
