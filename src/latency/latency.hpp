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
// Concrete classes provide analytic elasticity where it is exact (monomials:
// exactly d; positive-coefficient polynomials: ≤ degree); the base class
// supplies a conservative numeric fallback on a geometric grid.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cid {

/// a·x^d: the one monomial formula, shared by MonomialLatency::value and
/// LatencyTable::value. Degree 0 is the constant a. Degree 1 returns a·x,
/// since pow(x, 1) is exactly x. Degree 2 at a whole x ≤ 9e7 returns
/// a·(x·x): x·x < 2^53 is then exact, and a faithful pow returns an exactly
/// representable result unchanged. Every other input goes through std::pow,
/// so for d > 0 the result is bitwise a * std::pow(x, d).
inline double monomial_value(double a, double d, double x) {
  if (d == 0.0) return a;
  if (d == 1.0) return a * x;
  if (d == 2.0 && x >= 0.0 && x <= 9e7 &&
      static_cast<double>(static_cast<std::int64_t>(x)) == x) {
    return a * (x * x);
  }
  return a * std::pow(x, d);
}

class LatencyFunction {
 public:
  virtual ~LatencyFunction() = default;

  /// ℓ(x). Precondition: x >= 0.
  virtual double value(double x) const = 0;

  /// ℓ'(x). Default: central finite difference.
  virtual double derivative(double x) const;

  /// Upper bound on the elasticity over (0, x_max].
  /// Default: numeric sup over a geometric grid (conservatively inflated).
  virtual double elasticity_upper(double x_max) const;

  /// Human-readable description, e.g. "3.00*x^2".
  virtual std::string describe() const = 0;
};

using LatencyPtr = std::shared_ptr<const LatencyFunction>;

/// ℓ(x) = c, c > 0. (Elasticity 0; the paper's two-link overshoot example
/// uses one constant link.)
class ConstantLatency final : public LatencyFunction {
 public:
  explicit ConstantLatency(double c);
  double value(double) const override { return c_; }
  double derivative(double) const override { return 0.0; }
  double elasticity_upper(double) const override { return 0.0; }
  std::string describe() const override;
  double constant() const noexcept { return c_; }

 private:
  double c_;
};

/// ℓ(x) = a·x^d with a > 0, d >= 0. Elasticity is exactly d.
class MonomialLatency final : public LatencyFunction {
 public:
  MonomialLatency(double coefficient, double degree);
  double value(double x) const override;
  double derivative(double x) const override;
  double elasticity_upper(double) const override { return degree_; }
  std::string describe() const override;
  double coefficient() const noexcept { return coefficient_; }
  double degree() const noexcept { return degree_; }

 private:
  double coefficient_;
  double degree_;
};

/// ℓ(x) = Σ_k a_k·x^k with a_k >= 0, at least one a_k > 0 for k such that
/// ℓ(x) > 0 for x > 0. Elasticity ≤ max degree with non-zero coefficient.
class PolynomialLatency final : public LatencyFunction {
 public:
  /// coefficients[k] is the coefficient of x^k.
  explicit PolynomialLatency(std::vector<double> coefficients);
  double value(double x) const override;
  double derivative(double x) const override;
  double elasticity_upper(double x_max) const override;
  std::string describe() const override;
  const std::vector<double>& coefficients() const noexcept { return coef_; }
  int degree() const noexcept;

 private:
  std::vector<double> coef_;
};

/// ℓⁿ(x) = base(x / n): the paper's §5 normalization for Theorem 9
/// ("n agents of weight 1/n each"). Elasticity is unchanged; the step size
/// ν shrinks as n grows — exactly the property Theorem 9 exploits.
class ScaledLatency final : public LatencyFunction {
 public:
  ScaledLatency(LatencyPtr base, std::int64_t n);
  double value(double x) const override;
  double derivative(double x) const override;
  double elasticity_upper(double x_max) const override;
  std::string describe() const override;
  const LatencyFunction& base() const noexcept { return *base_; }
  std::int64_t divisor() const noexcept {
    return static_cast<std::int64_t>(n_);
  }

 private:
  LatencyPtr base_;
  double n_;
};

/// ℓ(x) = a·exp(b·x), a > 0, b >= 0. Elasticity b·x is *unbounded* in x;
/// included as a stress-test class (the protocol's guarantees degrade
/// gracefully with d — bench E5 sweeps this regime).
class ExponentialLatency final : public LatencyFunction {
 public:
  ExponentialLatency(double scale, double rate);
  double value(double x) const override;
  double derivative(double x) const override;
  double elasticity_upper(double x_max) const override;
  std::string describe() const override;

 private:
  double scale_;
  double rate_;
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
