#include "latency/latency.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace cid {

double LatencyFunction::value(double x) const {
  switch (kind_) {
    case Kind::kConstant:
      return a_;
    case Kind::kMonomial:
      CID_ENSURE(x >= 0.0, "latency argument must be non-negative");
      return monomial_value(a_, b_, x);
    case Kind::kPolynomial:
      CID_ENSURE(x >= 0.0, "latency argument must be non-negative");
      return horner_value(coef_.data(), coef_.size(), x);
    case Kind::kExponential:
      CID_ENSURE(x >= 0.0, "latency argument must be non-negative");
      return exponential_value(a_, b_, x);
    case Kind::kScaled:
      return base_->value(x / static_cast<double>(n_));
  }
  CID_ENSURE(false, "unreachable latency kind");
  return 0.0;
}

double LatencyFunction::elasticity_upper(double x_max) const {
  switch (kind_) {
    case Kind::kConstant:
      return 0.0;
    case Kind::kMonomial:
      return b_;
    case Kind::kPolynomial:
      // For non-negative coefficients, x·ℓ'/ℓ = Σ k a_k x^k / Σ a_k x^k ≤
      // the degree (whose coefficient is positive: trailing zeros are
      // trimmed) — exact, independent of the domain.
      return static_cast<double>(coef_.size() - 1);
    case Kind::kExponential:
      // x·ℓ'/ℓ = b·x, maximized at the right end of the domain.
      return b_ * x_max;
    case Kind::kScaled:
      // x·ℓ'(x/n)/n / ℓ(x/n) = (x/n)·ℓ'(x/n)/ℓ(x/n): elasticity is
      // invariant under the scaling, evaluated on the scaled domain.
      return base_->elasticity_upper(x_max / static_cast<double>(n_));
  }
  CID_ENSURE(false, "unreachable latency kind");
  return 0.0;
}

std::string LatencyFunction::describe() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kConstant:
      os << a_;
      break;
    case Kind::kMonomial:
      os << a_ << "*x^" << b_;
      break;
    case Kind::kPolynomial: {
      bool first = true;
      for (std::size_t k = coef_.size(); k-- > 0;) {
        if (coef_[k] == 0.0 && !(first && k == 0)) continue;
        if (!first) os << " + ";
        os << coef_[k];
        if (k >= 1) os << "*x";
        if (k >= 2) os << "^" << k;
        first = false;
      }
      break;
    }
    case Kind::kExponential:
      os << a_ << "*exp(" << b_ << "*x)";
      break;
    case Kind::kScaled:
      os << "(" << base_->describe() << ")(x/" << n_ << ")";
      break;
  }
  return os.str();
}

// ---- Factories --------------------------------------------------------------

LatencyPtr make_constant(double c) {
  CID_ENSURE(c > 0.0, "constant latency must be positive");
  return std::make_shared<const LatencyFunction>(
      LatencyFunction(LatencyFunction::Kind::kConstant, c));
}

LatencyPtr make_linear(double a) { return make_monomial(a, 1.0); }

LatencyPtr make_affine(double a, double b) {
  return make_polynomial(std::vector<double>{b, a});
}

LatencyPtr make_monomial(double a, double d) {
  CID_ENSURE(a > 0.0, "monomial coefficient must be positive");
  CID_ENSURE(d >= 0.0, "monomial degree must be non-negative");
  return std::make_shared<const LatencyFunction>(
      LatencyFunction(LatencyFunction::Kind::kMonomial, a, d));
}

LatencyPtr make_polynomial(std::vector<double> coefficients) {
  CID_ENSURE(!coefficients.empty(),
             "polynomial needs at least one coefficient");
  bool any_positive = false;
  for (double a : coefficients) {
    CID_ENSURE(a >= 0.0, "polynomial coefficients must be non-negative");
    any_positive = any_positive || a > 0.0;
  }
  CID_ENSURE(any_positive, "polynomial must not be identically zero");
  while (coefficients.size() > 1 && coefficients.back() == 0.0) {
    coefficients.pop_back();
  }
  CID_ENSURE(coefficients.size() <= kMaxPolynomialCoefficients,
             "polynomial has more than " +
                 std::to_string(kMaxPolynomialCoefficients) +
                 " coefficients");
  LatencyFunction fn(LatencyFunction::Kind::kPolynomial);
  fn.coef_ = std::move(coefficients);
  return std::make_shared<const LatencyFunction>(std::move(fn));
}

LatencyPtr make_scaled(LatencyPtr base, std::int64_t n) {
  CID_ENSURE(base != nullptr, "scaled latency needs a base function");
  CID_ENSURE(n > 0, "scaled latency needs n > 0");
  int levels = 1;
  for (const LatencyFunction* f = base.get();
       f->kind() == LatencyFunction::Kind::kScaled; f = &f->base()) {
    ++levels;
  }
  CID_ENSURE(levels <= kMaxScaledNesting,
             "scaled latency nested deeper than " +
                 std::to_string(kMaxScaledNesting));
  LatencyFunction fn(LatencyFunction::Kind::kScaled);
  fn.n_ = n;
  fn.base_ = std::move(base);
  return std::make_shared<const LatencyFunction>(std::move(fn));
}

LatencyPtr make_exponential(double a, double b) {
  CID_ENSURE(a > 0.0, "exponential scale must be positive");
  CID_ENSURE(b >= 0.0, "exponential rate must be non-negative");
  return std::make_shared<const LatencyFunction>(
      LatencyFunction(LatencyFunction::Kind::kExponential, a, b));
}

// ---- Derived quantities -----------------------------------------------------

double slope_nu(const LatencyFunction& fn, double elasticity_d) {
  const auto upper = static_cast<std::int64_t>(
      std::max(1.0, std::ceil(elasticity_d)));
  double nu = 0.0;
  for (std::int64_t x = 1; x <= upper; ++x) {
    nu = std::max(nu, fn.value(static_cast<double>(x)) -
                          fn.value(static_cast<double>(x - 1)));
  }
  return nu;
}

double max_step_slope(const LatencyFunction& fn, std::int64_t n) {
  CID_ENSURE(n >= 1, "max_step_slope needs n >= 1");
  // ℓ(x−1) carries over from the previous step: value() is a pure function,
  // so each step subtracts the same two doubles a fresh evaluation would.
  double beta = 0.0;
  double prev = fn.value(0.0);
  for (std::int64_t x = 1; x <= n; ++x) {
    const double cur = fn.value(static_cast<double>(x));
    beta = std::max(beta, cur - prev);
    prev = cur;
  }
  return beta;
}

}  // namespace cid
