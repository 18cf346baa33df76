#include "latency/latency.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace cid {

double LatencyFunction::derivative(double x) const {
  // Central difference with a scale-aware step; falls back to a forward
  // difference at the left boundary.
  const double h = std::max(1e-6, std::abs(x) * 1e-6);
  if (x - h < 0.0) return (value(x + h) - value(x)) / h;
  return (value(x + h) - value(x - h)) / (2.0 * h);
}

double LatencyFunction::elasticity_upper(double x_max) const {
  CID_ENSURE(x_max > 0.0, "elasticity domain must be non-degenerate");
  // Sup of x·ℓ'(x)/ℓ(x) over a geometric grid on (0, x_max], inflated by a
  // safety factor to stay an *upper* bound despite sampling. Concrete
  // subclasses override this with exact values where available.
  double sup = 0.0;
  const int kSamples = 512;
  const double lo = std::min(1e-6, x_max / 2.0);
  const double ratio = std::pow(x_max / lo, 1.0 / (kSamples - 1));
  double x = lo;
  for (int i = 0; i < kSamples; ++i) {
    const double fx = value(x);
    if (fx > 0.0) {
      sup = std::max(sup, x * derivative(x) / fx);
    }
    x *= ratio;
  }
  return sup * 1.05;
}

// ---- ConstantLatency --------------------------------------------------------

ConstantLatency::ConstantLatency(double c) : c_(c) {
  CID_ENSURE(c > 0.0, "constant latency must be positive");
}

std::string ConstantLatency::describe() const {
  std::ostringstream os;
  os << c_;
  return os.str();
}

// ---- MonomialLatency --------------------------------------------------------

MonomialLatency::MonomialLatency(double coefficient, double degree)
    : coefficient_(coefficient), degree_(degree) {
  CID_ENSURE(coefficient > 0.0, "monomial coefficient must be positive");
  CID_ENSURE(degree >= 0.0, "monomial degree must be non-negative");
}

double MonomialLatency::value(double x) const {
  CID_ENSURE(x >= 0.0, "latency argument must be non-negative");
  return monomial_value(coefficient_, degree_, x);
}

double MonomialLatency::derivative(double x) const {
  if (degree_ == 0.0) return 0.0;
  if (x == 0.0) return degree_ == 1.0 ? coefficient_ : 0.0;
  return coefficient_ * degree_ * std::pow(x, degree_ - 1.0);
}

std::string MonomialLatency::describe() const {
  std::ostringstream os;
  os << coefficient_ << "*x^" << degree_;
  return os.str();
}

// ---- PolynomialLatency ------------------------------------------------------

PolynomialLatency::PolynomialLatency(std::vector<double> coefficients)
    : coef_(std::move(coefficients)) {
  CID_ENSURE(!coef_.empty(), "polynomial needs at least one coefficient");
  bool any_positive = false;
  for (double a : coef_) {
    CID_ENSURE(a >= 0.0, "polynomial coefficients must be non-negative");
    any_positive = any_positive || a > 0.0;
  }
  CID_ENSURE(any_positive, "polynomial must not be identically zero");
  while (coef_.size() > 1 && coef_.back() == 0.0) coef_.pop_back();
}

int PolynomialLatency::degree() const noexcept {
  return static_cast<int>(coef_.size()) - 1;
}

double PolynomialLatency::value(double x) const {
  CID_ENSURE(x >= 0.0, "latency argument must be non-negative");
  // Horner evaluation.
  double acc = 0.0;
  for (std::size_t i = coef_.size(); i-- > 0;) {
    acc = acc * x + coef_[i];
  }
  return acc;
}

double PolynomialLatency::derivative(double x) const {
  double acc = 0.0;
  for (std::size_t i = coef_.size(); i-- > 1;) {
    acc = acc * x + coef_[i] * static_cast<double>(i);
  }
  return acc;
}

double PolynomialLatency::elasticity_upper(double) const {
  // For non-negative coefficients, x·ℓ'/ℓ = Σ k a_k x^k / Σ a_k x^k ≤ max
  // degree with a_k > 0 — exact, independent of the domain.
  int dmax = 0;
  for (std::size_t k = 0; k < coef_.size(); ++k) {
    if (coef_[k] > 0.0) dmax = static_cast<int>(k);
  }
  return static_cast<double>(dmax);
}

std::string PolynomialLatency::describe() const {
  std::ostringstream os;
  bool first = true;
  for (std::size_t k = coef_.size(); k-- > 0;) {
    if (coef_[k] == 0.0 && !(first && k == 0)) continue;
    if (!first) os << " + ";
    os << coef_[k];
    if (k >= 1) os << "*x";
    if (k >= 2) os << "^" << k;
    first = false;
  }
  return os.str();
}

// ---- ScaledLatency ----------------------------------------------------------

ScaledLatency::ScaledLatency(LatencyPtr base, std::int64_t n)
    : base_(std::move(base)), n_(static_cast<double>(n)) {
  CID_ENSURE(base_ != nullptr, "scaled latency needs a base function");
  CID_ENSURE(n > 0, "scaled latency needs n > 0");
}

double ScaledLatency::value(double x) const { return base_->value(x / n_); }

double ScaledLatency::derivative(double x) const {
  return base_->derivative(x / n_) / n_;
}

double ScaledLatency::elasticity_upper(double x_max) const {
  // x·ℓ'(x/n)/n / ℓ(x/n) = (x/n)·ℓ'(x/n)/ℓ(x/n): elasticity is invariant
  // under the scaling, evaluated on the scaled domain.
  return base_->elasticity_upper(x_max / n_);
}

std::string ScaledLatency::describe() const {
  std::ostringstream os;
  os << "(" << base_->describe() << ")(x/" << n_ << ")";
  return os.str();
}

// ---- ExponentialLatency -----------------------------------------------------

ExponentialLatency::ExponentialLatency(double scale, double rate)
    : scale_(scale), rate_(rate) {
  CID_ENSURE(scale > 0.0, "exponential scale must be positive");
  CID_ENSURE(rate >= 0.0, "exponential rate must be non-negative");
}

double ExponentialLatency::value(double x) const {
  CID_ENSURE(x >= 0.0, "latency argument must be non-negative");
  return scale_ * std::exp(rate_ * x);
}

double ExponentialLatency::derivative(double x) const {
  return scale_ * rate_ * std::exp(rate_ * x);
}

double ExponentialLatency::elasticity_upper(double x_max) const {
  // x·ℓ'/ℓ = b·x, maximized at the right end of the domain.
  return rate_ * x_max;
}

std::string ExponentialLatency::describe() const {
  std::ostringstream os;
  os << scale_ << "*exp(" << rate_ << "*x)";
  return os.str();
}

// ---- Factories --------------------------------------------------------------

LatencyPtr make_constant(double c) {
  return std::make_shared<ConstantLatency>(c);
}

LatencyPtr make_linear(double a) {
  return std::make_shared<MonomialLatency>(a, 1.0);
}

LatencyPtr make_affine(double a, double b) {
  return std::make_shared<PolynomialLatency>(std::vector<double>{b, a});
}

LatencyPtr make_monomial(double a, double d) {
  return std::make_shared<MonomialLatency>(a, d);
}

LatencyPtr make_polynomial(std::vector<double> coefficients) {
  return std::make_shared<PolynomialLatency>(std::move(coefficients));
}

LatencyPtr make_scaled(LatencyPtr base, std::int64_t n) {
  return std::make_shared<ScaledLatency>(std::move(base), n);
}

LatencyPtr make_exponential(double a, double b) {
  return std::make_shared<ExponentialLatency>(a, b);
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
