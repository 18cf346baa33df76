// Statistics toolkit used by the experiment harness and the tests.
//
// Everything here is deliberately dependency-free and numerically careful:
// Welford accumulation for moments, exact order statistics for quantiles,
// OLS in user-chosen coordinates (the benches fit convergence times in
// (log n, tau) space to test the paper's logarithmic-in-n claim), and a
// percentile bootstrap for confidence intervals on small trial counts.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace cid {

class Rng;

/// Single-pass mean/variance accumulator (Welford).
class RunningStat {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two observations.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  /// Standard error of the mean; 0 for fewer than two observations.
  double sem() const noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Neumaier-compensated sum in double: the one cross-term summation every
/// outcome accumulator uses (Φ, ΔΦ, L_av). The same terms added in the same
/// order give the same bits on every IEEE-754 platform — unlike an
/// extended-precision accumulator, whose width varies (64, 80 or 128 bits).
class NeumaierSum {
 public:
  void add(double x) noexcept {
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      comp_ += (sum_ - t) + x;
    } else {
      comp_ += (x - t) + sum_;
    }
    sum_ = t;
  }
  /// The compensated total (an infinite running sum is returned as is).
  double value() const noexcept {
    return std::isfinite(sum_) ? sum_ + comp_ : sum_;
  }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// Five-number-style summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double q25 = 0.0;
  double median = 0.0;
  double q75 = 0.0;
  double max = 0.0;
};

/// Computes a Summary. Precondition: xs non-empty.
Summary summarize(std::span<const double> xs);

/// Linear interpolation quantile (type-7). Precondition: xs non-empty,
/// 0 <= q <= 1.
double quantile(std::span<const double> xs, double q);

/// Ordinary least squares fit y = intercept + slope * x.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

/// Precondition: xs.size() == ys.size() >= 2 and xs not all equal.
LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys);

/// Fits y ~ c * x^alpha by OLS on (log x, log y); returns {alpha, log c, R2}.
/// Precondition: all xs, ys strictly positive.
LinearFit log_log_fit(std::span<const double> xs, std::span<const double> ys);

/// Percentile bootstrap CI for the mean.
struct BootstrapCi {
  double lo = 0.0;
  double hi = 0.0;
};
BootstrapCi bootstrap_mean_ci(std::span<const double> xs, double level,
                              int resamples, Rng& rng);

/// Pearson chi-square statistic for observed counts vs expected counts.
/// Precondition: same non-zero size; all expected > 0.
double chi_square_statistic(std::span<const double> observed,
                            std::span<const double> expected);

}  // namespace cid
