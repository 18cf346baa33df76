#include "support/reference_rng.hpp"

#include <algorithm>
#include <cmath>

namespace cid::test {

std::int64_t binomial_inversion_reference(Rng& rng, std::int64_t n,
                                          double p) {
  // CDF inversion starting from k = 0; expected work O(np + 1).
  const double q = 1.0 - p;
  const double s = p / q;
  const double f0 = std::pow(q, static_cast<double>(n));
  for (;;) {
    double u = rng.uniform();
    double f = f0;
    // Cap the walk generously above the mean; restart on the (measure-zero
    // in exact arithmetic, tiny in floating point) event of tail rounding.
    const std::int64_t cap =
        std::min<std::int64_t>(n, static_cast<std::int64_t>(
                                      static_cast<double>(n) * p + 64.0 +
                                      16.0 * std::sqrt(static_cast<double>(n) *
                                                       p * q)));
    for (std::int64_t k = 0; k <= cap; ++k) {
      if (u < f) return k;
      u -= f;
      f *= s * static_cast<double>(n - k) / static_cast<double>(k + 1);
    }
  }
}

std::vector<std::int64_t> multinomial_reference(Rng& rng, std::int64_t n,
                                                std::span<const double> probs) {
  std::vector<std::int64_t> out(probs.size(), 0);
  std::int64_t left = n;
  double remaining = 1.0;
  for (std::size_t i = 0; i < probs.size() && left > 0; ++i) {
    const double pi = probs[i];
    if (pi <= 0.0) continue;
    // Conditional probability of category i given not in categories < i.
    const double cond =
        remaining <= 0.0 ? 1.0 : std::min(1.0, pi / remaining);
    out[i] = rng.binomial(left, cond);
    left -= out[i];
    remaining -= pi;
  }
  return out;
}

}  // namespace cid::test
