// Tests-only copy of the binomial CDF-inversion sampler as it stood before
// Rng::binomial_inversion tested its first uniform against
// binomial_zero_bound. tests/test_rng.cpp pins the production sampler to
// this walk value for value and draw for draw.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace cid::test {

/// Binomial(n, p) by CDF inversion from k = 0, drawing from `rng` exactly
/// as the pre-squeeze sampler did. Valid in the inversion regime of
/// Rng::binomial: n > 32, 0 < p <= 1/2, n·p < 12.
std::int64_t binomial_inversion_reference(Rng& rng, std::int64_t n, double p);

}  // namespace cid::test
