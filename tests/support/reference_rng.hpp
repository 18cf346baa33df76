// Tests-only copies of samplers as they stood before a faster production
// form: the binomial CDF-inversion walk before Rng::binomial_inversion
// tested its first uniform against binomial_zero_bound, and the multinomial
// loop before it inlined that test. tests/test_rng.cpp pins the production
// samplers to them value for value and draw for draw.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace cid::test {

/// Binomial(n, p) by CDF inversion from k = 0, drawing from `rng` exactly
/// as the pre-squeeze sampler did. Valid in the inversion regime of
/// Rng::binomial: n > 32, 0 < p <= 1/2, n·p < 12.
std::int64_t binomial_inversion_reference(Rng& rng, std::int64_t n, double p);

/// Multinomial(n, probs) by sequential conditional binomials, each through
/// Rng::binomial, drawing from `rng` exactly as Rng::multinomial did before
/// its loop inlined the inversion's zero squeeze.
std::vector<std::int64_t> multinomial_reference(Rng& rng, std::int64_t n,
                                                std::span<const double> probs);

}  // namespace cid::test
