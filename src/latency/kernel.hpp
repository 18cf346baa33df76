// LatencyTable: flat latency evaluation for the round kernels' hot loops.
//
// The batched engines evaluate ℓ_e at integer loads millions of times per
// run. LatencyTable flattens a game's latency functions into one
// contiguous parameter array when the game is built (a cold path): each
// resource's entry is filled from LatencyFunction::kind() and its
// parameters, with one level of scaling folded in as a divisor, and the
// hot-path value() is a switch over plain arithmetic — polynomial
// coefficients live in a single shared vector, Horner-evaluated in place.
// Only scaled-of-scaled entries evaluate through LatencyFunction::value.
//
// Bitwise contract: value(e, x) reproduces game.latency(e).value(x)
// bit-for-bit — the same formula helpers (monomial_value, horner_value,
// exponential_value) in the same order, including the scaled kind's x/n
// pre-division (the always-applied divisor defaults to 1.0, and x / 1.0 ==
// x bitwise). The only delta is deliberate: the argument-range CID_ENSUREs
// of LatencyFunction::value are demoted to CID_DCHECK here (hot loop; the
// engines only ever pass loads >= 0). tests/test_kernel_concepts.cpp pins
// value() to every function shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "latency/latency.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace cid {

class LatencyTable {
 public:
  void reserve(std::size_t m) { entries_.reserve(m); }

  /// Appends the next resource (index size()) backed by `fn`. `fn` must
  /// outlive the table: a scaled-of-scaled entry keeps a pointer to it (the
  /// games and the LatencyContexts hold the functions for at least as
  /// long).
  void add(const LatencyFunction& fn);

  std::size_t size() const noexcept { return entries_.size(); }

  /// ℓ_e(x), bitwise equal to the fn.value(x) the entry was built from.
  /// Precondition (debug-checked only — hot loop): x >= 0.
  double value(std::size_t e, double x) const {
    const Entry& en = entries_[e];
    switch (en.kind) {
      case Kind::kConstant:
        return eval<Kind::kConstant>(en, x);
      case Kind::kMonomial:
        return eval<Kind::kMonomial>(en, x);
      case Kind::kPolynomial:
        return eval<Kind::kPolynomial>(en, x);
      case Kind::kExponential:
        return eval<Kind::kExponential>(en, x);
      case Kind::kScaled:
        return eval<Kind::kScaled>(en, x);
    }
    CID_ENSURE(false, "unreachable latency kind");
    return 0.0;
  }

  /// Rosenthal's Φ = Σ_e Σ_{i=1..loads[e]} ℓ_e(i), the one Φ behind both
  /// game classes' potential(), under outcome semantics v2: O(m), not
  /// O(Σ loads). Each resource whose latency is a constant, an
  /// integer-degree monomial or a polynomial (optionally under one level of
  /// scaling) contributes closed-form Faulhaber terms:
  ///
  ///   * the terms with whole coefficients fold into one exact 128-bit
  ///     integer I = Σ_k c_k·S_k(L)·n^(D−k), with S_k(L) = Σ_{i≤L} i^k,
  ///     n the divisor (1 when unscaled) and D the highest such degree;
  ///     the resource adds I rounded once, divided by n^D;
  ///   * every other term adds c_k·S_k(L) / n^k, with S_k(L) exact, then
  ///     split into hi + lo doubles for one compensated product by c_k.
  ///
  /// Anything else (exponential, scaled-of-scaled, non-integer degree, a
  /// degree above kMaxClosedDegree, or a sum that would leave 128 bits) adds
  /// ℓ_e(1), ..., ℓ_e(L) one by one. Every term goes into one NeumaierSum
  /// in resource order.
  double potential(std::span<const std::int64_t> loads) const;

  /// Highest integer degree the closed forms handle.
  static constexpr int kMaxClosedDegree = 16;

 private:
  using Kind = LatencyFunction::Kind;
  struct Entry {
    Kind kind = Kind::kConstant;
    double a = 0.0;        // constant c / monomial or exponential a
    double b = 0.0;        // monomial degree / exponential rate
    double divisor = 1.0;  // scaled n; x / 1.0 == x bitwise otherwise
    std::uint32_t offset = 0;  // polynomial slice [offset, offset+len) of coef_
    std::uint32_t len = 0;
    bool closed = false;  // Φ has closed-form terms (see potential())
    const LatencyFunction* fn = nullptr;  // kScaled: scaled-of-scaled
  };

  /// ℓ(x) for an entry of kind K: the shared formula helpers.
  template <Kind K>
  double eval(const Entry& en, double x) const {
    if constexpr (K == Kind::kConstant) {
      return en.a;
    } else if constexpr (K == Kind::kScaled) {
      return en.fn->value(x);
    } else {
      const double xx = x / en.divisor;
      CID_DCHECK(xx >= 0.0, "latency argument must be non-negative");
      if constexpr (K == Kind::kMonomial) {
        return monomial_value(en.a, en.b, xx);
      } else if constexpr (K == Kind::kPolynomial) {
        return horner_value(coef_.data() + en.offset, en.len, xx);
      } else {
        return exponential_value(en.a, en.b, xx);
      }
    }
  }

  /// acc += ℓ(1), ℓ(2), ..., ℓ(load), left to right.
  template <Kind K>
  void add_prefix(const Entry& en, std::int64_t load, NeumaierSum& acc) const {
    for (std::int64_t i = 1; i <= load; ++i) {
      acc.add(eval<K>(en, static_cast<double>(i)));
    }
  }

  /// Adds the closed-form terms of a `closed` entry at `load`; false
  /// (adding nothing) when an exact sum would leave 128 bits.
  bool add_closed_form(const Entry& en, std::int64_t load,
                       NeumaierSum& acc) const;

  std::vector<Entry> entries_;
  std::vector<double> coef_;  // every polynomial's coefficients, contiguous
};

}  // namespace cid
