// LatencyKernel concept + LatencyTable: devirtualized latency evaluation
// for the round kernels' hot loops.
//
// The batched engines evaluate ℓ_e at integer loads millions of times per
// run, and every call used to be a virtual LatencyFunction::value dispatch —
// exactly the indirection that blocks the optimizer from vectorizing the
// LatencyContext refresh. LatencyTable flattens a game's latency functions
// into one contiguous parameter array when the game is built (a cold path):
// each resource is classified once by dynamic_cast into constant / monomial
// / polynomial (with one level of ScaledLatency recognized as a divisor),
// and the hot-path value() is a non-virtual switch over plain arithmetic —
// polynomial coefficients live in a single shared vector, Horner-evaluated
// in place. Unrecognized function types fall back to the original virtual
// call per entry, so the table is complete for ANY latency function.
//
// Bitwise contract: value(e, x) reproduces game.latency(e).value(x)
// bit-for-bit — same expressions, same evaluation order, including
// ScaledLatency's x/n pre-division (the always-applied divisor defaults to
// 1.0, and x / 1.0 == x bitwise); monomials call the same monomial_value
// helper as MonomialLatency::value. The only delta is deliberate: the
// argument-range CID_ENSUREs of the virtual implementations are demoted to
// CID_DCHECK here (hot loop; the engines only ever pass loads >= 0).
//
// CID_SIMD (CMake option, default ON) gates every use of this fast path:
// building with -DCID_SIMD=OFF keeps the table compiled but routes all
// evaluation back through the virtual functions, which CI uses to prove
// the two paths byte-identical end to end. The closed-form potential() is
// not a fast path but the definition of Φ, so both builds run it.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "latency/latency.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

#ifndef CID_SIMD
#define CID_SIMD 1
#endif

namespace cid {

/// Whether the devirtualized/SIMD fast paths are compiled in (CID_SIMD
/// != 0). Hot paths branch on this `if constexpr`, so an =0 build strips
/// them entirely and falls back to the virtual frontends.
inline constexpr bool kSimdCompiled = CID_SIMD != 0;

/// Anything that can answer ℓ_e(x) for a dense resource index without
/// virtual dispatch. LatencyTable models it; a custom backend (e.g. a
/// fluid-limit engine with closed-form latencies) can substitute its own.
template <typename K>
concept LatencyKernel = requires(const K k, std::size_t e, double x) {
  { k.value(e, x) } -> std::same_as<double>;
  { k.size() } -> std::convertible_to<std::size_t>;
};

class LatencyTable {
 public:
  void reserve(std::size_t m) { entries_.reserve(m); }

  /// Appends the next resource (index size()) backed by `fn`, classifying
  /// it into a flat fast-path entry. `fn` must outlive the table — every
  /// entry keeps a pointer for the virtual fallback (the games and the
  /// LatencyContexts hold the functions for at least as long).
  void add(const LatencyFunction& fn);

  std::size_t size() const noexcept { return entries_.size(); }

  /// ℓ_e(x), bitwise equal to the virtual fn.value(x) the entry was built
  /// from. Precondition (debug-checked only — hot loop): x >= 0.
  double value(std::size_t e, double x) const {
    const Entry& en = entries_[e];
    switch (en.kind) {
      case Kind::kConstant:
        return eval<Kind::kConstant>(en, x);
      case Kind::kMonomial:
        return eval<Kind::kMonomial>(en, x);
      case Kind::kPolynomial:
        return eval<Kind::kPolynomial>(en, x);
      case Kind::kOpaque:
        return eval<Kind::kOpaque>(en, x);
    }
    CID_ENSURE(false, "unreachable latency kind");
    return 0.0;
  }

  /// Rosenthal's Φ = Σ_e Σ_{i=1..loads[e]} ℓ_e(i), the one Φ behind both
  /// game classes' potential(), under outcome semantics v2: O(m), not
  /// O(Σ loads). Each resource whose latency is a constant, an
  /// integer-degree monomial or a polynomial (optionally under one
  /// ScaledLatency) contributes closed-form Faulhaber terms:
  ///
  ///   * the terms with whole coefficients fold into one exact 128-bit
  ///     integer I = Σ_k c_k·S_k(L)·n^(D−k), with S_k(L) = Σ_{i≤L} i^k,
  ///     n the divisor (1 when unscaled) and D the highest such degree;
  ///     the resource adds I rounded once, divided by n^D;
  ///   * every other term adds c_k·S_k(L) / n^k, with S_k(L) exact, then
  ///     split into hi + lo doubles for one compensated product by c_k.
  ///
  /// Anything else (exponential, non-integer degree, a degree above
  /// kMaxClosedDegree, or a sum that would leave 128 bits) adds
  /// ℓ_e(1), ..., ℓ_e(L) one by one. Every term goes into one NeumaierSum
  /// in resource order. The classification is the same in a CID_SIMD=0
  /// build (only the fallback loop goes through the virtual function), so
  /// both builds return the same bits.
  double potential(std::span<const std::int64_t> loads) const;

  /// Highest integer degree the closed forms handle.
  static constexpr int kMaxClosedDegree = 16;

 private:
  enum class Kind : std::uint8_t {
    kOpaque,
    kConstant,
    kMonomial,
    kPolynomial,
  };
  struct Entry {
    Kind kind = Kind::kOpaque;
    double a = 0.0;        // constant c / monomial coefficient
    double b = 0.0;        // monomial degree
    double divisor = 1.0;  // ScaledLatency n; x / 1.0 == x bitwise otherwise
    std::uint32_t offset = 0;  // polynomial slice [offset, offset+len) of coef_
    std::uint32_t len = 0;
    bool closed = false;  // Φ has closed-form terms (see potential())
    const LatencyFunction* fn = nullptr;  // fallback target (every entry)
  };

  /// ℓ(x) for an entry of kind K: the one formula per kind.
  template <Kind K>
  double eval(const Entry& en, double x) const {
    if constexpr (K == Kind::kConstant) {
      return en.a;
    } else if constexpr (K == Kind::kMonomial) {
      const double xx = x / en.divisor;
      CID_DCHECK(xx >= 0.0, "latency argument must be non-negative");
      return monomial_value(en.a, en.b, xx);
    } else if constexpr (K == Kind::kPolynomial) {
      const double xx = x / en.divisor;
      CID_DCHECK(xx >= 0.0, "latency argument must be non-negative");
      // Horner in descending order — the exact loop
      // PolynomialLatency::value runs, over the shared coefficient pool.
      double acc = 0.0;
      const double* c = coef_.data() + en.offset;
      for (std::size_t i = en.len; i-- > 0;) acc = acc * xx + c[i];
      return acc;
    } else {
      // Unrecognized type: the original virtual call (which applies any
      // scaling itself — opaque entries keep divisor at the neutral 1.0).
      return en.fn->value(x);
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

static_assert(LatencyKernel<LatencyTable>);

}  // namespace cid
