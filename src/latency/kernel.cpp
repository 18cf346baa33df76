#include "latency/kernel.hpp"

#include <array>
#include <cmath>

namespace cid {

namespace {

// -Wpedantic rejects the bare __int128 keyword; the extension typedef is
// accepted by gcc and clang alike.
__extension__ typedef unsigned __int128 u128;

constexpr int kMaxDegree = LatencyTable::kMaxClosedDegree;

/// kSurjections[k][j] = j!·S(k, j), S the Stirling numbers of the second
/// kind. Since i^k = Σ_j kSurjections[k][j]·C(i, j), the hockey-stick
/// identity gives S_k(L) = Σ_{i=1..L} i^k = Σ_j kSurjections[k][j]·C(L+1,
/// j+1) — Faulhaber's sums (L(L+1)/2, L(L+1)(2L+1)/6, ...) in integer
/// arithmetic only. Row 16 stays below 2^53, so 64 bits hold the table.
constexpr auto kSurjections = [] {
  std::array<std::array<std::uint64_t, kMaxDegree + 1>, kMaxDegree + 1> t{};
  t[0][0] = 1;
  for (int k = 1; k <= kMaxDegree; ++k) {
    for (int j = 1; j <= k; ++j) {
      t[k][j] = static_cast<std::uint64_t>(j) *
                (t[k - 1][j] + t[k - 1][j - 1]);
    }
  }
  return t;
}();

bool mul(u128 a, u128 b, u128& out) {
  return !__builtin_mul_overflow(a, b, &out);
}
bool add_to(u128 a, u128 b, u128& out) {
  return !__builtin_add_overflow(a, b, &out);
}

bool power(u128 base, int exponent, u128& out) {
  out = 1;
  for (int i = 0; i < exponent; ++i) {
    if (!mul(out, base, out)) return false;
  }
  return true;
}

/// S_k(L) = Σ_{i=1..L} i^k exactly; false when it would leave 128 bits.
bool power_sum(std::uint64_t load, int k, u128& out) {
  if (k == 0) {
    out = load;
    return true;
  }
  const u128 top = static_cast<u128>(load) + 1;
  u128 binom = top;  // C(L+1, j), starting at j = 1
  u128 sum = 0;
  for (int j = 1; j <= k && top > static_cast<u128>(j); ++j) {
    // C(L+1, j+1) = C(L+1, j)·(L+1−j) / (j+1), exact at every step.
    if (!mul(binom, top - static_cast<u128>(j), binom)) return false;
    binom /= static_cast<u128>(j + 1);
    u128 term = 0;
    if (!mul(binom, kSurjections[k][j], term) || !add_to(sum, term, sum)) {
      return false;
    }
  }
  out = sum;
  return true;
}

/// c·s for an exact integer s < 2^127, within one ulp: s splits exactly
/// into hi (s rounded) plus the rounded remainder lo, and std::fma
/// recovers the rounding error of c·hi.
double product(double c, u128 s) {
  const double hi = static_cast<double>(s);
  const auto h = static_cast<u128>(hi);
  const double lo = h <= s ? static_cast<double>(s - h)
                           : -static_cast<double>(h - s);
  const double p = c * hi;
  if (!std::isfinite(p)) return p;
  return p + (std::fma(c, hi, -p) + c * lo);
}

/// A coefficient that folds into the exact integer part.
bool is_whole(double c) { return c == std::floor(c) && c < 0x1p64; }

}  // namespace

void LatencyTable::add(const LatencyFunction& fn) {
  Entry en;
  // One level of scaling becomes the entry's divisor over its base. The
  // divisor was stored from an int64, so double(divisor()) reproduces it
  // exactly; scaled-of-scaled evaluates through fn itself.
  const LatencyFunction* inner = &fn;
  if (fn.kind() == Kind::kScaled) {
    en.divisor = static_cast<double>(fn.divisor());
    inner = &fn.base();
  }
  en.kind = inner->kind();
  switch (en.kind) {
    case Kind::kConstant:
      en.a = inner->constant();
      en.closed = true;
      break;
    case Kind::kMonomial:
      en.a = inner->coefficient();
      en.b = inner->degree();
      en.closed = en.b == std::floor(en.b) && en.b <= kMaxClosedDegree;
      break;
    case Kind::kPolynomial: {
      const std::vector<double>& c = inner->coefficients();
      en.offset = static_cast<std::uint32_t>(coef_.size());
      en.len = static_cast<std::uint32_t>(c.size());
      en.closed = en.len <= kMaxClosedDegree + 1;
      coef_.insert(coef_.end(), c.begin(), c.end());
      break;
    }
    case Kind::kExponential:
      en.a = inner->scale();
      en.b = inner->rate();
      break;
    case Kind::kScaled:
      en.fn = &fn;
      break;
  }
  entries_.push_back(en);
}

bool LatencyTable::add_closed_form(const Entry& en, std::int64_t load,
                                   NeumaierSum& acc) const {
  // The terms c_k·x^k: coef[i] is the coefficient of degree first + i.
  const double* coef = &en.a;
  int first = 0;
  int count = 1;
  if (en.kind == Kind::kMonomial) {
    first = static_cast<int>(en.b);
  } else if (en.kind == Kind::kPolynomial) {
    coef = coef_.data() + en.offset;
    count = static_cast<int>(en.len);
  }
  int top_whole = -1;  // D: the highest degree with a whole coefficient
  for (int i = 0; i < count; ++i) {
    if (coef[i] != 0.0 && is_whole(coef[i])) top_whole = first + i;
  }

  const auto n = static_cast<u128>(en.divisor);
  u128 exact = 0;
  std::array<double, kMaxDegree + 1> real{};
  int reals = 0;
  for (int i = 0; i < count; ++i) {
    const double c = coef[i];
    if (c == 0.0) continue;
    const int k = first + i;
    u128 sum = 0;
    u128 scale = 0;
    if (!power_sum(static_cast<std::uint64_t>(load), k, sum)) return false;
    if (is_whole(c)) {
      // c_k·S_k(L)·n^(D−k): the whole-coefficient terms over n^D.
      if (!power(n, top_whole - k, scale) ||
          !mul(sum, static_cast<u128>(c), sum) || !mul(sum, scale, sum) ||
          !add_to(exact, sum, exact)) {
        return false;
      }
    } else {
      if (!power(n, k, scale) || sum >> 127 != 0) return false;
      real[static_cast<std::size_t>(reals++)] =
          product(c, sum) / static_cast<double>(scale);
    }
  }
  if (top_whole >= 0) {
    u128 scale = 0;
    if (!power(n, top_whole, scale)) return false;
    acc.add(static_cast<double>(exact) / static_cast<double>(scale));
  }
  for (int i = 0; i < reals; ++i) acc.add(real[static_cast<std::size_t>(i)]);
  return true;
}

double LatencyTable::potential(std::span<const std::int64_t> loads) const {
  CID_ENSURE(loads.size() == entries_.size(),
             "potential needs one load per resource");
  NeumaierSum acc;
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    const Entry& en = entries_[e];
    const std::int64_t load = loads[e];
    if (load <= 0) continue;
    if (en.closed && add_closed_form(en, load, acc)) continue;
    switch (en.kind) {
      case Kind::kConstant:
        add_prefix<Kind::kConstant>(en, load, acc);
        break;
      case Kind::kMonomial:
        add_prefix<Kind::kMonomial>(en, load, acc);
        break;
      case Kind::kPolynomial:
        add_prefix<Kind::kPolynomial>(en, load, acc);
        break;
      case Kind::kExponential:
        add_prefix<Kind::kExponential>(en, load, acc);
        break;
      case Kind::kScaled:
        add_prefix<Kind::kScaled>(en, load, acc);
        break;
    }
  }
  return acc.value();
}

}  // namespace cid
