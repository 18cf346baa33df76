#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <math.h>  // lgamma_r (POSIX; declared by glibc in C++ builds)

#include "util/assert.hpp"

namespace cid {

std::uint64_t SplitMix64::next() noexcept {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

void Xoshiro256pp::apply(const Poly& poly) noexcept {
  // Horner over the coefficients, branch-free: S' = sum_b c_b A^b S.
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t word : poly) {
    for (int b = 0; b < 64; ++b) {
      const std::uint64_t take = 0 - ((word >> b) & 1);
      s0 ^= s_[0] & take;
      s1 ^= s_[1] & take;
      s2 ^= s_[2] & take;
      s3 ^= s_[3] & take;
      (void)(*this)();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

void Xoshiro256pp::jump() noexcept { apply(kJump); }

Xoshiro256pp::Poly Xoshiro256pp::mul_mod(const Poly& a,
                                         const Poly& b) noexcept {
  // Horner from a's top coefficient: r = r·x + a_i·b, reducing x^256 to
  // kCharPoly's low part whenever the shift carries out.
  Poly r{};
  for (int i = 255; i >= 0; --i) {
    const std::uint64_t carry = 0 - (r[3] >> 63);
    for (int w = 3; w > 0; --w) r[w] = (r[w] << 1) | (r[w - 1] >> 63);
    r[0] <<= 1;
    const std::uint64_t take = 0 - ((a[i / 64] >> (i % 64)) & 1);
    for (int w = 0; w < 4; ++w) {
      r[w] ^= (kCharPoly[w] & carry) ^ (b[w] & take);
    }
  }
  return r;
}

void Xoshiro256pp::advance(std::uint64_t steps) noexcept {
  // pow2[i] = x^(2^i) mod kCharPoly; the powers commute, so the set bits
  // of `steps` apply in any order.
  static const std::array<Poly, 64> pow2 = [] {
    std::array<Poly, 64> t{};
    t[0] = {2, 0, 0, 0};
    for (std::size_t i = 1; i < t.size(); ++i) {
      t[i] = mul_mod(t[i - 1], t[i - 1]);
    }
    return t;
  }();
  for (std::size_t i = 0; steps != 0; ++i, steps >>= 1) {
    if ((steps & 1) != 0) apply(pow2[i]);
  }
}

Rng Rng::split(std::uint64_t key) noexcept {
  SplitMix64 sm(next_u64() ^ (key * 0x9E3779B97F4A7C15ULL));
  return Rng(sm.next());
}

std::uint64_t Rng::uniform_int(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method.
  std::uint64_t x = gen_();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = gen_();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::int64_t Rng::binomial(std::int64_t n, double p) {
  CID_ENSURE(n >= 0, "binomial requires n >= 0");
  if (n == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  if (p == 0.0) return 0;
  if (p == 1.0) return n;

  // Exploit symmetry so the working probability is <= 1/2.
  if (p > 0.5) return n - binomial(n, 1.0 - p);

  const double mean = static_cast<double>(n) * p;
  if (n <= 32) {
    std::int64_t k = 0;
    for (std::int64_t i = 0; i < n; ++i) k += bernoulli(p) ? 1 : 0;
    return k;
  }
  if (mean < 12.0) return binomial_inversion(n, p);
  return binomial_btrs(n, p);
}

std::int64_t Rng::binomial_inversion(std::int64_t n, double p) {
  // CDF inversion starting from k = 0; expected work O(np + 1). The first
  // uniform is drawn before anything else: below binomial_zero_bound it
  // is below f0 = P[X = 0] too, so the walk would return 0 — returning
  // early skips the pow() and consumes exactly the one draw the walk would.
  const double u = uniform();
  if (u < binomial_zero_bound(n, p)) return 0;
  return binomial_inversion_from(u, n, p);
}

std::int64_t Rng::binomial_inversion_from(double u, std::int64_t n,
                                          double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  const double f0 = std::pow(q, static_cast<double>(n));
  // Cap the walk generously above the mean; restart on the (measure-zero
  // in exact arithmetic, tiny in floating point) event of tail rounding.
  const std::int64_t cap =
      std::min<std::int64_t>(n, static_cast<std::int64_t>(
                                    static_cast<double>(n) * p + 64.0 +
                                    16.0 * std::sqrt(static_cast<double>(n) *
                                                     p * q)));
  for (;; u = uniform()) {
    double f = f0;
    for (std::int64_t k = 0; k <= cap; ++k) {
      if (u < f) return k;
      u -= f;
      f *= s * static_cast<double>(n - k) / static_cast<double>(k + 1);
    }
  }
}

std::int64_t Rng::binomial_btrs(std::int64_t n, double p) {
  // BTRS: transformed rejection with squeeze (W. Hormann, "The generation of
  // binomial random variates", JSCS 46, 1993). Valid for n*p >= 10, p <= 1/2.
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double spq = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double lpq = std::log(p / q);
  const double m = std::floor((nd + 1.0) * p);

  // lgamma_r, not std::lgamma: std::lgamma also stores the sign in libm's
  // global `signgam`, a data race when trials run on several threads. The
  // value is the same function; the sign (always + for x + 1 >= 1) is
  // discarded.
  auto lgamma1p = [](double x) {
    int sign = 0;
    return ::lgamma_r(x + 1.0, &sign);
  };
  const double h = lgamma1p(m) + lgamma1p(nd - m);

  for (;;) {
    double u = uniform() - 0.5;
    double v = uniform();
    double us = 0.5 - std::abs(u);
    double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<std::int64_t>(kd);
    v = std::log(v * alpha / (a / (us * us) + b));
    const double t =
        h - lgamma1p(kd) - lgamma1p(nd - kd) + (kd - m) * lpq;
    if (v <= t) return static_cast<std::int64_t>(kd);
  }
}

std::vector<std::int64_t> Rng::multinomial(std::int64_t n,
                                           std::span<const double> probs) {
  std::vector<std::int64_t> counts(probs.size(), 0);
  multinomial(n, probs, counts);
  return counts;
}

void Rng::multinomial(std::int64_t n, std::span<const double> probs,
                      std::span<std::int64_t> out) {
  CID_ENSURE(n >= 0, "multinomial requires n >= 0");
  CID_ENSURE(out.size() == probs.size(),
             "multinomial output span must match the probability count");
  std::fill(out.begin(), out.end(), std::int64_t{0});
  multinomial_tail(0, n, 1.0, probs, out);
}

void Rng::multinomial_tail(std::size_t start, std::int64_t left,
                           double remaining, std::span<const double> probs,
                           std::span<std::int64_t> out) {
  for (std::size_t i = start; i < probs.size() && left > 0; ++i) {
    const double pi = probs[i];
    // Per-category argument check demoted to debug builds: this runs once
    // per (origin, destination) pair per round and the engines validate
    // their probability rows under the same CID_DCHECK policy.
    CID_DCHECK(pi >= -1e-12, "multinomial probabilities must be >= 0");
    if (pi <= 0.0) continue;
    // Conditional probability of category i given not in categories < i.
    const double cond =
        remaining <= 0.0 ? 1.0 : std::min(1.0, pi / remaining);
    remaining -= pi;
    // binomial(left, cond)'s inversion regime, its squeeze inlined: most
    // categories of a mover round draw 0 here, and skip the call.
    if (left > 32 && cond > 0.0 && cond <= 0.5 &&
        static_cast<double>(left) * cond < 12.0) {
      const double u = uniform();
      if (u < binomial_zero_bound(left, cond)) continue;
      out[i] = binomial_inversion_from(u, left, cond);
    } else {
      out[i] = binomial(left, cond);
    }
    left -= out[i];
  }
}

bool Rng::plan_zero_multinomial(std::int64_t n,
                                std::span<const double> probs,
                                std::vector<ZeroStep>& plan) {
  // multinomial_tail(0, n, 1.0) while every count stays 0: `left` stays n,
  // so each category calls binomial(n, cond) with the cond computed here.
  const std::size_t planned = plan.size();
  if (probs.size() > std::numeric_limits<std::uint32_t>::max()) return false;
  double remaining = 1.0;
  for (std::size_t i = 0; i < probs.size() && n > 0; ++i) {
    const double pi = probs[i];
    if (pi <= 0.0) continue;
    const double cond =
        remaining <= 0.0 ? 1.0 : std::min(1.0, pi / remaining);
    remaining -= pi;
    // binomial(n, cond)'s regimes, in its order: 0 draws nothing; above
    // 1/2 (1 included) the symmetric path; n <= 32 the Bernoulli sum;
    // mean < 12 the inversion; BTRS otherwise.
    if (cond == 0.0) continue;
    const bool bernoulli = n <= 32;
    if (cond > 0.5 || (!bernoulli && static_cast<double>(n) * cond >= 12.0)) {
      plan.resize(planned);
      return false;
    }
    ZeroStep step;
    step.bound = bernoulli ? zero_bound(cond, 1.0)
                           : zero_bound(0.0, binomial_zero_bound(n, cond));
    step.cond = cond;
    step.remaining = remaining;
    step.index = static_cast<std::uint32_t>(i);
    step.draws = bernoulli ? static_cast<std::uint32_t>(n) : 1;
    plan.push_back(step);
  }
  return true;
}

bool Rng::multinomial_planned(std::int64_t n, std::span<const double> probs,
                              const ZeroStep& step, std::uint32_t draw,
                              double u, std::span<std::int64_t> out) {
  // The binomial left its zero outcome at this uniform: finish it from
  // here. A Bernoulli sum has one success and n - draw - 1 trials to go;
  // the inversion walks from u and may still land on 0.
  const std::int64_t k =
      n <= 32 ? 1 + binomial(n - static_cast<std::int64_t>(draw) - 1,
                             step.cond)
              : binomial_inversion_from(u, n, step.cond);
  if (k == 0) return false;
  std::fill(out.begin(), out.end(), std::int64_t{0});
  out[step.index] = k;
  multinomial_tail(step.index + 1, n - k, step.remaining, probs, out);
  return true;
}

namespace {

// The lane kernel: 8 xoshiro256++ streams as one vector of each state word
// (GCC vector extensions: one source, compiled below for AVX-512 as one
// zmm per word and for AVX2 as two ymm). Nothing here is a float.
using Lanes8 = std::uint64_t __attribute__((vector_size(64)));
constexpr int kLanes = 8;

struct LaneState {
  Lanes8 s0, s1, s2, s3;
};

// bounds[e] is missed when m − lo < 0 or m − lo − width ≥ 0 as signed
// 54-bit differences, so the sign bit of (m − lo) | ~(m − lo − width) is
// the miss: three integer ops, OR-ed into one accumulator per round.
[[gnu::always_inline]] inline void scan_round(
    LaneState& v, Lanes8& acc, std::span<const ZeroBound> bounds) {
  for (const ZeroBound& bound : bounds) {
    const Lanes8 sum = v.s0 + v.s3;
    const Lanes8 out = ((sum << 23) | (sum >> 41)) + v.s0;
    const Lanes8 t = v.s1 << 17;
    v.s2 ^= v.s0;
    v.s3 ^= v.s1;
    v.s1 ^= v.s2;
    v.s0 ^= v.s3;
    v.s2 ^= t;
    v.s3 = (v.s3 << 45) | (v.s3 >> 19);
    const Lanes8 a = (out >> 11) - bound.lo;
    acc |= a | ~(a - bound.width);
  }
}

[[gnu::always_inline]] inline std::array<std::uint64_t, 4> lane_of(
    const LaneState& v, int j) {
  return {v.s0[j], v.s1[j], v.s2[j], v.s3[j]};
}

[[gnu::always_inline]] inline LaneScan scan_lanes_kernel(
    Rng& rng, std::span<const ZeroBound> bounds, std::int64_t lane_rounds,
    std::int64_t max_rounds) {
  const std::int64_t total = std::min(max_rounds, kLanes * lane_rounds);
  std::int64_t len[kLanes];
  LaneState v{};
  Xoshiro256pp start = rng.generator();
  int last = 0;  // the lane holding the block's last round
  for (int j = 0; j < kLanes; ++j) {
    len[j] = std::clamp<std::int64_t>(total - j * lane_rounds, 0, lane_rounds);
    if (len[j] == 0) continue;
    if (j > 0) start.advance(static_cast<std::uint64_t>(lane_rounds) *
                             bounds.size());
    const auto st = start.state();
    v.s0[j] = st[0];
    v.s1[j] = st[1];
    v.s2[j] = st[2];
    v.s3[j] = st[3];
    last = j;
  }
  LaneScan found;
  std::array<std::uint64_t, 4> end{};
  unsigned active = 0;
  for (int j = 0; j < kLanes; ++j) {
    if (len[j] > 0) active |= 1u << j;
  }
  for (std::int64_t q = 0;; ++q) {
    for (int j = 0; j < kLanes; ++j) {
      if ((active >> j & 1) == 0 || len[j] != q) continue;
      active &= ~(1u << j);
      if (j == last) end = lane_of(v, j);
    }
    if (active == 0) break;
    const LaneState saved = v;
    Lanes8 acc{};
    scan_round(v, acc, bounds);
    unsigned hit = 0;
    for (int j = 0; j < kLanes; ++j) {
      hit |= static_cast<unsigned>(acc[j] >> 63) << j;
    }
    hit &= active;
    if (hit == 0) continue;
    // The lowest lane missing this round comes first in the stream of all
    // misses found so far; its earliest miss is found by the scalar scan.
    // Lanes above it no longer matter, lanes below it scan on.
    const int j = std::countr_zero(hit);
    rng.set_state(lane_of(saved, j));
    found.index = rng.scan_zero(bounds, 0, found.u);
    found.rounds = j * lane_rounds + q;
    found.missed = true;
    end = rng.state();
    active &= (1u << j) - 1;
    if (active == 0) break;
  }
  if (!found.missed) found.rounds = total;
  rng.set_state(end);
  return found;
}

#if defined(__x86_64__)
[[gnu::target("avx512f")]] LaneScan scan_lanes_avx512(
    Rng& rng, std::span<const ZeroBound> bounds, std::int64_t lane_rounds,
    std::int64_t max_rounds) {
  return scan_lanes_kernel(rng, bounds, lane_rounds, max_rounds);
}

[[gnu::target("avx2")]] LaneScan scan_lanes_avx2(
    Rng& rng, std::span<const ZeroBound> bounds, std::int64_t lane_rounds,
    std::int64_t max_rounds) {
  return scan_lanes_kernel(rng, bounds, lane_rounds, max_rounds);
}
#endif

}  // namespace

bool lane_isa_supported(LaneIsa isa) noexcept {
  switch (isa) {
    case LaneIsa::kPortable:
      return true;
#if defined(__x86_64__)
    case LaneIsa::kAvx2:
      return __builtin_cpu_supports("avx2");
    case LaneIsa::kAvx512:
      return __builtin_cpu_supports("avx512f");
#else
    default:
      return false;
#endif
  }
  return false;
}

LaneIsa best_lane_isa() noexcept {
  static const LaneIsa best = lane_isa_supported(LaneIsa::kAvx512)
                                  ? LaneIsa::kAvx512
                              : lane_isa_supported(LaneIsa::kAvx2)
                                  ? LaneIsa::kAvx2
                                  : LaneIsa::kPortable;
  return best;
}

LaneScan Rng::scan_lanes(std::span<const ZeroBound> bounds,
                         std::int64_t lane_rounds, std::int64_t max_rounds,
                         LaneIsa isa) {
  CID_ENSURE(lane_rounds >= 1 && max_rounds >= 0,
             "scan_lanes needs lane_rounds >= 1 and max_rounds >= 0");
  CID_ENSURE(lane_isa_supported(isa), "scan_lanes: ISA not supported here");
  LaneScan scan;
  if (bounds.empty() || max_rounds == 0) {
    scan.rounds = max_rounds;
    return scan;
  }
#if defined(__x86_64__)
  if (isa == LaneIsa::kAvx512) {
    return scan_lanes_avx512(*this, bounds, lane_rounds, max_rounds);
  }
  if (isa == LaneIsa::kAvx2) {
    return scan_lanes_avx2(*this, bounds, lane_rounds, max_rounds);
  }
#endif
  const std::int64_t total = std::min(max_rounds, kLanes * lane_rounds);
  for (; scan.rounds < total; ++scan.rounds) {
    scan.index = scan_zero(bounds, 0, scan.u);
    if (scan.index < bounds.size()) {
      scan.missed = true;
      return scan;
    }
  }
  return scan;
}

std::size_t Rng::categorical(std::span<const double> weights) {
  CID_ENSURE(!weights.empty(), "categorical requires non-empty weights");
  double total = 0.0;
  for (double w : weights) {
    CID_ENSURE(w >= 0.0, "categorical weights must be >= 0");
    total += w;
  }
  CID_ENSURE(total > 0.0, "categorical weights must not all be zero");
  double u = uniform() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (u < weights[i]) return i;
    u -= weights[i];
  }
  return weights.size() - 1;
}

}  // namespace cid
