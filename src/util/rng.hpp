// Deterministic random-number substrate for the dynamics engines.
//
// The concurrent engines draw very large numbers of Bernoulli/binomial/
// multinomial variates per round; std::mt19937_64 plus the standard
// distributions would work but ties reproducibility to a particular
// standard-library version. We therefore ship our own generator
// (xoshiro256++, seeded via SplitMix64) and our own exact samplers:
//
//   * binomial(n, p): exact for all n, p. Three regimes: direct Bernoulli
//     summation for small n, CDF inversion for small mean, and the BTRS
//     transformed-rejection sampler (Hormann, 1993) for large mean. The
//     inversion first tests its uniform against binomial_zero_bound, a
//     cheap lower bound on P[X = 0] (below), and returns 0 without the
//     pow() when it is under it — same value, same draws as the full walk.
//   * multinomial(n, probs): sequential conditional binomials. In the
//     inversion regime it draws the first uniform itself and skips a
//     category below binomial_zero_bound without calling binomial — the
//     same values and draws; most categories of a mover round end there.
//   * Planned multinomials: plan_zero_multinomial describes the all-zero
//     outcome of multinomial(n, probs) as ZeroSteps, one per positive
//     category, each an interval [lo, hi) its uniforms fall in when that
//     binomial draws 0. A caller flattens the steps to one ZeroBound per
//     uniform; scan_zero draws them in order and only compares, and
//     multinomial_planned hands the first uniform outside its interval to
//     that binomial's own sampler (the inversion walk, or the rest of the
//     Bernoulli sum) and finishes on the ordinary conditional path. Same
//     counts, same draws — the round engine replays rounds that follow a
//     round moving nobody this way (dynamics/engine_kernel.hpp).
//
// The integer bound. A uniform is u = m·2⁻⁵³ with m = gen() >> 11, an
// integer in [0, 2⁵³). For any doubles lo, hi in [0, 1], lo·2⁵³ and hi·2⁵³
// are exact (a power-of-two scaling that cannot overflow or lose bits), and
// so are their ceilings L and H. For integer m, lo ≤ m·2⁻⁵³ iff L ≤ m, and
// m·2⁻⁵³ < hi iff m < H. So lo ≤ u < hi holds exactly when the unsigned
// m − L < W with W = H − L (0 when H ≤ L): one subtract and one compare,
// with no conversion to double on the hot path (zero_bound, ZeroBound).
// A bound at or below 0 scales to 0, and one above 1 to 2⁵³.
//
// The generator step and uniform() are inline here: the engine's replayed
// rounds are little more than a long run of uniform-and-compare.
//
// Lanes. A quiet round that misses nothing draws exactly one uniform per
// bound, so whole rounds of one plan are fixed-length stretches of the
// stream. The state map of xoshiro256 is linear over GF(2), so
// Xoshiro256pp::advance jumps any number of draws ahead exactly, and
// scan_lanes scans 8 round-aligned segments of the same stream in
// lockstep (all lanes compare against the same bound, so nothing is
// stored per lane), reporting the first miss in stream order. It is
// integer-only, one kernel source built for AVX-512 and AVX2 and picked at
// run time, with the plain scan_zero loop as the portable path: every
// variant returns the same result and leaves the same generator state.
//
// All samplers are exact (not approximations): the concurrent round law of
// the aggregate engine must equal the per-player protocol law exactly, which
// the tests verify statistically.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace cid {

/// Exact squeeze for a zero binomial draw: 1 − n·(p + 2⁻⁵⁰) − 2⁻⁴⁵, never
/// above the inversion sampler's computed f0 = pow(1 − p, n) for n ≥ 1 and
/// 0 ≤ p ≤ 1/2. Bernoulli's inequality gives (1 − p)ⁿ ≥ 1 − n·p; the
/// 2⁻⁵⁰ per trial covers the rounding of q = 1 − p (at most 2⁻⁵⁴), and the
/// 2⁻⁴⁵ covers any pow() error below ~2⁻⁴⁵ relative plus this expression's
/// own rounding. A uniform below it is below f0, where the walk returns 0.
inline double binomial_zero_bound(std::int64_t n, double p) noexcept {
  return 1.0 - static_cast<double>(n) * (p + 0x1.0p-50) - 0x1.0p-45;
}

/// lo <= u < hi for a uniform u = m·2⁻⁵³, as an unsigned compare on m:
/// `m - lo < width` (see the file comment for why it is exact).
struct ZeroBound {
  std::uint64_t lo = 0;
  std::uint64_t width = 0;

  bool holds(std::uint64_t m) const noexcept { return m - lo < width; }
};

/// The ZeroBound of [lo, hi): L = ceil(lo·2⁵³), H = ceil(hi·2⁵³), each
/// clamped to [0, 2⁵³], and W = H − L when positive. Empty unless lo < hi.
inline ZeroBound zero_bound(double lo, double hi) noexcept {
  if (!(lo < hi)) return {};
  const auto scaled = [](double v) -> std::uint64_t {
    return v > 0.0 ? static_cast<std::uint64_t>(
                         std::ceil(std::min(v, 1.0) * 0x1.0p53))
                   : 0;
  };
  const std::uint64_t l = scaled(lo);
  const std::uint64_t h = scaled(hi);
  return {l, h > l ? h - l : 0};
}

/// One positive category of a planned multinomial draw: the zero outcome
/// of binomial(n, cond) as `draws` uniforms, each of which draws 0 iff it
/// lies in `bound`. Inversion (n > 32): one uniform below
/// binomial_zero_bound. Bernoulli sum (n <= 32): n uniforms, none below
/// cond. `remaining` is the multinomial's leftover mass after the category.
struct ZeroStep {
  ZeroBound bound;
  double cond = 0.0;
  double remaining = 0.0;
  std::uint32_t index = 0;
  std::uint32_t draws = 0;
};

/// SplitMix64: used to expand a single 64-bit seed into generator state.
/// (Public so seeding discipline is testable and reusable.)
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept;

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0 — fast, high-quality 64-bit generator.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256pp(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// 2^128 jump: moves this generator 2^128 draws ahead, so its stream
  /// and the one before the jump do not overlap for 2^128 draws.
  /// (Per-trial streams come from Rng::split via sweep::derive_trial_rng.)
  void jump() noexcept;

  /// Exactly `steps` draws ahead, without drawing them: the state map is
  /// linear over GF(2), so `steps` steps are x^steps modulo its
  /// characteristic polynomial, applied as jump() applies kJump — one
  /// 256-step pass per set bit of `steps`, from a table of x^(2^i).
  void advance(std::uint64_t steps) noexcept;

  /// A polynomial over GF(2) of degree < 256: bit b of word b / 64 is the
  /// coefficient of x^b.
  using Poly = std::array<std::uint64_t, 4>;
  /// The low coefficients of the state map's characteristic polynomial
  /// (x^256 is implicit); it annihilates the state sequence.
  static constexpr Poly kCharPoly = {
      0x9D116F2BB0F0F001ULL, 0x0280002BCEFD1A5EULL, 0x04B4EDCF26259F85ULL,
      0x0003C03C3F3ECB19ULL};
  /// x^(2^128) modulo kCharPoly: the polynomial jump() applies.
  static constexpr Poly kJump = {0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL,
                                 0xA9582618E03FC9AAULL, 0x39ABDC4529B1661CULL};
  /// a·b modulo kCharPoly.
  static Poly mul_mod(const Poly& a, const Poly& b) noexcept;
  /// Replaces the state S with poly(A)·S, A being one step.
  void apply(const Poly& poly) noexcept;

  /// The full 256-bit generator state. Together with set_state this makes
  /// the stream durable: a saved state restored elsewhere continues the
  /// exact draw sequence (the persistence subsystem checkpoints it).
  std::array<std::uint64_t, 4> state() const noexcept {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

  /// Restores a state previously obtained from state(). Precondition: the
  /// words are not all zero (the all-zero state is a xoshiro fixed point);
  /// enforced by clamping word 0 to 1 in that degenerate case.
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    for (int i = 0; i < 4; ++i) s_[i] = s[static_cast<std::size_t>(i)];
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// What Rng::scan_lanes found over whole rounds of one flattened plan (one
/// round = one uniform per bound, in order).
struct LaneScan {
  std::int64_t rounds = 0;  // whole rounds every uniform of which held
  bool missed = false;      // else the scan stopped at its round cap
  std::size_t index = 0;    // the first miss in stream order: bounds[index]
  double u = 0.0;           // and its uniform
};

/// The instruction sets the vector kernels run on: Rng::scan_lanes and the
/// row select pass (protocols/kernel.cpp). kPortable is the plain loop,
/// the reference each vector variant must equal.
enum class LaneIsa { kPortable, kAvx2, kAvx512 };

/// Whether this host runs `isa`; best_lane_isa() is the widest that it does.
bool lane_isa_supported(LaneIsa isa) noexcept;
LaneIsa best_lane_isa() noexcept;

/// Convenience facade bundling the generator with the samplers the
/// simulation engines need. Cheap to copy; copying forks the stream state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) noexcept : gen_(seed) {}

  /// Derive an independent child stream (seed ^ golden-ratio mixing of key).
  [[nodiscard]] Rng split(std::uint64_t key) noexcept;

  std::uint64_t next_u64() noexcept { return gen_(); }

  /// Uniform double in [0, 1): the top 53 bits of one generator step.
  double uniform() noexcept {
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  /// Precondition: bound > 0.
  std::uint64_t uniform_int(std::uint64_t bound) noexcept;

  /// Bernoulli(p), exact for p in [0, 1]; p outside is clamped.
  bool bernoulli(double p) noexcept;

  /// Exact Binomial(n, p). Precondition: n >= 0, 0 <= p <= 1 (clamped).
  std::int64_t binomial(std::int64_t n, double p);

  /// Exact multinomial: distributes n trials over probs (which may sum to
  /// s <= 1; the remaining mass 1-s is an implicit "no event" category whose
  /// count is not returned). Returns counts aligned with probs.
  std::vector<std::int64_t> multinomial(std::int64_t n,
                                        std::span<const double> probs);

  /// Allocation-free multinomial: writes the counts into `out` (which must
  /// have probs.size() entries). Identical draw algorithm and RNG
  /// consumption as the allocating overload — the engines' reusable
  /// RoundWorkspace calls this one every round.
  void multinomial(std::int64_t n, std::span<const double> probs,
                   std::span<std::int64_t> out);

  /// Appends to `plan` one ZeroStep per positive category of
  /// multinomial(n, probs), in draw order, assuming every binomial before
  /// it drew 0. Returns false, leaving `plan` as it was, when some
  /// category's zero outcome is not an interval of its uniforms: a
  /// conditional probability above 1/2 (the symmetric path) or a mean of
  /// at least 12 with n > 32 (BTRS), or when probs has 2^32 or more
  /// entries. Such a draw goes through multinomial.
  static bool plan_zero_multinomial(std::int64_t n,
                                    std::span<const double> probs,
                                    std::vector<ZeroStep>& plan);

  /// The replay of a flattened plan: draws one uniform per bound from
  /// bounds[first] on and only compares it. Returns the index of the first
  /// uniform outside its bound, with that uniform in `u`, or bounds.size()
  /// when every one held.
  std::size_t scan_zero(std::span<const ZeroBound> bounds, std::size_t first,
                        double& u) noexcept {
    for (std::size_t e = first; e < bounds.size(); ++e) {
      const std::uint64_t m = gen_() >> 11;
      if (bounds[e].holds(m)) continue;
      u = static_cast<double>(m) * 0x1.0p-53;
      return e;
    }
    return bounds.size();
  }

  /// scan_zero over whole rounds of `bounds`, at most
  /// min(max_rounds, 8·lane_rounds) of them: stops at the first uniform
  /// outside its bound (returning the rounds before its own, its index and
  /// its uniform, the generator just past it) or after those rounds (the
  /// generator just past them). The lane variants cut the rounds into 8
  /// segments of lane_rounds rounds, lane j starting j·lane_rounds rounds
  /// in (advance), scan them in lockstep and report the first miss in
  /// stream order — the lowest lane's, then its earliest. Integer compares
  /// only: every variant returns the same result and leaves the same
  /// state. Empty bounds hold for max_rounds rounds.
  LaneScan scan_lanes(std::span<const ZeroBound> bounds,
                      std::int64_t lane_rounds, std::int64_t max_rounds,
                      LaneIsa isa);

  /// Finishes multinomial(n, probs, out) after scan_zero stopped at uniform
  /// `u`, draw `draw` of `step` (a step plan_zero_multinomial made for the
  /// same n and probs, every earlier uniform of the plan having held):
  /// identical counts and RNG consumption. Returns false when every count
  /// is 0 after all (an inversion walk from u can still land on 0), leaving
  /// `out` untouched — the caller scans on after u; otherwise writes all of
  /// `out` and returns true — the multinomial's remaining plan is moot.
  bool multinomial_planned(std::int64_t n, std::span<const double> probs,
                           const ZeroStep& step, std::uint32_t draw, double u,
                           std::span<std::int64_t> out);

  /// Uniform element index from non-empty weights (linear scan).
  std::size_t categorical(std::span<const double> weights);

  Xoshiro256pp& generator() noexcept { return gen_; }

  /// Durable stream state (see Xoshiro256pp::state): Rng carries no other
  /// mutable state, so save/restore of these four words round-trips the
  /// sampler streams exactly, mid-binomial or mid-multinomial included.
  std::array<std::uint64_t, 4> state() const noexcept { return gen_.state(); }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    gen_.set_state(s);
  }

 private:
  std::int64_t binomial_inversion(std::int64_t n, double p);
  /// The inversion walk from an already drawn first uniform `u`.
  std::int64_t binomial_inversion_from(double u, std::int64_t n, double p);
  /// The conditional-binomial loop from category `start`, with `left`
  /// trials and `remaining` mass still to distribute; out[start..] must be
  /// 0. multinomial is tail(0, n, 1.0).
  void multinomial_tail(std::size_t start, std::int64_t left,
                        double remaining, std::span<const double> probs,
                        std::span<std::int64_t> out);
  std::int64_t binomial_btrs(std::int64_t n, double p);

  Xoshiro256pp gen_;
};

}  // namespace cid
