// The one row path of the symmetric kernels: the ex-post gather, then a
// branch-free select pass per protocol compiled for each ISA (kernel.hpp
// has the layering and the bitwise contract).
#include "protocols/kernel.hpp"

#include <bit>

namespace cid {
namespace {

// `cond ? a : b` on the bit patterns. As a ternary, GCC's PRE moves the
// product sample_prob · clamp(μ) into the arms of the clamp's select; a
// multiply run on one arm only may raise a flag the other would not, so
// -ftrapping-math keeps the branch and the loop vectorizes only where
// AVX-512 masks it. A bit select keeps every lane straight-line, and it
// copies a or b whole, NaN or not.
[[gnu::always_inline]] inline double pick(bool cond, double a, double b) {
  const std::uint64_t mask = 0 - static_cast<std::uint64_t>(cond);
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & mask) |
                               (std::bit_cast<std::uint64_t>(b) & ~mask));
}

// std::clamp(v, 0.0, 1.0) in its order, NaN included: v < lo ? lo :
// (hi < v ? hi : v).
[[gnu::always_inline]] inline double clamp01(double v) {
  return pick(v < 0.0, 0.0, pick(1.0 < v, 1.0, v));
}

// static_cast<double>(v) for v >= 0. AVX2 has no int64 → double convert,
// so the value is read off two exact halves: the high 11 bits and the low
// 52, each below 2⁵², as the mantissa of 2⁵² + half minus 2⁵². hi·2⁵² + lo
// is exactly v, so the add's one rounding is the conversion's own.
[[gnu::always_inline]] inline double exact_double(std::int64_t v) {
  constexpr std::uint64_t kTwo52 = 0x4330000000000000;  // the bits of 2⁵²
  const auto u = static_cast<std::uint64_t>(v);
  const double hi = std::bit_cast<double>((u >> 52) | kTwo52) - 0x1p52;
  const double lo =
      std::bit_cast<double>((u & 0xFFFFFFFFFFFFF) | kTwo52) - 0x1p52;
  return hi * 0x1p52 + lo;
}

// Row constants, hoisted as the oracle computes them. Each entry() is
// move_probability(from, to) for to != from, in the oracle's expressions
// and order; its zero cases are the oracle's 0.0 or sample_prob · 0.0,
// which is +0.0 since sample_prob is positive and finite there.
struct ImitationRow {
  const std::int64_t* counts;
  std::int64_t virtual_agents;
  double pool;
  double l_from;
  double nu;
  double lambda_over_d;

  [[gnu::always_inline]] double entry(std::size_t to, double l_to) const {
    const std::int64_t targets = counts[to] + virtual_agents;
    const double sample_prob = exact_double(targets) / pool;
    const double mu = lambda_over_d * (l_from - l_to) / l_from;
    const bool moves =
        (targets != 0) & (sample_prob != 0.0) & (l_from > l_to + nu);
    return pick(moves, sample_prob * clamp01(mu), 0.0);
  }
};

struct ExplorationRow {
  double sample_prob;  // 1/|P|
  double l_from;
  double lambda_damping;

  [[gnu::always_inline]] double entry(std::size_t /*to*/, double l_to) const {
    const double mu = lambda_damping * (l_from - l_to) / l_from;
    return pick(l_from > l_to, sample_prob * clamp01(mu), 0.0);
  }
};

struct CombinedRow {
  ImitationRow imitation;
  ExplorationRow exploration;
  double p_explore;
  double one_minus_p;

  [[gnu::always_inline]] double entry(std::size_t to, double l_to) const {
    return p_explore * exploration.entry(to, l_to) +
           one_minus_p * imitation.entry(to, l_to);
  }
};

ImitationRow imitation_row(const ImitationProtocol& protocol,
                           const CongestionGame& game,
                           const LatencyContext& ctx, StrategyId from) {
  return {.counts = ctx.state().counts().data(),
          .virtual_agents = protocol.params().virtual_agents,
          .pool = static_cast<double>(protocol.sampling_pool(game)),
          .l_from = ctx.strategy_latency(from),
          .nu = protocol.effective_nu(game),
          .lambda_over_d =
              protocol.params().lambda / protocol.effective_d(game)};
}

ExplorationRow exploration_row(const ExplorationProtocol& protocol,
                               const CongestionGame& game,
                               const LatencyContext& ctx, StrategyId from) {
  return {.sample_prob = 1.0 / static_cast<double>(game.num_strategies()),
          .l_from = ctx.strategy_latency(from),
          .lambda_damping = protocol.params().lambda * protocol.damping(game)};
}

// The select pass: l_to is read back from out[to] and the probability
// written in place; from's own entry is 0.0.
template <typename Row>
[[gnu::always_inline]] inline void select_pass(const Row& row,
                                               StrategyId from,
                                               std::span<double> out) {
  const Row r = row;  // locals: the stores to out cannot alias them
  const auto self = static_cast<std::size_t>(from);
  double* o = out.data();
  for (std::size_t to = 0; to < out.size(); ++to) {
    o[to] = pick(to != self, r.entry(to, o[to]), 0.0);
  }
}

#if defined(__x86_64__)
template <typename Row>
[[gnu::target("avx512f")]] void select_avx512(const Row& row, StrategyId from,
                                              std::span<double> out) {
  select_pass(row, from, out);
}

template <typename Row>
[[gnu::target("avx2")]] void select_avx2(const Row& row, StrategyId from,
                                         std::span<double> out) {
  select_pass(row, from, out);
}
#endif

template <typename Row>
void select_row(const Row& row, StrategyId from, std::span<double> out,
                LaneIsa isa) {
#if defined(__x86_64__)
  if (isa == LaneIsa::kAvx512) return select_avx512(row, from, out);
  if (isa == LaneIsa::kAvx2) return select_avx2(row, from, out);
#endif
  (void)isa;
  select_pass(row, from, out);
}

// The gather pass: out[to] = ℓ_to(x + 1_to − 1_from).
void gather(const CongestionGame& game, const OriginView& origin,
            std::span<double> out) {
  CID_DCHECK(out.size() == static_cast<std::size_t>(game.num_strategies()),
             "probability row must span every strategy");
  if (!game.is_singleton()) {
    origin.expost_row(out);
    return;
  }
  // Singleton: the one destination resource reads ell when shared with
  // the origin, ell_plus otherwise — what the origin's table holds.
  const std::span<const Strategy> strategies = game.strategies();
  const std::span<const double> ell = origin.ctx().resource_latencies();
  const std::span<const double> ell_plus =
      origin.ctx().resource_latencies_plus();
  const Resource res_from =
      strategies[static_cast<std::size_t>(origin.from())][0];
  for (std::size_t to = 0; to < out.size(); ++to) {
    const Resource res_to = strategies[to][0];
    const auto e = static_cast<std::size_t>(res_to);
    out[to] = res_to == res_from ? ell[e] : ell_plus[e];
  }
}

}  // namespace

void fill_protocol_row(const ImitationProtocol& protocol,
                       const CongestionGame& game, const OriginView& origin,
                       std::span<double> out, LaneIsa isa) {
  gather(game, origin, out);
  select_row(imitation_row(protocol, game, origin.ctx(), origin.from()),
             origin.from(), out, isa);
}

void fill_protocol_row(const ExplorationProtocol& protocol,
                       const CongestionGame& game, const OriginView& origin,
                       std::span<double> out, LaneIsa isa) {
  gather(game, origin, out);
  select_row(exploration_row(protocol, game, origin.ctx(), origin.from()),
             origin.from(), out, isa);
}

void fill_protocol_row(const CombinedProtocol& protocol,
                       const CongestionGame& game, const OriginView& origin,
                       std::span<double> out, LaneIsa isa) {
  gather(game, origin, out);
  const LatencyContext& ctx = origin.ctx();
  const CombinedRow row{
      imitation_row(protocol.imitation(), game, ctx, origin.from()),
      exploration_row(protocol.exploration(), game, ctx, origin.from()),
      protocol.p_explore(), 1.0 - protocol.p_explore()};
  select_row(row, origin.from(), out, isa);
}

}  // namespace cid
