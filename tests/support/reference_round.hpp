// Tests-only audit paths for the batched round engine.
//
// VirtualKernel presents any virtual Protocol as a ProtocolKernel through
// the oracle alone: its fill_row calls Protocol::move_probability pair by
// pair, and its row_provably_zero never prunes. Run through the production
// templates (dynamics/engine_kernel.hpp draw_round<K> / run_dynamics<K>)
// beside a real kernel, it audits that kernel's row fill AND its pruning:
// a pruned row that is not all zero draws differently from the unpruned
// per-pair row, so the two paths' moves and Rng::state() part.
//
// draw_round_reference is the pre-batching engine: no workspace and no
// latency cache, one move_probability call per pair, and a LINEAR scan
// where the batched per-player engine binary-searches. It consumes the RNG
// stream identically to draw_round and must produce bitwise-identical
// rounds (tests/test_engine_oracle.cpp, tests/test_kernel_concepts.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dynamics/engine.hpp"
#include "dynamics/engine_kernel.hpp"
#include "protocols/kernel.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid::test {

/// Any virtual Protocol as a kernel: full-width rows filled pair by pair
/// through the virtual move_probability, and no pruning ever.
class VirtualKernel {
 public:
  explicit VirtualKernel(const Protocol& protocol) noexcept
      : protocol_(&protocol) {}

  RowBlock row_block(const CongestionGame& game, StrategyId /*from*/) const {
    return {0, game.num_strategies()};
  }
  void fill_row(const CongestionGame& game, const OriginView& origin,
                std::span<double> out) const {
    const State& x = origin.ctx().state();
    const StrategyId from = origin.from();
    for (StrategyId to = 0; to < game.num_strategies(); ++to) {
      out[static_cast<std::size_t>(to)] =
          to == from ? 0.0 : protocol_->move_probability(game, x, from, to);
    }
  }
  bool row_provably_zero(const CongestionGame& /*game*/,
                         const LatencyContext& /*ctx*/, StrategyId /*from*/,
                         const RowBounds& /*bounds*/) const {
    return false;
  }
  double move_probability(const CongestionGame& game, const State& x,
                          StrategyId from, StrategyId to) const {
    return protocol_->move_probability(game, x, from, to);
  }
  std::string name() const { return protocol_->name(); }

 private:
  const Protocol* protocol_;
};

static_assert(ProtocolKernel<VirtualKernel>);

namespace reference_detail {

/// Move probabilities out of `from` toward every strategy (the entry for
/// `from` itself is 0), one move_probability oracle call per pair.
template <ProtocolKernel K>
std::vector<double> outgoing_probabilities_reference(
    const CongestionGame& game, const State& x, const K& kernel,
    StrategyId from) {
  const auto k = static_cast<std::size_t>(game.num_strategies());
  std::vector<double> probs(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    if (static_cast<StrategyId>(j) == from) continue;
    probs[j] =
        kernel.move_probability(game, x, from, static_cast<StrategyId>(j));
  }
  engine_detail::dcheck_row(probs, from);
  return probs;
}

template <ProtocolKernel K>
RoundResult draw_reference_aggregate(const CongestionGame& game,
                                     const State& x, const K& kernel,
                                     Rng& rng,
                                     const std::vector<StrategyId>& support) {
  RoundResult result;
  for (StrategyId from : support) {
    const auto probs = outgoing_probabilities_reference(game, x, kernel, from);
    const auto counts = rng.multinomial(x.count(from), probs);
    for (std::size_t j = 0; j < counts.size(); ++j) {
      if (counts[j] == 0) continue;
      result.moves.push_back(
          Migration{from, static_cast<StrategyId>(j), counts[j]});
      result.movers += counts[j];
    }
  }
  return result;
}

template <ProtocolKernel K>
RoundResult draw_reference_per_player(const CongestionGame& game,
                                      const State& x, const K& kernel,
                                      Rng& rng,
                                      const std::vector<StrategyId>& support) {
  // Accumulate per-(from,to) counts; the per-player draws are i.i.d. given
  // x, so aggregation loses nothing. Destinations are located by LINEAR
  // scan over the same cumulative row the batched kernel binary-searches —
  // identical boundaries, identical single uniform per player.
  RoundResult result;
  std::vector<double> cumulative;
  const auto k = static_cast<std::size_t>(game.num_strategies());
  std::vector<std::int64_t> tally(k, 0);
  for (StrategyId from : support) {
    const auto probs = outgoing_probabilities_reference(game, x, kernel, from);
    cumulative.resize(probs.size());
    engine_detail::build_cumulative(probs, cumulative);
    std::fill(tally.begin(), tally.end(), std::int64_t{0});
    const std::int64_t cohort = x.count(from);
    for (std::int64_t player = 0; player < cohort; ++player) {
      const double u = rng.uniform();
      for (std::size_t j = 0; j < k; ++j) {
        if (u < cumulative[j]) {
          ++tally[j];
          break;
        }
      }
      // Falling through every bucket = the player stays on `from`.
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (tally[j] == 0) continue;
      result.moves.push_back(
          Migration{from, static_cast<StrategyId>(j), tally[j]});
      result.movers += tally[j];
    }
  }
  return result;
}

}  // namespace reference_detail

/// One round through a kernel's per-pair move_probability, drawn without
/// applying it.
template <ProtocolKernel K>
RoundResult draw_round_reference(const CongestionGame& game, const State& x,
                                 const K& kernel, Rng& rng, EngineMode mode) {
  const auto support = x.support();
  switch (mode) {
    case EngineMode::kAggregate:
      return reference_detail::draw_reference_aggregate(game, x, kernel, rng,
                                                        support);
    case EngineMode::kPerPlayer:
      return reference_detail::draw_reference_per_player(game, x, kernel,
                                                         rng, support);
  }
  CID_ENSURE(false, "unreachable engine mode");
  return {};
}

/// The same round over any virtual Protocol: per-pair virtual
/// move_probability by definition, so always VirtualKernel.
inline RoundResult draw_round_reference(const CongestionGame& game,
                                        const State& x,
                                        const Protocol& protocol, Rng& rng,
                                        EngineMode mode) {
  return draw_round_reference(game, x, VirtualKernel(protocol), rng, mode);
}

}  // namespace cid::test
