#include "game/latency_context.hpp"

#include "util/assert.hpp"

namespace cid {

void LatencyContext::recompute_resource(std::size_t e) {
  const std::int64_t load = x_->congestion(static_cast<Resource>(e));
  // Exactly the evaluations the uncached game methods perform, so cached
  // reads reproduce them bit-for-bit: the game's flattened LatencyTable
  // (latency/kernel.hpp) is bitwise equal to the virtual call by contract.
  non_monotone_ -= ell_plus_[e] < ell_[e] ? 1 : 0;
  const LatencyTable& table = game_->latency_table();
  ell_[e] = table.value(e, static_cast<double>(load));
  ell_plus_[e] = table.value(e, static_cast<double>(load + 1));
  non_monotone_ += ell_plus_[e] < ell_[e] ? 1 : 0;
  load_[e] = load;
  evals_ += 2;
}

void LatencyContext::reset(const CongestionGame& game, const State& x) {
  CID_ENSURE(x.counts().size() ==
                 static_cast<std::size_t>(game.num_strategies()),
             "latency context: state does not belong to this game");
  game_ = &game;
  x_ = &x;
  const auto m = static_cast<std::size_t>(game.num_resources());
  const auto k = static_cast<std::size_t>(game.num_strategies());
  // Non-violating placeholders (0 < 0 is false), so recompute_resource's
  // decrement-old/increment-new bookkeeping starts from a clean slate.
  ell_.assign(m, 0.0);
  ell_plus_.assign(m, 0.0);
  load_.resize(m);
  strat_.resize(k);
  strat_epoch_.assign(k, 0);
  epoch_ = 0;
  evals_ = 0;
  non_monotone_ = 0;
  for (std::size_t e = 0; e < m; ++e) recompute_resource(e);
  const std::span<const Strategy> strategies = game.strategies();
  for (std::size_t p = 0; p < k; ++p) {
    // Same accumulation order as CongestionGame::strategy_latency.
    double acc = 0.0;
    for (Resource e : strategies[p]) {
      acc += ell_[static_cast<std::size_t>(e)];
    }
    strat_[p] = acc;
  }
}

void LatencyContext::refresh(std::span<const Resource> touched) {
  CID_ENSURE(ready(), "latency context: refresh before reset");
  ++epoch_;
  // Pass 1: re-evaluate every genuinely changed resource (dedupe by load
  // comparison — a net-zero touch leaves the cache entry valid).
  fresh_.clear();
  for (Resource e : touched) {
    const auto idx = static_cast<std::size_t>(e);
    if (load_[idx] == x_->congestion(e)) continue;
    recompute_resource(idx);
    fresh_.push_back(e);
  }
  // Pass 2: re-derive ℓ_P for strategies containing a changed resource
  // (after pass 1, so a strategy spanning two changed resources sums fresh
  // values only). strat_epoch_ dedupes strategies shared between them.
  const std::span<const Strategy> strategies = game_->strategies();
  for (Resource e : fresh_) {
    for (StrategyId p : game_->strategies_using(e)) {
      const auto pi = static_cast<std::size_t>(p);
      if (strat_epoch_[pi] == epoch_) continue;
      strat_epoch_[pi] = epoch_;
      double acc = 0.0;
      for (Resource r : strategies[pi]) {
        acc += ell_[static_cast<std::size_t>(r)];
      }
      strat_[pi] = acc;
    }
  }
}

double LatencyContext::plus_latency(StrategyId p) const noexcept {
  // Same accumulation order as CongestionGame::plus_latency.
  const Strategy& st = game_->strategies()[static_cast<std::size_t>(p)];
  double acc = 0.0;
  for (Resource e : st) acc += ell_plus_[static_cast<std::size_t>(e)];
  return acc;
}

}  // namespace cid
