// Per-origin ex-post latency table over a LatencyContext.
//
// A row fill needs ℓ_Q(x + 1_Q − 1_P) for one origin P and every
// destination Q. Each term of that sum is ℓ_e(x_e) when e ∈ P and
// ℓ_e(x_e + 1) otherwise, so one table serves the whole row:
//
//   ExpostTable::sync   copies the context's ℓ_e(x_e + 1) table      O(m)
//   OriginView (ctor)   patches P's resources to ℓ_e(x_e)           O(|P|)
//   expost_latency(Q)   sums the table over Q's resources            O(|Q|)
//   OriginView (dtor)   restores P's resources to ℓ_e(x_e + 1)       O(|P|)
//
// The sum reads, in Q's order from 0.0, exactly the values
// CongestionGame::expost_latency evaluates, so it is bitwise equal to that
// oracle (tests/test_latency_context.cpp); Q = P reads ℓ_e(x_e) on every
// term, which is ℓ_P(x). An ExpostTable is scratch owned by one worker —
// the engine keeps one per row-fill worker in its RoundWorkspace — and it
// must be re-synced whenever the context changed.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "game/congestion_game.hpp"
#include "game/latency_context.hpp"

namespace cid {

class ExpostTable {
 public:
  /// Takes a copy of ctx's ℓ_e(x_e + 1) table. Call after every change to
  /// ctx (reset or refresh) and before binding an origin.
  void sync(const LatencyContext& ctx) {
    const std::span<const double> plus = ctx.resource_latencies_plus();
    ctx_ = &ctx;
    values_.assign(plus.begin(), plus.end());
  }

 private:
  friend class OriginView;
  const LatencyContext* ctx_ = nullptr;
  std::vector<double> values_;
};

/// An ExpostTable bound to one origin for the lifetime of the view. At
/// most one view per table may be alive at a time.
class OriginView {
 public:
  OriginView(ExpostTable& table, StrategyId from) noexcept
      : table_(table),
        strategies_(table.ctx_->game().strategies()),
        from_(from) {
    const std::span<const double> ell = table_.ctx_->resource_latencies();
    for (Resource e : origin()) {
      const auto idx = static_cast<std::size_t>(e);
      table_.values_[idx] = ell[idx];
    }
  }

  ~OriginView() {
    const std::span<const double> plus =
        table_.ctx_->resource_latencies_plus();
    for (Resource e : origin()) {
      const auto idx = static_cast<std::size_t>(e);
      table_.values_[idx] = plus[idx];
    }
  }

  OriginView(const OriginView&) = delete;
  OriginView& operator=(const OriginView&) = delete;

  const LatencyContext& ctx() const noexcept { return *table_.ctx_; }
  StrategyId from() const noexcept { return from_; }

  /// ℓ_Q(x + 1_Q − 1_P) for P = from() — bitwise equal to
  /// game.expost_latency(x, from(), to).
  double expost_latency(StrategyId to) const noexcept {
    const double* values = table_.values_.data();
    double acc = 0.0;
    for (Resource e : strategies_[static_cast<std::size_t>(to)]) {
      acc += values[static_cast<std::size_t>(e)];
    }
    return acc;
  }

 private:
  const Strategy& origin() const noexcept {
    return strategies_[static_cast<std::size_t>(from_)];
  }

  ExpostTable& table_;
  std::span<const Strategy> strategies_;
  StrategyId from_;
};

}  // namespace cid
