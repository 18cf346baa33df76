// Per-origin ex-post latency table over a LatencyContext.
//
// A row fill needs ℓ_Q(x + 1_Q − 1_P) for one origin P and every
// destination Q. Each term of that sum is ℓ_e(x_e) when e ∈ P and
// ℓ_e(x_e + 1) otherwise, so one table serves the whole row:
//
//   ExpostTable::sync   copies the context's ℓ_e(x_e + 1) table      O(m)
//   OriginView (ctor)   patches P's resources to ℓ_e(x_e)           O(|P|)
//   expost_latency(Q)   sums the table over Q's resources            O(|Q|)
//   expost_row(out)     every Q's sum, four interleaved at a time    O(Σ|Q|)
//   OriginView (dtor)   restores P's resources to ℓ_e(x_e + 1)       O(|P|)
//
// The sum reads, in Q's order from 0.0, exactly the values
// CongestionGame::expost_latency evaluates, so it is bitwise equal to that
// oracle (tests/test_latency_context.cpp); Q = P reads ℓ_e(x_e) on every
// term, which is ℓ_P(x). An ExpostTable is scratch owned by one worker —
// the engine keeps one per row-fill worker in its RoundWorkspace — and it
// must be re-synced whenever the context changed.
#pragma once

#include <algorithm>
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

  /// out[to] = expost_latency(to) for every to < out.size(). Four sums run
  /// interleaved, each still in Q's order from 0.0: one sum at a time is
  /// a chain of dependent adds the core cannot overlap far enough.
  void expost_row(std::span<double> out) const noexcept {
    const double* values = table_.values_.data();
    const auto at = [values](const Strategy& q, std::size_t i) {
      return values[static_cast<std::size_t>(q[i])];
    };
    std::size_t to = 0;
    for (; to < out.size() % 4; ++to) {
      out[to] = expost_latency(static_cast<StrategyId>(to));
    }
    for (; to < out.size(); to += 4) {
      const Strategy& q0 = strategies_[to];
      const Strategy& q1 = strategies_[to + 1];
      const Strategy& q2 = strategies_[to + 2];
      const Strategy& q3 = strategies_[to + 3];
      const std::size_t common =
          std::min({q0.size(), q1.size(), q2.size(), q3.size()});
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (std::size_t i = 0; i < common; ++i) {
        a0 += at(q0, i);
        a1 += at(q1, i);
        a2 += at(q2, i);
        a3 += at(q3, i);
      }
      for (std::size_t i = common; i < q0.size(); ++i) a0 += at(q0, i);
      for (std::size_t i = common; i < q1.size(); ++i) a1 += at(q1, i);
      for (std::size_t i = common; i < q2.size(); ++i) a2 += at(q2, i);
      for (std::size_t i = common; i < q3.size(); ++i) a3 += at(q3, i);
      out[to] = a0;
      out[to + 1] = a1;
      out[to + 2] = a2;
      out[to + 3] = a3;
    }
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
