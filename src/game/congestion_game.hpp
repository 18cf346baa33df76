// Symmetric congestion games (paper §2.1).
//
// A game is a set of resources with latency functions, a shared strategy
// space (each strategy a sorted set of resources — for network games, the
// edge sets of s-t paths), and a player count n. States live in a separate
// value type (`State`); all state-dependent quantities (ℓ_P(x), the ex-post
// latency ℓ_Q(x+1_Q−1_P), L_av, L⁺_av, Rosenthal's Φ) are methods here so
// the formulas exist in exactly one place.
//
// The protocol parameters derived from the latency functions — the
// elasticity bound d (≥ 1, as the damping factor 1/d must not amplify) and
// the slope bound ν = max_P Σ_{e∈P} ν_e — are computed at construction.
// The exploration slope bound β scans every load 1..n, so it is computed on
// first read instead: imitation-only runs never pay for it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "latency/kernel.hpp"
#include "latency/latency.hpp"

namespace cid {

using Resource = std::int32_t;
using StrategyId = std::int32_t;

/// A strategy is a non-empty, strictly increasing list of resource ids.
using Strategy = std::vector<Resource>;

class State;

class CongestionGame {
 public:
  /// Preconditions: every strategy non-empty, sorted, duplicate-free, with
  /// in-range resources; at least one strategy; n >= 1.
  CongestionGame(std::vector<LatencyPtr> latencies,
                 std::vector<Strategy> strategies, std::int64_t num_players);

  std::int32_t num_resources() const noexcept {
    return static_cast<std::int32_t>(latencies_.size());
  }
  std::int32_t num_strategies() const noexcept {
    return static_cast<std::int32_t>(strategies_.size());
  }
  std::int64_t num_players() const noexcept { return num_players_; }

  const Strategy& strategy(StrategyId p) const;
  const LatencyFunction& latency(Resource e) const;
  LatencyPtr latency_ptr(Resource e) const;

  /// The latency functions flattened once at construction
  /// (latency/kernel.hpp): potential() and the round kernels' LatencyContext
  /// evaluate through it without virtual dispatch.
  const LatencyTable& latency_table() const noexcept { return table_; }

  /// All strategies, unchecked-indexable (hot paths that already hold an
  /// in-range id — the batched round kernel — read through this span
  /// instead of paying strategy()'s bounds check per pair).
  std::span<const Strategy> strategies() const noexcept { return strategies_; }

  /// Strategies whose resource set contains e, ascending. Precomputed at
  /// construction; the round kernel's incremental latency cache uses it to
  /// re-derive only the ℓ_P sums that a congestion change actually touches.
  const std::vector<StrategyId>& strategies_using(Resource e) const;

  /// True iff every strategy is a single resource (paper's singleton games).
  bool is_singleton() const noexcept { return singleton_; }

  // ---- Protocol parameters (§2.2) ----

  /// Elasticity bound d = max(1, max_e elasticity_upper over (0, n]).
  double elasticity() const noexcept { return elasticity_; }

  /// ν_e for resource e (slope on almost-empty resources).
  double nu_resource(Resource e) const;

  /// ν_P = Σ_{e∈P} ν_e.
  double nu_strategy(StrategyId p) const;

  /// ν = max_P ν_P.
  double nu() const noexcept { return nu_; }

  /// Upper bound on ℓ_max = max_x max_P ℓ_P(x): every resource at load n.
  double max_latency_upper() const noexcept { return lmax_upper_; }

  /// ℓ_min = min_e ℓ_e(1): minimum latency of a non-empty resource
  /// (EXPLORATION PROTOCOL damping, §6).
  double min_nonempty_latency() const noexcept { return lmin_; }

  /// β = max_P Σ_{e∈P} max_step_slope(ℓ_e, n) (EXPLORATION damping). O(m·n)
  /// on the first call, which computes it once for this game and every
  /// copy of it (thread-safe); later calls read the cached value.
  double beta_slope() const {
    if (!beta_->ready.load(std::memory_order_acquire)) compute_beta();
    return beta_->value;
  }

  // ---- State-dependent quantities ----

  /// ℓ_e(x_e).
  double resource_latency(const State& x, Resource e) const;

  /// ℓ_P(x) = Σ_{e∈P} ℓ_e(x_e).
  double strategy_latency(const State& x, StrategyId p) const;

  /// ℓ_Q(x + 1_Q − 1_P): the latency the mover would experience after
  /// unilaterally switching P→Q. For e ∈ Q∩P the congestion is unchanged;
  /// for e ∈ Q\P it is x_e + 1.
  double expost_latency(const State& x, StrategyId from, StrategyId to) const;

  /// ℓ⁺_P(x) = ℓ_P(x + 1_P).
  double plus_latency(const State& x, StrategyId p) const;

  /// L_av(x) = Σ_P (x_P/n)·ℓ_P(x).
  double average_latency(const State& x) const;

  /// L⁺_av(x) = Σ_P (x_P/n)·ℓ_P(x+1_P).
  double plus_average_latency(const State& x) const;

  /// Rosenthal potential Φ(x) = Σ_e Σ_{i=1..x_e} ℓ_e(i). O(Σ_e x_e);
  /// call sparingly at large n (see PotentialTracker for incremental use).
  double potential(const State& x) const;

  std::string describe() const;

 private:
  // `once` serializes the first computation; `ready` lets the exploration
  // row fills, which read β once per pair, skip call_once afterwards.
  struct LazyBeta {
    std::once_flag once;
    std::atomic<bool> ready{false};
    double value = 0.0;
  };

  void validate() const;
  void compute_parameters();
  void compute_beta() const;

  std::vector<LatencyPtr> latencies_;
  std::vector<Strategy> strategies_;
  std::int64_t num_players_;
  bool singleton_ = false;

  std::vector<std::vector<StrategyId>> users_;  // resource → strategies

  double elasticity_ = 1.0;
  std::vector<double> nu_resource_;
  std::vector<double> nu_strategy_;
  double nu_ = 0.0;
  double lmax_upper_ = 0.0;
  double lmin_ = 0.0;
  // Shared, not copied, so a copy made before the first read agrees too.
  std::shared_ptr<LazyBeta> beta_ = std::make_shared<LazyBeta>();
  LatencyTable table_;
};

}  // namespace cid
