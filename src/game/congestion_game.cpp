#include "game/congestion_game.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "game/state.hpp"
#include "util/assert.hpp"

namespace cid {

CongestionGame::CongestionGame(std::vector<LatencyPtr> latencies,
                               std::vector<Strategy> strategies,
                               std::int64_t num_players)
    : latencies_(std::move(latencies)),
      strategies_(std::move(strategies)),
      num_players_(num_players) {
  validate();
  compute_parameters();
}

void CongestionGame::validate() const {
  CID_ENSURE(!latencies_.empty(), "game needs at least one resource");
  CID_ENSURE(!strategies_.empty(), "game needs at least one strategy");
  CID_ENSURE(num_players_ >= 1, "game needs at least one player");
  for (const auto& fn : latencies_) {
    CID_ENSURE(fn != nullptr, "null latency function");
  }
  for (const auto& st : strategies_) {
    CID_ENSURE(!st.empty(), "empty strategy");
    for (std::size_t i = 0; i < st.size(); ++i) {
      CID_ENSURE(st[i] >= 0 && st[i] < num_resources(),
                 "strategy resource out of range");
      if (i > 0) {
        CID_ENSURE(st[i - 1] < st[i],
                   "strategy resources must be sorted and duplicate-free");
      }
    }
  }
}

void CongestionGame::compute_parameters() {
  singleton_ = std::all_of(strategies_.begin(), strategies_.end(),
                           [](const Strategy& s) { return s.size() == 1; });

  // Resource → strategy incidence (ascending by construction: strategies
  // are visited in id order). Memory O(Σ_P |P|), same as the strategies.
  users_.assign(latencies_.size(), {});
  for (std::size_t p = 0; p < strategies_.size(); ++p) {
    for (Resource e : strategies_[p]) {
      users_[static_cast<std::size_t>(e)].push_back(
          static_cast<StrategyId>(p));
    }
  }

  const auto nd = static_cast<double>(num_players_);
  double d = 0.0;
  for (const auto& fn : latencies_) {
    d = std::max(d, fn->elasticity_upper(nd));
  }
  // The damping factor 1/d must not amplify migration probabilities, and
  // ν's window {1..⌈d⌉} needs d >= 1 (paper uses d >= 1 throughout).
  elasticity_ = std::max(1.0, d);

  nu_resource_.resize(latencies_.size());
  for (std::size_t e = 0; e < latencies_.size(); ++e) {
    nu_resource_[e] = slope_nu(*latencies_[e], elasticity_);
  }
  nu_strategy_.resize(strategies_.size());
  nu_ = 0.0;
  for (std::size_t p = 0; p < strategies_.size(); ++p) {
    double acc = 0.0;
    for (Resource e : strategies_[p]) {
      acc += nu_resource_[static_cast<std::size_t>(e)];
    }
    nu_strategy_[p] = acc;
    nu_ = std::max(nu_, acc);
  }

  lmax_upper_ = 0.0;
  for (const auto& st : strategies_) {
    double acc = 0.0;
    for (Resource e : st) {
      acc += latencies_[static_cast<std::size_t>(e)]->value(nd);
    }
    lmax_upper_ = std::max(lmax_upper_, acc);
  }

  lmin_ = latencies_.front()->value(1.0);
  for (const auto& fn : latencies_) {
    lmin_ = std::min(lmin_, fn->value(1.0));
  }

  table_.reserve(latencies_.size());
  for (const auto& fn : latencies_) table_.add(*fn);
}

void CongestionGame::compute_beta() const {
  std::call_once(beta_->once, [this] {
    // One max_step_slope per used resource, then the same per-strategy
    // sums in the same order as summing it per (strategy, resource) pair,
    // so β has the same bits for a fraction of the scans.
    std::vector<double> slope(latencies_.size(), 0.0);
    for (std::size_t e = 0; e < latencies_.size(); ++e) {
      if (!users_[e].empty()) {
        slope[e] = max_step_slope(*latencies_[e], num_players_);
      }
    }
    double beta = 0.0;
    for (const auto& st : strategies_) {
      double acc = 0.0;
      for (Resource e : st) acc += slope[static_cast<std::size_t>(e)];
      beta = std::max(beta, acc);
    }
    beta_->value = beta;
    beta_->ready.store(true, std::memory_order_release);
  });
}

const Strategy& CongestionGame::strategy(StrategyId p) const {
  CID_ENSURE(p >= 0 && p < num_strategies(), "strategy id out of range");
  return strategies_[static_cast<std::size_t>(p)];
}

const LatencyFunction& CongestionGame::latency(Resource e) const {
  CID_ENSURE(e >= 0 && e < num_resources(), "resource id out of range");
  return *latencies_[static_cast<std::size_t>(e)];
}

LatencyPtr CongestionGame::latency_ptr(Resource e) const {
  CID_ENSURE(e >= 0 && e < num_resources(), "resource id out of range");
  return latencies_[static_cast<std::size_t>(e)];
}

const std::vector<StrategyId>& CongestionGame::strategies_using(
    Resource e) const {
  CID_ENSURE(e >= 0 && e < num_resources(), "resource id out of range");
  return users_[static_cast<std::size_t>(e)];
}

double CongestionGame::nu_resource(Resource e) const {
  CID_ENSURE(e >= 0 && e < num_resources(), "resource id out of range");
  return nu_resource_[static_cast<std::size_t>(e)];
}

double CongestionGame::nu_strategy(StrategyId p) const {
  CID_ENSURE(p >= 0 && p < num_strategies(), "strategy id out of range");
  return nu_strategy_[static_cast<std::size_t>(p)];
}

double CongestionGame::resource_latency(const State& x, Resource e) const {
  return latency(e).value(static_cast<double>(x.congestion(e)));
}

double CongestionGame::strategy_latency(const State& x, StrategyId p) const {
  double acc = 0.0;
  for (Resource e : strategy(p)) acc += resource_latency(x, e);
  return acc;
}

double CongestionGame::expost_latency(const State& x, StrategyId from,
                                      StrategyId to) const {
  if (from == to) return strategy_latency(x, to);
  // Merge-walk the two sorted strategies: resources in `to` only are
  // evaluated at x_e + 1, shared resources at x_e.
  const Strategy& p = strategy(from);
  const Strategy& q = strategy(to);
  double acc = 0.0;
  std::size_t i = 0;
  for (Resource e : q) {
    while (i < p.size() && p[i] < e) ++i;
    const bool shared = i < p.size() && p[i] == e;
    const auto load = static_cast<double>(x.congestion(e) + (shared ? 0 : 1));
    acc += latency(e).value(load);
  }
  return acc;
}

double CongestionGame::plus_latency(const State& x, StrategyId p) const {
  double acc = 0.0;
  for (Resource e : strategy(p)) {
    acc += latency(e).value(static_cast<double>(x.congestion(e) + 1));
  }
  return acc;
}

double CongestionGame::average_latency(const State& x) const {
  double acc = 0.0;
  for (StrategyId p : x.support()) {
    acc += static_cast<double>(x.count(p)) * strategy_latency(x, p);
  }
  return acc / static_cast<double>(num_players_);
}

double CongestionGame::plus_average_latency(const State& x) const {
  double acc = 0.0;
  for (StrategyId p : x.support()) {
    acc += static_cast<double>(x.count(p)) * plus_latency(x, p);
  }
  return acc / static_cast<double>(num_players_);
}

double CongestionGame::potential(const State& x) const {
  return table_.potential(x.congestions());
}

std::string CongestionGame::describe() const {
  std::ostringstream os;
  os << "CongestionGame{n=" << num_players_ << ", m=" << num_resources()
     << ", |P|=" << num_strategies() << (singleton_ ? ", singleton" : "")
     << ", d=" << elasticity_ << ", nu=" << nu_ << "}";
  return os.str();
}

}  // namespace cid
