#include "dynamics/asymmetric_engine.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace cid {

void AsymmetricLatencyContext::recompute_resource(std::size_t e) {
  const std::int64_t load = x_->congestion(static_cast<Resource>(e));
  // Exactly the evaluations the uncached game methods perform, so cached
  // reads reproduce them bit-for-bit; under CID_SIMD they route through
  // the game's flattened LatencyTable (bitwise-equal by contract), a =0
  // build keeps the virtual dispatch.
  non_monotone_ -= ell_plus_[e] < ell_[e] ? 1 : 0;
  if constexpr (kSimdCompiled) {
    const LatencyTable& table = game_->latency_table();
    ell_[e] = table.value(e, static_cast<double>(load));
    ell_plus_[e] = table.value(e, static_cast<double>(load + 1));
  } else {
    const LatencyFunction& fn = game_->latency(static_cast<Resource>(e));
    ell_[e] = fn.value(static_cast<double>(load));
    ell_plus_[e] = fn.value(static_cast<double>(load + 1));
  }
  non_monotone_ += ell_plus_[e] < ell_[e] ? 1 : 0;
  load_[e] = load;
  evals_ += 2;
}

void AsymmetricLatencyContext::reset(const AsymmetricGame& game,
                                     const AsymmetricState& x) {
  game_ = &game;
  x_ = &x;
  const auto m = static_cast<std::size_t>(game.num_resources());
  const auto num_classes = static_cast<std::size_t>(game.num_classes());
  ell_.assign(m, 0.0);
  ell_plus_.assign(m, 0.0);
  load_.resize(m);
  strat_.resize(num_classes);
  strat_epoch_.resize(num_classes);
  users_.assign(m, {});
  epoch_ = 0;
  evals_ = 0;
  non_monotone_ = 0;
  for (std::size_t e = 0; e < m; ++e) recompute_resource(e);
  for (std::size_t c = 0; c < num_classes; ++c) {
    const PlayerClass& cls = game.player_class(static_cast<std::int32_t>(c));
    const auto k = cls.strategies.size();
    strat_[c].resize(k);
    strat_epoch_[c].assign(k, 0);
    for (std::size_t p = 0; p < k; ++p) {
      // Same accumulation order as AsymmetricGame::strategy_latency.
      double acc = 0.0;
      for (Resource e : cls.strategies[p]) {
        acc += ell_[static_cast<std::size_t>(e)];
        users_[static_cast<std::size_t>(e)].emplace_back(
            static_cast<std::int32_t>(c), static_cast<StrategyId>(p));
      }
      strat_[c][p] = acc;
    }
  }
}

void AsymmetricLatencyContext::refresh(std::span<const Resource> touched) {
  CID_ENSURE(ready(), "asymmetric latency context: refresh before reset");
  ++epoch_;
  // Pass 1: re-evaluate genuinely changed resources (net-zero touches are
  // deduped against the recorded loads, as in the symmetric context).
  fresh_.clear();
  for (Resource e : touched) {
    const auto idx = static_cast<std::size_t>(e);
    if (load_[idx] == x_->congestion(e)) continue;
    recompute_resource(idx);
    fresh_.push_back(e);
  }
  // Pass 2: re-derive ℓ_{c,P} for every (class, strategy) containing a
  // changed resource, after pass 1 so multi-resource strategies sum fresh
  // values only; the epoch table dedupes shared memberships.
  for (Resource e : fresh_) {
    for (const auto& [c, p] : users_[static_cast<std::size_t>(e)]) {
      const auto ci = static_cast<std::size_t>(c);
      const auto pi = static_cast<std::size_t>(p);
      if (strat_epoch_[ci][pi] == epoch_) continue;
      strat_epoch_[ci][pi] = epoch_;
      const PlayerClass& cls = game_->player_class(c);
      double acc = 0.0;
      for (Resource r : cls.strategies[pi]) {
        acc += ell_[static_cast<std::size_t>(r)];
      }
      strat_[ci][pi] = acc;
    }
  }
}

double AsymmetricLatencyContext::expost_latency(std::int32_t c,
                                                StrategyId from,
                                                StrategyId to) const noexcept {
  if (from == to) return strategy_latency(c, to);
  // Merge-walk mirroring AsymmetricGame::expost_latency over cached values.
  const PlayerClass& cls = game_->player_class(c);
  const Strategy& p = cls.strategies[static_cast<std::size_t>(from)];
  const Strategy& q = cls.strategies[static_cast<std::size_t>(to)];
  double acc = 0.0;
  std::size_t i = 0;
  for (Resource e : q) {
    while (i < p.size() && p[i] < e) ++i;
    const bool shared = i < p.size() && p[i] == e;
    const auto idx = static_cast<std::size_t>(e);
    acc += shared ? ell_[idx] : ell_plus_[idx];
  }
  return acc;
}

void fill_asymmetric_move_probabilities(
    const AsymmetricGame& game, const AsymmetricLatencyContext& ctx,
    const AsymmetricImitationParams& params, std::int32_t c, StrategyId from,
    std::span<const StrategyId> support, std::span<double> out) {
  CID_DCHECK(out.size() == support.size(),
             "probability row must span the class support");
  const PlayerClass& cls = game.player_class(c);
  if (cls.num_players < 2) {  // nobody to sample: the whole row is zero
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const auto& counts = ctx.state().counts()[static_cast<std::size_t>(c)];
  const double l_from = ctx.strategy_latency(c, from);
  const double nu = params.nu_cutoff ? game.nu() : 0.0;
  const double d = params.damping ? game.elasticity() : 1.0;
  // λ/d of the same doubles is the same double every entry; hoisting it
  // cannot change a bit (mirrors the symmetric protocol row fills).
  const double lambda_over_d = params.lambda / d;
  const double pool = static_cast<double>(cls.num_players - 1);
  for (std::size_t j = 0; j < support.size(); ++j) {
    const StrategyId to = support[j];
    if (to == from) {
      out[j] = 0.0;
      continue;
    }
    const std::int64_t targets = counts[static_cast<std::size_t>(to)];
    if (targets == 0) {
      out[j] = 0.0;
      continue;
    }
    const double l_to = ctx.expost_latency(c, from, to);
    if (!(l_from > l_to + nu)) {
      out[j] = 0.0;
      continue;
    }
    const double mu =
        std::clamp(lambda_over_d * (l_from - l_to) / l_from, 0.0, 1.0);
    const double sample = static_cast<double>(targets) / pool;
    out[j] = sample * mu;
  }
}

void draw_asymmetric_round(const AsymmetricGame& game,
                           const AsymmetricState& x,
                           const AsymmetricImitationParams& params, Rng& rng,
                           AsymmetricRoundWorkspace& ws,
                           AsymmetricRoundResult& out, int row_threads,
                           obs::EngineMetrics* metrics, bool trace) {
  CID_ENSURE(params.lambda > 0.0 && params.lambda <= 1.0,
             "lambda must be in (0, 1]");
  draw_asymmetric_round(game, x, AsymmetricImitationKernel(params), rng, ws,
                        out, row_threads, metrics, trace);
}

bool is_asymmetric_imitation_stable(const AsymmetricLatencyContext& ctx,
                                    double nu) {
  CID_ENSURE(nu >= 0.0, "nu must be >= 0");
  CID_ENSURE(ctx.ready(), "cached predicate needs a reset context");
  const AsymmetricGame& game = ctx.game();
  // Runs every check_interval inside the allocation-free trial loop, so
  // iterate each class's counts row directly rather than materializing
  // support vectors — same ascending order, bitwise-identical verdicts.
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const auto& counts = ctx.state().counts()[static_cast<std::size_t>(c)];
    const auto k = static_cast<StrategyId>(counts.size());
    for (StrategyId p = 0; p < k; ++p) {
      if (counts[static_cast<std::size_t>(p)] <= 0) continue;
      const double lp = ctx.strategy_latency(c, p);
      for (StrategyId q = 0; q < k; ++q) {
        if (q == p || counts[static_cast<std::size_t>(q)] <= 0) continue;
        if (lp > ctx.expost_latency(c, p, q) + nu) return false;
      }
    }
  }
  return true;
}

bool is_asymmetric_nash(const AsymmetricLatencyContext& ctx) {
  CID_ENSURE(ctx.ready(), "cached predicate needs a reset context");
  const AsymmetricGame& game = ctx.game();
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const auto& counts = ctx.state().counts()[static_cast<std::size_t>(c)];
    const auto k = static_cast<StrategyId>(counts.size());
    for (StrategyId p = 0; p < k; ++p) {
      if (counts[static_cast<std::size_t>(p)] <= 0) continue;
      const double lp = ctx.strategy_latency(c, p);
      for (StrategyId q = 0; q < k; ++q) {
        if (q == p) continue;
        if (lp > ctx.expost_latency(c, p, q) + 1e-12) return false;
      }
    }
  }
  return true;
}

}  // namespace cid
