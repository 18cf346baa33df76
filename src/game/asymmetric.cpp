#include "game/asymmetric.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "game/expost_table.hpp"
#include "game/latency_context.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid {

namespace {

/// Checks the class structure and concatenates every class's strategies in
/// class order; CongestionGame validates the resources.
CongestionGame flatten(std::vector<LatencyPtr> latencies,
                       const std::vector<PlayerClass>& classes) {
  CID_ENSURE(!classes.empty(), "game needs at least one player class");
  std::vector<Strategy> strategies;
  std::int64_t total_players = 0;
  for (const auto& cls : classes) {
    CID_ENSURE(cls.num_players >= 1, "class needs at least one player");
    CID_ENSURE(!cls.strategies.empty(), "class needs at least one strategy");
    strategies.insert(strategies.end(), cls.strategies.begin(),
                      cls.strategies.end());
    total_players += cls.num_players;
  }
  return CongestionGame(std::move(latencies), std::move(strategies),
                        total_players);
}

}  // namespace

AsymmetricGame::AsymmetricGame(std::vector<LatencyPtr> latencies,
                               std::vector<PlayerClass> classes)
    : classes_(std::move(classes)),
      flat_(flatten(std::move(latencies), classes_)) {
  offsets_.push_back(0);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const auto k = static_cast<StrategyId>(classes_[c].strategies.size());
    offsets_.push_back(offsets_.back() + k);
    class_of_.insert(class_of_.end(), static_cast<std::size_t>(k),
                     static_cast<std::int32_t>(c));
  }
}

const PlayerClass& AsymmetricGame::player_class(std::int32_t c) const {
  CID_ENSURE(c >= 0 && c < num_classes(), "class out of range");
  return classes_[static_cast<std::size_t>(c)];
}

State AsymmetricGame::flat_state(const AsymmetricState& x) const {
  std::vector<std::int64_t> counts;
  counts.reserve(static_cast<std::size_t>(flat_.num_strategies()));
  for (const auto& row : x.counts()) {
    counts.insert(counts.end(), row.begin(), row.end());
  }
  return State(flat_, std::move(counts));
}

AsymmetricState AsymmetricGame::class_state(const State& flat) const {
  const std::span<const std::int64_t> counts = flat.counts();
  CID_ENSURE(counts.size() == static_cast<std::size_t>(offsets_.back()),
             "flat state does not belong to this game");
  std::vector<std::vector<std::int64_t>> rows(classes_.size());
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    rows[c].assign(counts.begin() + offsets_[c],
                   counts.begin() + offsets_[c + 1]);
  }
  return AsymmetricState(*this, std::move(rows));
}

double AsymmetricGame::strategy_latency(const AsymmetricState& x,
                                        std::int32_t c, StrategyId p) const {
  const PlayerClass& cls = player_class(c);
  CID_ENSURE(p >= 0 && static_cast<std::size_t>(p) < cls.strategies.size(),
             "strategy out of range");
  double acc = 0.0;
  for (Resource e : cls.strategies[static_cast<std::size_t>(p)]) {
    acc += latency(e).value(static_cast<double>(x.congestion(e)));
  }
  return acc;
}

double AsymmetricGame::expost_latency(const AsymmetricState& x,
                                      std::int32_t c, StrategyId from,
                                      StrategyId to) const {
  const PlayerClass& cls = player_class(c);
  CID_ENSURE(from >= 0 &&
                 static_cast<std::size_t>(from) < cls.strategies.size(),
             "strategy out of range");
  CID_ENSURE(to >= 0 && static_cast<std::size_t>(to) < cls.strategies.size(),
             "strategy out of range");
  if (from == to) return strategy_latency(x, c, to);
  const Strategy& p = cls.strategies[static_cast<std::size_t>(from)];
  const Strategy& q = cls.strategies[static_cast<std::size_t>(to)];
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

double AsymmetricGame::class_average_latency(const AsymmetricState& x,
                                             std::int32_t c) const {
  const PlayerClass& cls = player_class(c);
  double acc = 0.0;
  for (StrategyId p : x.support(c)) {
    acc += static_cast<double>(x.count(c, p)) * strategy_latency(x, c, p);
  }
  return acc / static_cast<double>(cls.num_players);
}

double AsymmetricGame::potential(const AsymmetricState& x) const {
  return flat_.latency_table().potential(x.congestions());
}

std::string AsymmetricGame::describe() const {
  std::ostringstream os;
  os << "AsymmetricGame{n=" << num_players() << ", m=" << num_resources()
     << ", classes=" << num_classes() << ", d=" << elasticity()
     << ", nu=" << nu() << "}";
  return os.str();
}

// ---- AsymmetricState ---------------------------------------------------------

AsymmetricState::AsymmetricState(
    const AsymmetricGame& game,
    std::vector<std::vector<std::int64_t>> counts)
    : counts_(std::move(counts)) {
  CID_ENSURE(static_cast<std::int32_t>(counts_.size()) == game.num_classes(),
             "counts must have one row per class");
  congestion_.assign(static_cast<std::size_t>(game.num_resources()), 0);
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const PlayerClass& cls = game.player_class(c);
    auto& row = counts_[static_cast<std::size_t>(c)];
    CID_ENSURE(row.size() == cls.strategies.size(),
               "counts row size must match class strategy count");
    std::int64_t total = 0;
    for (std::size_t p = 0; p < row.size(); ++p) {
      CID_ENSURE(row[p] >= 0, "negative strategy count");
      total += row[p];
      if (row[p] == 0) continue;
      for (Resource e : cls.strategies[p]) {
        congestion_[static_cast<std::size_t>(e)] += row[p];
      }
    }
    CID_ENSURE(total == cls.num_players,
               "class counts must sum to the class population");
  }
}

AsymmetricState AsymmetricState::uniform_random(const AsymmetricGame& game,
                                                Rng& rng) {
  std::vector<std::vector<std::int64_t>> counts(
      static_cast<std::size_t>(game.num_classes()));
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const PlayerClass& cls = game.player_class(c);
    const auto k = cls.strategies.size();
    std::vector<double> probs(k, 1.0 / static_cast<double>(k));
    auto row = rng.multinomial(cls.num_players, probs);
    const std::int64_t assigned =
        std::accumulate(row.begin(), row.end(), std::int64_t{0});
    row.back() += cls.num_players - assigned;
    counts[static_cast<std::size_t>(c)] = std::move(row);
  }
  return AsymmetricState(game, std::move(counts));
}

AsymmetricState AsymmetricState::spread_evenly(const AsymmetricGame& game) {
  std::vector<std::vector<std::int64_t>> counts(
      static_cast<std::size_t>(game.num_classes()));
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const PlayerClass& cls = game.player_class(c);
    const auto k = static_cast<std::int64_t>(cls.strategies.size());
    std::vector<std::int64_t> row(static_cast<std::size_t>(k));
    const std::int64_t base = cls.num_players / k;
    const std::int64_t extra = cls.num_players % k;
    for (std::int64_t i = 0; i < k; ++i) {
      row[static_cast<std::size_t>(i)] = base + (i < extra ? 1 : 0);
    }
    counts[static_cast<std::size_t>(c)] = std::move(row);
  }
  return AsymmetricState(game, std::move(counts));
}

std::int64_t AsymmetricState::count(std::int32_t c, StrategyId p) const {
  CID_ENSURE(c >= 0 && static_cast<std::size_t>(c) < counts_.size(),
             "class out of range");
  const auto& row = counts_[static_cast<std::size_t>(c)];
  CID_ENSURE(p >= 0 && static_cast<std::size_t>(p) < row.size(),
             "strategy out of range");
  return row[static_cast<std::size_t>(p)];
}

std::int64_t AsymmetricState::congestion(Resource e) const {
  CID_ENSURE(e >= 0 && static_cast<std::size_t>(e) < congestion_.size(),
             "resource out of range");
  return congestion_[static_cast<std::size_t>(e)];
}

std::vector<StrategyId> AsymmetricState::support(std::int32_t c) const {
  CID_ENSURE(c >= 0 && static_cast<std::size_t>(c) < counts_.size(),
             "class out of range");
  std::vector<StrategyId> used;
  const auto& row = counts_[static_cast<std::size_t>(c)];
  for (std::size_t p = 0; p < row.size(); ++p) {
    if (row[p] > 0) used.push_back(static_cast<StrategyId>(p));
  }
  return used;
}

void AsymmetricState::apply(const AsymmetricGame& game,
                            std::span<const ClassMigration> moves) {
  std::vector<std::vector<std::int64_t>> outflow(counts_.size());
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    outflow[c].assign(counts_[c].size(), 0);
  }
  for (const ClassMigration& mv : moves) {
    CID_ENSURE(mv.player_class >= 0 &&
                   static_cast<std::size_t>(mv.player_class) < counts_.size(),
               "migration class out of range");
    const auto& row = counts_[static_cast<std::size_t>(mv.player_class)];
    CID_ENSURE(mv.from >= 0 && static_cast<std::size_t>(mv.from) < row.size(),
               "migration origin out of range");
    CID_ENSURE(mv.to >= 0 && static_cast<std::size_t>(mv.to) < row.size(),
               "migration destination out of range");
    CID_ENSURE(mv.count >= 0, "migration count must be >= 0");
    CID_ENSURE(mv.from != mv.to, "migration must change strategy");
    outflow[static_cast<std::size_t>(mv.player_class)]
           [static_cast<std::size_t>(mv.from)] += mv.count;
  }
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    for (std::size_t p = 0; p < counts_[c].size(); ++p) {
      CID_ENSURE(outflow[c][p] <= counts_[c][p],
                 "migration outflow exceeds class strategy population");
    }
  }
  for (const ClassMigration& mv : moves) {
    if (mv.count == 0) continue;
    auto& row = counts_[static_cast<std::size_t>(mv.player_class)];
    row[static_cast<std::size_t>(mv.from)] -= mv.count;
    row[static_cast<std::size_t>(mv.to)] += mv.count;
    const PlayerClass& cls = game.player_class(mv.player_class);
    for (Resource e : cls.strategies[static_cast<std::size_t>(mv.from)]) {
      congestion_[static_cast<std::size_t>(e)] -= mv.count;
    }
    for (Resource e : cls.strategies[static_cast<std::size_t>(mv.to)]) {
      congestion_[static_cast<std::size_t>(e)] += mv.count;
    }
  }
}

void AsymmetricState::check_consistent(const AsymmetricGame& game) const {
  std::vector<std::int64_t> expect(
      static_cast<std::size_t>(game.num_resources()), 0);
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const PlayerClass& cls = game.player_class(c);
    const auto& row = counts_[static_cast<std::size_t>(c)];
    std::int64_t total = 0;
    for (std::size_t p = 0; p < row.size(); ++p) {
      CID_ENSURE(row[p] >= 0, "negative count");
      total += row[p];
      for (Resource e : cls.strategies[p]) {
        expect[static_cast<std::size_t>(e)] += row[p];
      }
    }
    CID_ENSURE(total == cls.num_players, "class mass not conserved");
  }
  CID_ENSURE(expect == congestion_, "congestion cache out of sync");
}

// ---- Dynamics ----------------------------------------------------------------

double asymmetric_move_probability(const AsymmetricGame& game,
                                   const AsymmetricState& x,
                                   const AsymmetricImitationParams& params,
                                   std::int32_t c, StrategyId from,
                                   StrategyId to) {
  CID_ENSURE(from != to, "move probability needs distinct strategies");
  CID_ENSURE(params.lambda > 0.0 && params.lambda <= 1.0,
             "lambda must be in (0, 1]");
  const PlayerClass& cls = game.player_class(c);
  if (cls.num_players < 2) return 0.0;  // nobody to sample
  const std::int64_t targets = x.count(c, to);
  if (targets == 0) return 0.0;
  const double l_from = game.strategy_latency(x, c, from);
  const double l_to = game.expost_latency(x, c, from, to);
  const double nu = params.nu_cutoff ? game.nu() : 0.0;
  if (!(l_from > l_to + nu)) return 0.0;
  const double d = params.damping ? game.elasticity() : 1.0;
  const double mu =
      std::clamp(params.lambda / d * (l_from - l_to) / l_from, 0.0, 1.0);
  const double sample = static_cast<double>(targets) /
                        static_cast<double>(cls.num_players - 1);
  return sample * mu;
}

AsymmetricRoundResult draw_asymmetric_round_reference(
    const AsymmetricGame& game, const AsymmetricState& x,
    const AsymmetricImitationParams& params, Rng& rng) {
  AsymmetricRoundResult result;
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const auto support = x.support(c);
    for (StrategyId from : support) {
      std::vector<double> probs(support.size(), 0.0);
      for (std::size_t j = 0; j < support.size(); ++j) {
        if (support[j] == from) continue;
        probs[j] = asymmetric_move_probability(game, x, params, c, from,
                                               support[j]);
      }
      const auto counts = rng.multinomial(x.count(c, from), probs);
      for (std::size_t j = 0; j < support.size(); ++j) {
        if (counts[j] == 0) continue;
        result.moves.push_back(
            ClassMigration{c, from, support[j], counts[j]});
        result.movers += counts[j];
      }
    }
  }
  return result;
}

AsymmetricRoundResult step_asymmetric_round(
    const AsymmetricGame& game, AsymmetricState& x,
    const AsymmetricImitationParams& params, Rng& rng) {
  AsymmetricRoundResult result =
      draw_asymmetric_round_reference(game, x, params, rng);
  x.apply(game, result.moves);
  return result;
}

bool is_asymmetric_imitation_stable(const AsymmetricGame& game,
                                    const AsymmetricState& x, double nu) {
  CID_ENSURE(nu >= 0.0, "nu must be >= 0");
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const auto support = x.support(c);
    for (StrategyId p : support) {
      const double lp = game.strategy_latency(x, c, p);
      for (StrategyId q : support) {
        if (q == p) continue;
        if (lp > game.expost_latency(x, c, p, q) + nu) return false;
      }
    }
  }
  return true;
}

bool is_asymmetric_nash(const AsymmetricGame& game,
                        const AsymmetricState& x) {
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const PlayerClass& cls = game.player_class(c);
    for (StrategyId p : x.support(c)) {
      const double lp = game.strategy_latency(x, c, p);
      const auto k = static_cast<StrategyId>(cls.strategies.size());
      for (StrategyId q = 0; q < k; ++q) {
        if (q == p) continue;
        if (lp > game.expost_latency(x, c, p, q) + 1e-12) return false;
      }
    }
  }
  return true;
}

// The cached overloads iterate each class's flat counts block directly (no
// support vectors: they run every check_interval inside the trial loop) in
// the same ascending order as the oracles, reading the same latencies.
bool is_asymmetric_imitation_stable(const AsymmetricGame& game,
                                    const LatencyContext& ctx, double nu,
                                    ExpostTable& scratch) {
  CID_ENSURE(nu >= 0.0, "nu must be >= 0");
  CID_ENSURE(ctx.ready(), "cached predicate needs a reset context");
  const std::span<const std::int64_t> counts = ctx.state().counts();
  scratch.sync(ctx);
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const StrategyId begin = game.class_offset(c);
    const StrategyId end = game.class_offset(c + 1);
    for (StrategyId p = begin; p < end; ++p) {
      if (counts[static_cast<std::size_t>(p)] <= 0) continue;
      const double lp = ctx.strategy_latency(p);
      const OriginView origin(scratch, p);
      for (StrategyId q = begin; q < end; ++q) {
        if (q == p || counts[static_cast<std::size_t>(q)] <= 0) continue;
        if (lp > origin.expost_latency(q) + nu) return false;
      }
    }
  }
  return true;
}

bool is_asymmetric_nash(const AsymmetricGame& game, const LatencyContext& ctx,
                        ExpostTable& scratch) {
  CID_ENSURE(ctx.ready(), "cached predicate needs a reset context");
  const std::span<const std::int64_t> counts = ctx.state().counts();
  scratch.sync(ctx);
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const StrategyId begin = game.class_offset(c);
    const StrategyId end = game.class_offset(c + 1);
    for (StrategyId p = begin; p < end; ++p) {
      if (counts[static_cast<std::size_t>(p)] <= 0) continue;
      const double lp = ctx.strategy_latency(p);
      const OriginView origin(scratch, p);
      for (StrategyId q = begin; q < end; ++q) {
        if (q == p) continue;
        if (lp > origin.expost_latency(q) + 1e-12) return false;
      }
    }
  }
  return true;
}

}  // namespace cid
