#include "lowerbound/threshold_game.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace cid {

namespace {
constexpr double kTie = 1e-9;
}

ThresholdGame::ThresholdGame(std::vector<LoadLatency> latencies,
                             std::vector<ThresholdPlayer> players)
    : latencies_(std::move(latencies)), players_(std::move(players)) {
  CID_ENSURE(!latencies_.empty(), "threshold game needs resources");
  CID_ENSURE(!players_.empty(), "threshold game needs players");
  for (const auto& fn : latencies_) {
    CID_ENSURE(static_cast<bool>(fn), "null latency");
  }
  for (const auto& p : players_) {
    CID_ENSURE(p.out_resource >= 0 && p.out_resource < num_resources(),
               "out resource out of range");
    CID_ENSURE(!p.in_strategy.empty(), "empty in-strategy");
    for (std::size_t k = 0; k < p.in_strategy.size(); ++k) {
      CID_ENSURE(p.in_strategy[k] >= 0 && p.in_strategy[k] < num_resources(),
                 "in-strategy resource out of range");
      if (k > 0) {
        CID_ENSURE(p.in_strategy[k - 1] < p.in_strategy[k],
                   "in-strategy must be sorted and duplicate-free");
      }
    }
  }
}

const ThresholdPlayer& ThresholdGame::player(std::int32_t i) const {
  CID_ENSURE(i >= 0 && i < num_players(), "player out of range");
  return players_[static_cast<std::size_t>(i)];
}

double ThresholdGame::resource_latency(std::int32_t r,
                                       std::int64_t load) const {
  CID_ENSURE(r >= 0 && r < num_resources(), "resource out of range");
  CID_ENSURE(load >= 0, "negative load");
  return latencies_[static_cast<std::size_t>(r)](load);
}

double ThresholdGame::latency_of(const ThresholdState& s,
                                 std::int32_t i) const {
  const ThresholdPlayer& p = player(i);
  if (s.plays_in(i)) {
    double acc = 0.0;
    for (std::int32_t r : p.in_strategy) {
      acc += resource_latency(r, s.load(r));
    }
    return acc;
  }
  return resource_latency(p.out_resource, s.load(p.out_resource));
}

double ThresholdGame::latency_if_toggled(const ThresholdState& s,
                                         std::int32_t i) const {
  const ThresholdPlayer& p = player(i);
  if (s.plays_in(i)) {
    // Switch to S_out: joins the out-resource (disjoint from S_in).
    return resource_latency(p.out_resource, s.load(p.out_resource) + 1);
  }
  double acc = 0.0;
  for (std::int32_t r : p.in_strategy) {
    acc += resource_latency(r, s.load(r) + 1);
  }
  return acc;
}

std::vector<std::int32_t> ThresholdGame::improving_players(
    const ThresholdState& s) const {
  std::vector<std::int32_t> out;
  for (std::int32_t i = 0; i < num_players(); ++i) {
    if (latency_if_toggled(s, i) < latency_of(s, i) - kTie) out.push_back(i);
  }
  return out;
}

bool ThresholdGame::is_stable(const ThresholdState& s) const {
  return improving_players(s).empty();
}

double ThresholdGame::potential(const ThresholdState& s) const {
  NeumaierSum acc;
  for (std::int32_t r = 0; r < num_resources(); ++r) {
    for (std::int64_t u = 1; u <= s.load(r); ++u) {
      acc.add(resource_latency(r, u));
    }
  }
  return acc.value();
}

ThresholdState::ThresholdState(const ThresholdGame& game,
                               std::vector<bool> in)
    : in_(std::move(in)) {
  CID_ENSURE(static_cast<std::int32_t>(in_.size()) == game.num_players(),
             "state size must match player count");
  load_.assign(static_cast<std::size_t>(game.num_resources()), 0);
  for (std::int32_t i = 0; i < game.num_players(); ++i) {
    const ThresholdPlayer& p = game.player(i);
    if (in_[static_cast<std::size_t>(i)]) {
      for (std::int32_t r : p.in_strategy) {
        ++load_[static_cast<std::size_t>(r)];
      }
    } else {
      ++load_[static_cast<std::size_t>(p.out_resource)];
    }
  }
}

bool ThresholdState::plays_in(std::int32_t i) const {
  CID_ENSURE(i >= 0 && static_cast<std::size_t>(i) < in_.size(),
             "player out of range");
  return in_[static_cast<std::size_t>(i)];
}

std::int64_t ThresholdState::load(std::int32_t r) const {
  CID_ENSURE(r >= 0 && static_cast<std::size_t>(r) < load_.size(),
             "resource out of range");
  return load_[static_cast<std::size_t>(r)];
}

void ThresholdState::toggle(const ThresholdGame& game, std::int32_t i) {
  const ThresholdPlayer& p = game.player(i);
  if (plays_in(i)) {
    for (std::int32_t r : p.in_strategy) --load_[static_cast<std::size_t>(r)];
    ++load_[static_cast<std::size_t>(p.out_resource)];
  } else {
    --load_[static_cast<std::size_t>(p.out_resource)];
    for (std::int32_t r : p.in_strategy) ++load_[static_cast<std::size_t>(r)];
  }
  in_[static_cast<std::size_t>(i)] = !in_[static_cast<std::size_t>(i)];
}

// ---- Quadratic threshold construction ---------------------------------------

namespace {

/// ℓ_rij(x) = a_ij·(x−1) — see the header's reconstruction note.
LoadLatency pair_latency(double a) {
  return [a](std::int64_t x) {
    return a * static_cast<double>(std::max<std::int64_t>(0, x - 1));
  };
}

double node_weight_sum(const MaxCutInstance& inst, int i) {
  double wi = 0.0;
  for (int j = 0; j < inst.num_nodes(); ++j) {
    if (j != i) wi += inst.weight(i, j);
  }
  return wi;
}

}  // namespace

QuadraticThresholdGame make_quadratic_threshold(const MaxCutInstance& inst) {
  const int n = inst.num_nodes();
  CID_ENSURE(n >= 2, "quadratic threshold game needs >= 2 nodes");
  QuadraticThresholdGame out{
      ThresholdGame({[](std::int64_t) { return 0.0; }},
                    {ThresholdPlayer{{0}, 0}}),  // replaced below
      {}};

  std::vector<LoadLatency> latencies;
  out.pair_resource.assign(
      static_cast<std::size_t>(n),
      std::vector<std::int32_t>(static_cast<std::size_t>(n), -1));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const auto id = static_cast<std::int32_t>(latencies.size());
      out.pair_resource[static_cast<std::size_t>(i)]
                       [static_cast<std::size_t>(j)] = id;
      out.pair_resource[static_cast<std::size_t>(j)]
                       [static_cast<std::size_t>(i)] = id;
      latencies.push_back(pair_latency(inst.weight(i, j)));
    }
  }
  std::vector<ThresholdPlayer> players;
  for (int i = 0; i < n; ++i) {
    ThresholdPlayer p;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      p.in_strategy.push_back(out.pair_resource[static_cast<std::size_t>(i)]
                                               [static_cast<std::size_t>(j)]);
    }
    std::sort(p.in_strategy.begin(), p.in_strategy.end());
    p.out_resource = static_cast<std::int32_t>(latencies.size());
    const double half_wi = 0.5 * node_weight_sum(inst, i);
    latencies.push_back([half_wi](std::int64_t x) {
      return half_wi * static_cast<double>(x);
    });
    players.push_back(std::move(p));
  }
  out.game = ThresholdGame(std::move(latencies), std::move(players));
  return out;
}

ThresholdState state_from_cut(const ThresholdGame& game, std::uint32_t cut) {
  std::vector<bool> in(static_cast<std::size_t>(game.num_players()));
  for (std::int32_t i = 0; i < game.num_players(); ++i) {
    in[static_cast<std::size_t>(i)] = (cut >> i) & 1u;
  }
  return ThresholdState(game, std::move(in));
}

TripledGame triple_quadratic_threshold(const MaxCutInstance& inst) {
  const int n = inst.num_nodes();
  CID_ENSURE(n >= 2, "tripling needs >= 2 nodes");
  std::vector<LoadLatency> latencies;
  std::vector<std::vector<std::int32_t>> pair_resource(
      static_cast<std::size_t>(n),
      std::vector<std::int32_t>(static_cast<std::size_t>(n), -1));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const auto id = static_cast<std::int32_t>(latencies.size());
      pair_resource[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          id;
      pair_resource[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
          id;
      latencies.push_back(pair_latency(inst.weight(i, j)));
    }
  }
  std::vector<ThresholdPlayer> players(static_cast<std::size_t>(3 * n));
  for (int i = 0; i < n; ++i) {
    ThresholdPlayer base;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      base.in_strategy.push_back(
          pair_resource[static_cast<std::size_t>(i)]
                       [static_cast<std::size_t>(j)]);
    }
    std::sort(base.in_strategy.begin(), base.in_strategy.end());
    // One shared out-resource r_i for the three copies, with the paper's
    // offset latency ℓ'_ri(x) = ½W_i·x + (3/2)W_i.
    base.out_resource = static_cast<std::int32_t>(latencies.size());
    const double wi = node_weight_sum(inst, i);
    latencies.push_back([wi](std::int64_t x) {
      return 0.5 * wi * static_cast<double>(x) + 1.5 * wi;
    });
    for (int c = 0; c < 3; ++c) {
      players[static_cast<std::size_t>(3 * i + c)] = base;
    }
  }
  TripledGame tg{ThresholdGame(std::move(latencies), std::move(players)),
                 n};
  return tg;
}

ThresholdState tripled_initial_state(const TripledGame& tg,
                                     std::uint32_t cut) {
  std::vector<bool> in(static_cast<std::size_t>(tg.game.num_players()));
  for (std::int32_t i = 0; i < tg.base_players; ++i) {
    in[static_cast<std::size_t>(tg.copy(i, 0))] = false;  // i1 → S_out
    in[static_cast<std::size_t>(tg.copy(i, 1))] = true;   // i2 → S_in
    in[static_cast<std::size_t>(tg.copy(i, 2))] = (cut >> i) & 1u;  // i3
  }
  return ThresholdState(tg.game, std::move(in));
}

ThresholdRun run_threshold_best_response(const ThresholdGame& game,
                                         ThresholdState& s,
                                         std::int64_t max_steps) {
  ThresholdRun run;
  for (; run.steps < max_steps; ++run.steps) {
    run.latency_evals += 2 * game.num_players();
    const auto improving = game.improving_players(s);
    if (improving.empty()) {
      run.converged = true;
      break;
    }
    if (improving.size() > 1) run.unique_improver_throughout = false;
    s.toggle(game, improving.front());
  }
  return run;
}

ThresholdRun run_tripled_imitation(const TripledGame& tg, ThresholdState& s,
                                   std::int64_t max_steps) {
  const ThresholdGame& game = tg.game;
  ThresholdRun run;
  for (; run.steps < max_steps; ++run.steps) {
    // Imitation-feasible improvements: strictly better AND the target
    // strategy is in use by a sibling (same strategy space).
    run.latency_evals += 2 * game.num_players();
    std::vector<std::int32_t> improving;
    for (std::int32_t i = 0; i < game.num_players(); ++i) {
      if (!(game.latency_if_toggled(s, i) < game.latency_of(s, i) - kTie)) {
        continue;
      }
      const std::int32_t base = i / 3;
      const bool target_in_use = [&] {
        for (std::int32_t c = 0; c < 3; ++c) {
          const std::int32_t sibling = tg.copy(base, c);
          if (sibling == i) continue;
          if (s.plays_in(sibling) != s.plays_in(i)) return true;
        }
        return false;
      }();
      if (target_in_use) improving.push_back(i);
    }
    if (improving.empty()) {
      run.converged = true;
      break;
    }
    if (improving.size() > 1) run.unique_improver_throughout = false;
    s.toggle(game, improving.front());
  }
  return run;
}

}  // namespace cid
