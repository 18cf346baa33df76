// Asymmetric (multi-commodity) congestion games.
//
// The paper's §3 closing remark: "all proofs in this section do not rely on
// the assumption that the underlying congestion game is symmetric. In fact,
// the lemma also holds for asymmetric congestion games in which each player
// samples only among players that have the same strategy space."
//
// This module realizes that remark: players are partitioned into classes
// (commodities); each class has its own strategy list over the shared
// resource set, and the IMITATION PROTOCOL samples uniformly among the
// *other players of the same class*. Rosenthal's potential is unchanged
// (Φ depends only on resource loads), so the super-martingale property and
// the convergence machinery carry over — which the tests and bench E14
// verify empirically.
//
// The engines run it as exactly that: AsymmetricGame builds one flat
// CongestionGame at construction (every class's strategies concatenated in
// class order, same latency functions, n = the total population; flat id =
// class_offset(c) + p), and the round engine runs ClassImitationKernel
// (protocols/kernel.hpp) on it, each origin's row cut to its class block.
// Class counts and flat counts convert only at the edges (trial start,
// snapshots, outcomes). The class-wise functions below stay as the
// per-pair reference oracle the engine is audited against.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "game/congestion_game.hpp"
#include "game/state.hpp"

namespace cid {

class ExpostTable;
class LatencyContext;
class Rng;

struct PlayerClass {
  std::vector<Strategy> strategies;
  std::int64_t num_players = 0;
};

class AsymmetricState;

class AsymmetricGame {
 public:
  /// Preconditions: at least one class; every class has >= 1 player and a
  /// non-empty, sorted, in-range strategy list.
  AsymmetricGame(std::vector<LatencyPtr> latencies,
                 std::vector<PlayerClass> classes);

  std::int32_t num_resources() const noexcept {
    return flat_.num_resources();
  }
  std::int32_t num_classes() const noexcept {
    return static_cast<std::int32_t>(classes_.size());
  }
  std::int64_t num_players() const noexcept { return flat_.num_players(); }
  const PlayerClass& player_class(std::int32_t c) const;
  const LatencyFunction& latency(Resource e) const {
    return flat_.latency(e);
  }

  /// The flat game the engines run on (see the file comment).
  const CongestionGame& flat() const noexcept { return flat_; }
  /// Flat id of class c's strategy 0; class_offset(num_classes()) is the
  /// flat strategy count. Class c owns [class_offset(c), class_offset(c+1)).
  StrategyId class_offset(std::int32_t c) const noexcept {
    return offsets_[static_cast<std::size_t>(c)];
  }
  /// The class owning flat strategy p.
  std::int32_t class_of(StrategyId p) const noexcept {
    return class_of_[static_cast<std::size_t>(p)];
  }
  State flat_state(const AsymmetricState& x) const;
  AsymmetricState class_state(const State& flat) const;

  /// Elasticity bound d over (0, n] (floored at 1) and slope bound ν, as in
  /// the symmetric game (§2.2); ν maximizes over all classes' strategies.
  /// Both are the flat game's.
  double elasticity() const noexcept { return flat_.elasticity(); }
  double nu() const noexcept { return flat_.nu(); }

  double strategy_latency(const AsymmetricState& x, std::int32_t c,
                          StrategyId p) const;
  /// ℓ_Q(x+1_Q−1_P) for a class-c player switching P→Q (both in class c).
  double expost_latency(const AsymmetricState& x, std::int32_t c,
                        StrategyId from, StrategyId to) const;

  /// Class-restricted averages (the sampling pool of a class-c player).
  double class_average_latency(const AsymmetricState& x,
                               std::int32_t c) const;

  /// Rosenthal potential — identical formula to the symmetric case.
  double potential(const AsymmetricState& x) const;

  std::string describe() const;

 private:
  std::vector<PlayerClass> classes_;
  CongestionGame flat_;
  std::vector<StrategyId> offsets_;       // num_classes() + 1 entries
  std::vector<std::int32_t> class_of_;    // flat strategy → class
};

/// One aggregated migration within a class.
struct ClassMigration {
  std::int32_t player_class = 0;
  StrategyId from = 0;
  StrategyId to = 0;
  std::int64_t count = 0;
};

class AsymmetricState {
 public:
  /// counts[c][p] = players of class c on strategy p.
  AsymmetricState(const AsymmetricGame& game,
                  std::vector<std::vector<std::int64_t>> counts);

  static AsymmetricState uniform_random(const AsymmetricGame& game, Rng& rng);
  static AsymmetricState spread_evenly(const AsymmetricGame& game);

  std::int64_t count(std::int32_t c, StrategyId p) const;
  std::int64_t congestion(Resource e) const;
  std::span<const std::int64_t> congestions() const noexcept {
    return congestion_;
  }

  /// Per-class per-strategy counts, counts()[c][p] == count(c, p) — the
  /// serialization view (src/persist/codec.hpp encodes states from it).
  const std::vector<std::vector<std::int64_t>>& counts() const noexcept {
    return counts_;
  }

  /// Strategies of class c with positive count.
  std::vector<StrategyId> support(std::int32_t c) const;

  void apply(const AsymmetricGame& game,
             std::span<const ClassMigration> moves);

  void check_consistent(const AsymmetricGame& game) const;

 private:
  std::vector<std::vector<std::int64_t>> counts_;
  std::vector<std::int64_t> congestion_;
};

// ---- Protocol + dynamics (class-local imitation) ----------------------------

struct AsymmetricImitationParams {
  double lambda = 0.25;
  bool nu_cutoff = true;
  bool damping = true;
};

/// Marginal probability that one class-c player on `from` migrates to `to`
/// this round: samples one of the other players *of its own class*
/// uniformly, then accepts with Protocol 1's μ.
double asymmetric_move_probability(const AsymmetricGame& game,
                                   const AsymmetricState& x,
                                   const AsymmetricImitationParams& params,
                                   std::int32_t c, StrategyId from,
                                   StrategyId to);

struct AsymmetricRoundResult {
  std::vector<ClassMigration> moves;
  std::int64_t movers = 0;
};

/// PER-PAIR REFERENCE ORACLE: draws one concurrent round (without applying
/// it) through asymmetric_move_probability, one uncached call per (class,
/// origin, destination) triple. The round engine running
/// ClassImitationKernel on game.flat() must reproduce it bitwise — same
/// migrations, same RNG stream (tests/test_engine_oracle.cpp).
AsymmetricRoundResult draw_asymmetric_round_reference(
    const AsymmetricGame& game, const AsymmetricState& x,
    const AsymmetricImitationParams& params, Rng& rng);

/// One concurrent round (aggregate engine, reference path), drawn against
/// the pre-round state and applied atomically.
AsymmetricRoundResult step_asymmetric_round(
    const AsymmetricGame& game, AsymmetricState& x,
    const AsymmetricImitationParams& params, Rng& rng);

/// No class-c player can improve by more than nu by copying a same-class
/// player's strategy.
bool is_asymmetric_imitation_stable(const AsymmetricGame& game,
                                    const AsymmetricState& x, double nu);

/// Exact Nash over each class's full strategy space.
bool is_asymmetric_nash(const AsymmetricGame& game, const AsymmetricState& x);

/// Cached overloads over a LatencyContext reset on game.flat(): the stop
/// checks of a running trial. Same verdicts, bit for bit, as the
/// context-free oracles above (tests/test_equilibrium_cached.cpp).
/// `scratch` is the caller's ex-post table, re-synced per call.
bool is_asymmetric_imitation_stable(const AsymmetricGame& game,
                                    const LatencyContext& ctx, double nu,
                                    ExpostTable& scratch);
bool is_asymmetric_nash(const AsymmetricGame& game, const LatencyContext& ctx,
                        ExpostTable& scratch);

}  // namespace cid
