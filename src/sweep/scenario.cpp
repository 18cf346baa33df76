#include "sweep/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dynamics/asymmetric_engine.hpp"
#include "dynamics/equilibrium.hpp"
#include "game/asymmetric.hpp"
#include "game/builders.hpp"
#include "game/io.hpp"
#include "game/singleton.hpp"
#include "game/state.hpp"
#include "graph/generators.hpp"
#include "lowerbound/threshold_game.hpp"
#include "obs/trace_span.hpp"
#include "persist/binio.hpp"
#include "persist/codec.hpp"
#include "persist/snapshot.hpp"

namespace cid::sweep {

double ScenarioSpec::param(const std::string& key, double fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

ProtocolSpec parse_protocol_spec(const std::string& token) {
  ProtocolSpec spec;
  std::string name = token;
  const auto colon = token.find(':');
  if (colon != std::string::npos) {
    name = token.substr(0, colon);
    if (name != "combined") {
      throw std::runtime_error("protocol '" + name +
                               "' takes no ':' argument");
    }
    spec.p_explore = std::stod(token.substr(colon + 1));
    if (spec.p_explore < 0.0 || spec.p_explore > 1.0) {
      throw std::runtime_error("combined:P requires P in [0, 1]");
    }
  }
  if (name != "imitation" && name != "exploration" && name != "combined") {
    throw std::runtime_error("unknown protocol '" + name +
                             "' (expected imitation|exploration|combined)");
  }
  spec.name = name;
  return spec;
}

namespace {

State trap_state(const CongestionGame& game) {
  if (game.num_strategies() < 2) {
    throw std::runtime_error("trap start requires >= 2 strategies");
  }
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(game.num_strategies()), 0);
  counts[0] = game.num_players() / 2;
  counts[1] = game.num_players() - counts[0];
  return State(game, std::move(counts));
}

StartKind start_kind(const ScenarioSpec& spec) {
  const int s = static_cast<int>(spec.param("start", 0.0));
  if (s < 0 || s > 3) throw std::runtime_error("start must be in 0..3");
  return static_cast<StartKind>(s);
}

/// The SimConfig a scenario trial persists into its checkpoints — enough
/// for cid_replay inspect to tell what produced the file (resume_trial
/// takes the live (protocol, dynamics) pair from the caller instead).
persist::SimConfig trial_config(const ProtocolSpec& protocol,
                                const DynamicsConfig& dynamics) {
  persist::SimConfig config;
  config.protocol = protocol.name;
  config.lambda = protocol.lambda;
  config.p_explore = protocol.p_explore;
  config.nu_cutoff = protocol.nu_cutoff;
  config.damping = protocol.damping;
  config.virtual_agents = protocol.virtual_agents;
  config.engine = static_cast<std::uint8_t>(dynamics.mode);
  switch (dynamics.stop) {
    case StopRule::kImitationStable:
      config.stop = "stable";
      break;
    case StopRule::kNash:
      config.stop = "nash";
      break;
    case StopRule::kDeltaEps:
      config.stop = "deltaeps:" + std::to_string(dynamics.delta) + "," +
                    std::to_string(dynamics.eps);
      break;
  }
  return config;
}

/// Stop predicates over the run's own latency cache: the verdicts of the
/// context-free predicates in dynamics/equilibrium.hpp, bit for bit
/// (tests/test_equilibrium_cached.cpp), without re-evaluating every ℓ.
CachedStopPredicate make_cached_stop(const DynamicsConfig& dynamics) {
  switch (dynamics.stop) {
    case StopRule::kImitationStable:
      return [](const LatencyContext& ctx, std::int64_t) {
        return is_imitation_stable(ctx, ctx.game().nu());
      };
    case StopRule::kNash:
      return [](const LatencyContext& ctx, std::int64_t) {
        return is_nash(ctx);
      };
    case StopRule::kDeltaEps: {
      const double delta = dynamics.delta, eps = dynamics.eps;
      return [delta, eps](const LatencyContext& ctx, std::int64_t) {
        return is_delta_eps_equilibrium(ctx, delta, eps);
      };
    }
  }
  throw std::runtime_error("unhandled stop rule");
}

// ---- Symmetric scenarios ----------------------------------------------------

class SymmetricInstance final : public ScenarioInstance {
 public:
  SymmetricInstance(std::string label, CongestionGame game, StartKind start)
      : label_(std::move(label)), game_(std::move(game)), start_(start) {}

  std::string describe() const override {
    return label_ + ": " + game_.describe();
  }

  TrialOutcome run_trial(const ProtocolSpec& protocol,
                         const DynamicsConfig& dynamics, Rng& rng,
                         TrialStats* stats) const override {
    State x = make_start(rng);
    return run_from(protocol, dynamics, rng, x, 0, 0, nullptr, stats);
  }

  TrialOutcome run_trial_checkpointed(const ProtocolSpec& protocol,
                                      const DynamicsConfig& dynamics, Rng& rng,
                                      const TrialCheckpoint& checkpoint,
                                      TrialStats* stats) const override {
    State x = make_start(rng);
    return run_from(protocol, dynamics, rng, x, 0, 0, &checkpoint, stats);
  }

  TrialOutcome resume_trial(const ProtocolSpec& protocol,
                            const DynamicsConfig& dynamics,
                            const std::string& snapshot_path,
                            TrialStats* stats) const override {
    persist::Snapshot snapshot = persist::load_snapshot(snapshot_path);
    if (serialize_game(snapshot.game) != serialize_game(game_)) {
      throw persist::persist_error(
          snapshot_path + ": snapshot game does not match scenario '" +
          label_ + "' — was it written by a different scenario or n?");
    }
    // Bind the state to OUR game (stable address for the whole run).
    State x(game_, std::move(snapshot.counts));
    Rng rng;
    rng.set_state(snapshot.rng_state);
    return run_from(protocol, dynamics, rng, x, snapshot.round,
                    snapshot.movers, nullptr, stats);
  }

 private:
  /// The shared trial body: runs [start_round, dynamics.max_rounds) on
  /// `x`, optionally checkpointing. Checkpoint writes draw no RNG, so
  /// checkpointed, resumed, and plain trials are bitwise interchangeable.
  TrialOutcome run_from(const ProtocolSpec& protocol,
                        const DynamicsConfig& dynamics, Rng& rng, State& x,
                        std::int64_t start_round, std::int64_t base_movers,
                        const TrialCheckpoint* checkpoint,
                        TrialStats* stats) const {
    const auto proto = make_protocol(protocol);
    if (proto == nullptr) {
      throw std::runtime_error("unknown protocol '" + protocol.name + "'");
    }
    RunOptions options;
    // Tuning knobs flow through wholesale (shared EngineTuning base); the
    // scenario-layer collect_metrics flag is realized as the metrics
    // pointer the engine actually consumes.
    static_cast<EngineTuning&>(options) = dynamics;
    options.max_rounds = dynamics.max_rounds;
    options.check_interval = dynamics.check_interval;
    options.mode = dynamics.mode;
    options.start_round = start_round;
    options.metrics = (stats != nullptr && dynamics.collect_metrics)
                          ? &stats->engine
                          : nullptr;

    // Convergence telemetry rides the engine's observer hook. Every record
    // is a pure function of (pre-round state, moves, round), so a
    // checkpointed or resumed leg records exactly the rows the
    // uninterrupted run would — sampling keys off absolute round numbers.
    std::optional<obs::TelemetryRecorder> telemetry;
    if (stats != nullptr && dynamics.telemetry_every > 0) {
      telemetry.emplace(dynamics.telemetry_every);
    }

    RoundObserver observer = nullptr;
    std::int64_t movers = base_movers;
    if (checkpoint != nullptr) {
      const persist::SimConfig config = trial_config(protocol, dynamics);
      observer = [this, checkpoint, config, &rng, &movers](
                     const CongestionGame& game, const State& pre,
                     std::span<const Migration> moves, std::int64_t round,
                     bool final) {
        if (final) {
          persist::Snapshot snap =
              persist::make_snapshot(game_, pre, rng, round, config);
          snap.movers = movers;
          persist::save_snapshot(snap, checkpoint->path);
          return;
        }
        for (const Migration& m : moves) movers += m.count;
        if (checkpoint->every <= 0 || (round + 1) % checkpoint->every != 0) {
          return;
        }
        // The observer fires with the PRE-round state after the round's
        // draws: post-round state at counter round+1 is the consistent
        // tuple (same pairing as persist::Checkpointer).
        State after = pre;
        after.apply(game, moves);
        persist::Snapshot snap =
            persist::make_snapshot(game_, after, rng, round + 1, config);
        snap.movers = movers;
        persist::save_snapshot(snap, checkpoint->path);
      };
    }
    if (telemetry.has_value()) {
      RoundObserver record = telemetry->observer();
      if (observer) {
        observer = [record = std::move(record), rest = std::move(observer)](
                       const CongestionGame& game, const State& pre,
                       std::span<const Migration> moves, std::int64_t round,
                       bool final) {
          record(game, pre, moves, round, final);
          rest(game, pre, moves, round, final);
        };
      } else {
        observer = std::move(record);
      }
    }

    const RunResult rr = run_dynamics(
        game_, x, *proto, rng,
        {.options = options, .cached_stop = make_cached_stop(dynamics),
         .observer = std::move(observer)});
    if (telemetry.has_value()) {
      telemetry->finish(rr.converged);
      stats->telemetry = telemetry->take_records();
    }
    if (stats != nullptr) {
      stats->latency_evals += rr.latency_evals;
      stats->ran_rounds += rr.rounds - start_round;
    }
    TrialOutcome out;
    out.rounds = static_cast<double>(rr.rounds);
    out.converged = rr.converged;
    out.movers = base_movers + rr.total_movers;
    out.potential = game_.potential(x);
    out.social_cost = social_cost(game_, x);
    return out;
  }

  State make_start(Rng& rng) const {
    switch (start_) {
      case StartKind::kUniformRandom:
        return State::uniform_random(game_, rng);
      case StartKind::kGeometricSkew:
        return State::geometric_skew(game_);
      case StartKind::kEven:
        return State::spread_evenly(game_);
      case StartKind::kTrap:
        return trap_state(game_);
    }
    throw std::runtime_error("unhandled start kind");
  }

  std::string label_;
  CongestionGame game_;
  StartKind start_;
};

std::unique_ptr<ScenarioInstance> make_singleton_uniform(
    const ScenarioSpec& spec, std::int64_t n) {
  const auto m = static_cast<std::int32_t>(spec.param("m", 10.0));
  const double degree = spec.param("degree", 1.0);
  const double spread = spec.param("spread", 0.0);
  if (m < 1) throw std::runtime_error("singleton-uniform requires m >= 1");
  return std::make_unique<SymmetricInstance>(
      "singleton-uniform", make_monomial_fan_game(m, degree, spread, n),
      start_kind(spec));
}

std::unique_ptr<ScenarioInstance> make_load_balancing(const ScenarioSpec& spec,
                                                      std::int64_t n) {
  const auto m = static_cast<std::int32_t>(spec.param("m", 10.0));
  const double spread = spec.param("spread", 1.0);
  if (m < 1) throw std::runtime_error("load-balancing requires m >= 1");
  std::vector<LatencyPtr> fns;
  for (std::int32_t e = 0; e < m; ++e) {
    const double fallback =
        1.0 + spread * static_cast<double>(e) / static_cast<double>(m);
    std::string key = "a";
    key += std::to_string(e);
    fns.push_back(make_linear(spec.param(key, fallback)));
  }
  return std::make_unique<SymmetricInstance>(
      "load-balancing", make_singleton_game(std::move(fns), n),
      start_kind(spec));
}

std::unique_ptr<ScenarioInstance> make_network_routing(
    const ScenarioSpec& spec, std::int64_t n) {
  const auto width = static_cast<std::int32_t>(spec.param("width", 3.0));
  const auto depth = static_cast<std::int32_t>(spec.param("depth", 2.0));
  if (width < 1 || depth < 1) {
    throw std::runtime_error("network-routing requires width, depth >= 1");
  }
  const auto net = make_layered_network(width, depth);
  // Instance-level randomness (the latency mix) is drawn from its own seed
  // so the *game* is a pure function of (spec, n); trial randomness stays
  // in the trial streams.
  Rng latency_rng(
      static_cast<std::uint64_t>(spec.param("latency_seed", 7.0)));
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    const double a = 0.5 + latency_rng.uniform();
    if (latency_rng.bernoulli(0.5)) {
      fns.push_back(make_linear(a));
    } else {
      fns.push_back(make_monomial(0.05 * a, 2.0));
    }
  }
  return std::make_unique<SymmetricInstance>(
      "network-routing", make_network_game(net, std::move(fns), n),
      start_kind(spec));
}

// ---- Asymmetric scenarios (class-local imitation, paper §3 remark) ----------

class AsymmetricInstance final : public ScenarioInstance {
 public:
  AsymmetricInstance(std::string label, AsymmetricGame game)
      : label_(std::move(label)), game_(std::move(game)) {}

  std::string describe() const override {
    return label_ + ": " + game_.describe();
  }

  TrialOutcome run_trial(const ProtocolSpec& protocol,
                         const DynamicsConfig& dynamics, Rng& rng,
                         TrialStats* stats) const override {
    AsymmetricState x = AsymmetricState::uniform_random(game_, rng);
    return run_loop(protocol, dynamics, rng, x, 0, 0, nullptr, stats);
  }

  TrialOutcome run_trial_checkpointed(const ProtocolSpec& protocol,
                                      const DynamicsConfig& dynamics, Rng& rng,
                                      const TrialCheckpoint& checkpoint,
                                      TrialStats* stats) const override {
    AsymmetricState x = AsymmetricState::uniform_random(game_, rng);
    return run_loop(protocol, dynamics, rng, x, 0, 0, &checkpoint, stats);
  }

  TrialOutcome resume_trial(const ProtocolSpec& protocol,
                            const DynamicsConfig& dynamics,
                            const std::string& snapshot_path,
                            TrialStats* stats) const override {
    persist::AsymmetricSnapshot snapshot =
        persist::load_asymmetric_snapshot(snapshot_path);
    persist::BinWriter ours, theirs;
    persist::encode_asymmetric_game(ours, game_);
    persist::encode_asymmetric_game(theirs, snapshot.game);
    if (ours.buffer() != theirs.buffer()) {
      throw persist::persist_error(
          snapshot_path + ": snapshot game does not match scenario '" +
          label_ + "' — was it written by a different scenario or n?");
    }
    AsymmetricState x(game_, std::move(snapshot.counts));
    Rng rng;
    rng.set_state(snapshot.rng_state);
    return run_loop(protocol, dynamics, rng, x, snapshot.round,
                    snapshot.movers, nullptr, stats);
  }

 private:
  /// The shared trial body over [start_round, dynamics.max_rounds).
  /// Stop checks use absolute round numbers, so a resumed loop replays
  /// the uninterrupted check cadence exactly. Rounds and stop checks run
  /// on the batched class-local kernel (dynamics/asymmetric_engine.hpp).
  TrialOutcome run_loop(const ProtocolSpec& protocol,
                        const DynamicsConfig& dynamics, Rng& rng,
                        AsymmetricState& x, std::int64_t start_round,
                        std::int64_t base_movers,
                        const TrialCheckpoint* checkpoint,
                        TrialStats* stats) const {
    if (protocol.name != "imitation") {
      throw std::runtime_error(
          "asymmetric scenarios support only the imitation protocol "
          "(class-local sampling, paper §3)");
    }
    if (dynamics.check_interval < 1) {
      throw std::runtime_error("check_interval must be >= 1");
    }
    AsymmetricImitationParams params;
    params.lambda = protocol.lambda;
    params.nu_cutoff = protocol.nu_cutoff;
    params.damping = protocol.damping;

    AsymmetricRoundWorkspace ws;
    AsymmetricRoundResult rr;
    // No Definition-1 evaluation exists for asymmetric games, so kDeltaEps
    // deliberately falls back to the stricter class-wise nu-stability
    // (documented on StopRule in scenario.hpp).
    auto stopped = [&](const AsymmetricState& s) {
      if (!ws.ready) {
        ws.ctx.reset(game_, s);
        ws.ready = true;
      }
      return dynamics.stop == StopRule::kNash
                 ? is_asymmetric_nash(ws.ctx)
                 : is_asymmetric_imitation_stable(ws.ctx, game_.nu());
    };
    const persist::SimConfig config =
        checkpoint != nullptr ? trial_config(protocol, dynamics)
                              : persist::SimConfig{};
    auto snapshot_now = [&](std::int64_t round, std::int64_t movers) {
      persist::AsymmetricSnapshot snap{round,  config,     rng.state(),
                                       game_,  x.counts(), movers};
      persist::save_asymmetric_snapshot(snap, checkpoint->path);
    };

    // Mirrors run_dynamics<K>'s metering (dynamics/engine_kernel.hpp):
    // null unless the caller asked, so the unmetered loop is
    // branch-for-branch identical to the pre-metrics code.
    obs::EngineMetrics* const m =
        (stats != nullptr && dynamics.collect_metrics) ? &stats->engine
                                                       : nullptr;
    // Telemetry mirrors the symmetric engine's observer protocol: one
    // pure record per sampled round against the PRE-round state + the
    // round's moves, one buffered final record (emitted iff converged).
    std::optional<obs::TelemetryRecorder> telemetry;
    if (stats != nullptr && dynamics.telemetry_every > 0) {
      telemetry.emplace(dynamics.telemetry_every);
    }
    const std::int64_t trace_every = obs::trace_engine_sample_interval();
    TrialOutcome out;
    std::int64_t movers = base_movers;
    std::int64_t round = start_round;
    for (; round < dynamics.max_rounds; ++round) {
      const bool tr = obs::trace_enabled() && round % trace_every == 0;
      if (checkpoint != nullptr && checkpoint->every > 0 &&
          round % checkpoint->every == 0) {
        snapshot_now(round, movers);
      }
      if (round % dynamics.check_interval == 0) {
        bool stop;
        {
          obs::PhaseTimer stop_timer(m != nullptr ? &m->stop_check_ns
                                                  : nullptr);
          obs::TraceSpan stop_span(tr ? "engine.stop_check" : nullptr);
          if (m != nullptr) ++m->stop_checks;
          stop = stopped(x);
        }
        if (stop) {
          out.converged = true;
          break;
        }
      }
      draw_asymmetric_round(game_, x, params, rng, ws, rr,
                            dynamics.row_threads, m, tr);
      if (telemetry.has_value()) {
        telemetry->observe(game_, x, rr.moves, round, false);
      }
      {
        obs::PhaseTimer apply_timer(m != nullptr ? &m->apply_ns : nullptr);
        obs::TraceSpan apply_span(tr ? "engine.apply" : nullptr);
        x.apply(game_, rr.moves, ws.apply_scratch);
      }
      {
        obs::PhaseTimer refresh_timer(m != nullptr ? &m->ctx_refresh_ns
                                                   : nullptr);
        obs::TraceSpan refresh_span(tr ? "engine.ctx_refresh" : nullptr);
        ws.ctx.refresh(ws.apply_scratch.touched);
      }
      movers += rr.movers;
      if (m != nullptr) ++m->rounds;
    }
    if (!out.converged) {
      obs::PhaseTimer stop_timer(m != nullptr ? &m->stop_check_ns : nullptr);
      obs::TraceSpan stop_span(obs::trace_enabled() ? "engine.stop_check"
                                                    : nullptr);
      if (m != nullptr) ++m->stop_checks;
      if (stopped(x)) out.converged = true;
    }
    if (telemetry.has_value()) {
      telemetry->observe(game_, x, {}, round, true);
      telemetry->finish(out.converged);
      stats->telemetry = telemetry->take_records();
    }
    if (checkpoint != nullptr) snapshot_now(round, movers);
    if (stats != nullptr) {
      if (ws.ready) stats->latency_evals += ws.ctx.latency_evals();
      stats->ran_rounds += round - start_round;
    }
    out.rounds = static_cast<double>(round);
    out.movers = movers;
    out.potential = game_.potential(x);
    double cost = 0.0;
    for (std::int32_t c = 0; c < game_.num_classes(); ++c) {
      cost += game_.class_average_latency(x, c) *
              static_cast<double>(game_.player_class(c).num_players);
    }
    out.social_cost = cost;
    return out;
  }

  std::string label_;
  AsymmetricGame game_;
};

std::unique_ptr<ScenarioInstance> make_asymmetric(const ScenarioSpec& spec,
                                                  std::int64_t n) {
  const auto num_classes =
      static_cast<std::int32_t>(spec.param("classes", 2.0));
  const auto per_class =
      static_cast<std::int32_t>(spec.param("links_per_class", 2.0));
  if (num_classes < 1 || per_class < 1) {
    throw std::runtime_error(
        "asymmetric requires classes >= 1, links_per_class >= 1");
  }
  // Resource 0 is a fast link shared by every class; each class also owns
  // `per_class` private links of increasing cost.
  std::vector<LatencyPtr> fns;
  fns.push_back(make_linear(0.5));
  std::vector<PlayerClass> classes(static_cast<std::size_t>(num_classes));
  Resource next = 1;
  for (std::int32_t c = 0; c < num_classes; ++c) {
    auto& cls = classes[static_cast<std::size_t>(c)];
    cls.strategies.push_back({0});
    for (std::int32_t k = 0; k < per_class; ++k) {
      fns.push_back(make_linear(1.0 + 0.5 * static_cast<double>(k)));
      cls.strategies.push_back({next});
      ++next;
    }
    cls.num_players = n / num_classes + (c < n % num_classes ? 1 : 0);
    if (cls.num_players < 1) {
      throw std::runtime_error("asymmetric requires n >= classes");
    }
  }
  return std::make_unique<AsymmetricInstance>(
      "asymmetric", AsymmetricGame(std::move(fns), std::move(classes)));
}

std::unique_ptr<ScenarioInstance> make_multicommodity(const ScenarioSpec& spec,
                                                      std::int64_t n) {
  const double share = spec.param("share", 0.6);
  if (share <= 0.0 || share >= 1.0) {
    throw std::runtime_error("multicommodity requires share in (0, 1)");
  }
  // Two traffic classes contending for a cheap shared middle link.
  std::vector<LatencyPtr> fns{make_linear(1.5), make_linear(3.0),
                              make_linear(0.75), make_linear(3.0),
                              make_linear(1.5)};
  std::vector<PlayerClass> classes(2);
  classes[0].strategies = {{0}, {1}, {2}};
  classes[0].num_players =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                    std::llround(share * static_cast<double>(n))));
  if (classes[0].num_players >= n) classes[0].num_players = n - 1;
  classes[1].strategies = {{2}, {3}, {4}};
  classes[1].num_players = n - classes[0].num_players;
  if (n < 2) throw std::runtime_error("multicommodity requires n >= 2");
  return std::make_unique<AsymmetricInstance>(
      "multicommodity", AsymmetricGame(std::move(fns), std::move(classes)));
}

// ---- Threshold lower-bound scenario (§3.2) ----------------------------------

class ThresholdInstance final : public ScenarioInstance {
 public:
  ThresholdInstance(MaxCutInstance inst, int nodes)
      : inst_(std::move(inst)), nodes_(nodes) {}

  std::string describe() const override {
    return "threshold-lb: tripled quadratic threshold game over " +
           std::to_string(nodes_) + "-node MaxCut";
  }

  TrialOutcome run_trial(const ProtocolSpec& protocol,
                         const DynamicsConfig& dynamics, Rng& rng,
                         TrialStats* stats) const override {
    const auto cut = static_cast<std::uint32_t>(
        rng.uniform_int(std::uint64_t{1} << nodes_));
    const bool tripled = protocol.name == "imitation";
    ThresholdState s = initial_state(tripled, cut);
    return run_steps(tripled, dynamics, rng, s, 0, nullptr, stats);
  }

  TrialOutcome run_trial_checkpointed(const ProtocolSpec& protocol,
                                      const DynamicsConfig& dynamics, Rng& rng,
                                      const TrialCheckpoint& checkpoint,
                                      TrialStats* stats) const override {
    const auto cut = static_cast<std::uint32_t>(
        rng.uniform_int(std::uint64_t{1} << nodes_));
    const bool tripled = protocol.name == "imitation";
    ThresholdState s = initial_state(tripled, cut);
    return run_steps(tripled, dynamics, rng, s, 0, &checkpoint, stats);
  }

  TrialOutcome resume_trial(const ProtocolSpec& protocol,
                            const DynamicsConfig& dynamics,
                            const std::string& snapshot_path,
                            TrialStats* stats) const override {
    persist::ThresholdSnapshot snapshot =
        persist::load_threshold_snapshot(snapshot_path);
    const bool tripled = protocol.name == "imitation";
    if (snapshot.tripled != tripled ||
        snapshot.instance.weights() != inst_.weights()) {
      throw persist::persist_error(
          snapshot_path +
          ": snapshot does not match this threshold-lb instance "
          "(different MaxCut weights or dynamics kind)");
    }
    const ThresholdGame game = tripled
                                   ? triple_quadratic_threshold(inst_).game
                                   : make_quadratic_threshold(inst_).game;
    ThresholdState s(game, std::move(snapshot.in_bits));
    Rng rng;
    rng.set_state(snapshot.rng_state);
    return run_steps(tripled, dynamics, rng, s, snapshot.round, nullptr,
                     stats);
  }

 private:
  ThresholdState initial_state(bool tripled, std::uint32_t cut) const {
    if (tripled) {
      return tripled_initial_state(triple_quadratic_threshold(inst_), cut);
    }
    return state_from_cut(make_quadratic_threshold(inst_).game, cut);
  }

  /// Shared sequential-dynamics body, chunked at the checkpoint cadence.
  /// Both dynamics are memoryless (each step is a pure function of the
  /// current state), so chunked execution equals one long run and a
  /// resumed trial continues bit-exactly from a snapshot's strategy bits.
  TrialOutcome run_steps(bool tripled, const DynamicsConfig& dynamics,
                         const Rng& rng, ThresholdState& s,
                         std::int64_t done_steps,
                         const TrialCheckpoint* checkpoint,
                         TrialStats* stats) const {
    // Rebuilt per invocation (cheap: O(nodes^2)); pure function of inst_.
    const TripledGame tg =
        tripled ? triple_quadratic_threshold(inst_)
                : TripledGame{make_quadratic_threshold(inst_).game, 0};
    const ThresholdGame& game = tg.game;
    const persist::SimConfig config;  // sequential dynamics: defaults only

    auto snapshot_now = [&](std::int64_t steps) {
      persist::ThresholdSnapshot snap{
          steps,   config,       rng.state(),
          inst_,   tripled,      s.in_bits(),
          steps};  // movers == steps for sequential dynamics
      persist::save_threshold_snapshot(snap, checkpoint->path);
    };

    std::int64_t steps = done_steps;
    bool converged = false;
    bool snapshotted = false;
    while (steps < dynamics.max_rounds) {
      std::int64_t budget = dynamics.max_rounds - steps;
      if (checkpoint != nullptr && checkpoint->every > 0) {
        budget = std::min(budget, checkpoint->every);
      }
      const ThresholdRun run =
          tripled ? run_tripled_imitation(tg, s, budget)
                  : run_threshold_best_response(game, s, budget);
      steps += run.steps;
      if (stats != nullptr) stats->latency_evals += run.latency_evals;
      if (checkpoint != nullptr) {
        snapshot_now(steps);
        snapshotted = true;
      }
      if (run.converged) {
        converged = true;
        break;
      }
      if (run.steps < budget) break;  // defensive: no progress, no verdict
    }
    // Covers the loop never running (budget already exhausted on entry);
    // every other exit wrote its snapshot inside the loop.
    if (checkpoint != nullptr && !snapshotted) snapshot_now(steps);
    if (stats != nullptr) stats->ran_rounds += steps - done_steps;

    TrialOutcome out;
    out.rounds = static_cast<double>(steps);
    out.movers = steps;
    out.converged = converged;
    out.potential = game.potential(s);
    out.social_cost = total_latency(game, s);
    return out;
  }
  static double total_latency(const ThresholdGame& game,
                              const ThresholdState& s) {
    double cost = 0.0;
    for (std::int32_t i = 0; i < game.num_players(); ++i) {
      cost += game.latency_of(s, i);
    }
    return cost;
  }

  MaxCutInstance inst_;
  int nodes_;
};

std::unique_ptr<ScenarioInstance> make_threshold_lb(const ScenarioSpec& spec,
                                                    std::int64_t n) {
  const int nodes = static_cast<int>(std::clamp<std::int64_t>(n, 4, 30));
  const double density = spec.param("density", 0.5);
  const int max_weight = static_cast<int>(spec.param("max_weight", 64.0));
  Rng instance_rng(
      static_cast<std::uint64_t>(spec.param("instance_seed", 1234.0)));
  return std::make_unique<ThresholdInstance>(
      MaxCutInstance::random(nodes, density, max_weight, instance_rng),
      nodes);
}

// ---- Registry ---------------------------------------------------------------

const std::vector<Scenario>& registry() {
  static const std::vector<Scenario> scenarios = {
      {"singleton-uniform",
       "m monomial links, identical or coefficient-fanned (params: m, "
       "degree, spread)",
       &make_singleton_uniform},
      {"load-balancing",
       "m heterogeneous linear links (params: m, spread, a<i>)",
       &make_load_balancing},
      {"network-routing",
       "layered network, mixed linear/quadratic edges (params: width, depth, "
       "latency_seed)",
       &make_network_routing},
      {"asymmetric",
       "c classes over private links plus one shared link (params: classes, "
       "links_per_class)",
       &make_asymmetric},
      {"multicommodity",
       "two commodities contending for a shared middle link (params: share)",
       &make_multicommodity},
      {"threshold-lb",
       "tripled quadratic threshold game from random MaxCut (params: "
       "density, max_weight, instance_seed)",
       &make_threshold_lb},
  };
  return scenarios;
}

}  // namespace

std::span<const Scenario> all_scenarios() { return registry(); }

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& s : registry()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::unique_ptr<ScenarioInstance> make_scenario(const ScenarioSpec& spec,
                                                std::int64_t n) {
  const Scenario* scenario = find_scenario(spec.name);
  if (scenario == nullptr) {
    std::string known;
    for (const Scenario& s : registry()) {
      known += known.empty() ? s.name : ", " + s.name;
    }
    throw std::runtime_error("unknown scenario '" + spec.name +
                             "' (known: " + known + ")");
  }
  if (n < 1) throw std::runtime_error("scenario requires n >= 1");
  return scenario->make(spec, n);
}

}  // namespace cid::sweep
