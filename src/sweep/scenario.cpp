#include "sweep/scenario.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <concepts>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dynamics/engine_kernel.hpp"
#include "game/asymmetric.hpp"
#include "game/builders.hpp"
#include "game/io.hpp"
#include "game/singleton.hpp"
#include "game/state.hpp"
#include "graph/generators.hpp"
#include "lowerbound/threshold_game.hpp"
#include "persist/binio.hpp"
#include "persist/checkpoint.hpp"
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
  config.stop = format_stop(dynamics.stop_spec());
  return config;
}

persist::persist_error game_mismatch(const std::string& snapshot_path,
                                     const std::string& label) {
  return persist::persist_error(
      snapshot_path + ": snapshot game does not match scenario '" + label +
      "' — was it written by a different scenario or n?");
}

// ---- One trial driver ------------------------------------------------------

/// Where a trial (re)starts: completed rounds and cumulative movers.
struct TrialStart {
  std::int64_t round = 0;
  std::int64_t movers = 0;
};

/// A snapshot loaded back: the trial state, bound to the instance's game,
/// plus the RNG stream and the point the trial continues from.
template <typename S>
struct Resumed {
  S state;
  std::array<std::uint64_t, 4> rng_state;
  TrialStart from;
};

/// What TrialDriver needs of a scenario family: a start state, a snapshot
/// load that refuses a snapshot of a different game, and the run body over
/// [from.round, dynamics.max_rounds), checkpointing when `checkpoint` is
/// non-null.
template <typename F, typename S = typename F::TrialState>
concept TrialFamily = requires(const F& family, const ProtocolSpec& protocol,
                               const DynamicsConfig& dynamics, Rng& rng, S& x,
                               const std::string& path, TrialStats* stats) {
  { family.describe() } -> std::same_as<std::string>;
  { family.start(protocol, rng) } -> std::same_as<S>;
  { family.load(protocol, path) } -> std::same_as<Resumed<S>>;
  {
    family.run(protocol, dynamics, rng, x, TrialStart{}, nullptr, stats)
  } -> std::same_as<TrialOutcome>;
};

/// The three trial entry points, once for every family. Checkpoint writes
/// and snapshot loads draw no RNG, so plain, checkpointed, and resumed
/// trials are bitwise interchangeable.
template <TrialFamily F>
class TrialDriver final : public ScenarioInstance {
 public:
  explicit TrialDriver(F family) : family_(std::move(family)) {}

  std::string describe() const override { return family_.describe(); }

  TrialOutcome run_trial(const ProtocolSpec& protocol,
                         const DynamicsConfig& dynamics, Rng& rng,
                         TrialStats* stats) const override {
    auto x = family_.start(protocol, rng);
    return family_.run(protocol, dynamics, rng, x, {}, nullptr, stats);
  }

  TrialOutcome run_trial_checkpointed(const ProtocolSpec& protocol,
                                      const DynamicsConfig& dynamics, Rng& rng,
                                      const TrialCheckpoint& checkpoint,
                                      TrialStats* stats) const override {
    auto x = family_.start(protocol, rng);
    return family_.run(protocol, dynamics, rng, x, {}, &checkpoint, stats);
  }

  TrialOutcome resume_trial(const ProtocolSpec& protocol,
                            const DynamicsConfig& dynamics,
                            const std::string& snapshot_path,
                            TrialStats* stats) const override {
    auto resumed = family_.load(protocol, snapshot_path);
    Rng rng;
    rng.set_state(resumed.rng_state);
    return family_.run(protocol, dynamics, rng, resumed.state, resumed.from,
                       nullptr, stats);
  }

 private:
  F family_;
};

template <TrialFamily F>
std::unique_ptr<ScenarioInstance> drive(F family) {
  return std::make_unique<TrialDriver<F>>(std::move(family));
}

/// The run body the two round-engine families share. `engine(options,
/// observer)` runs rounds [from.round, max_rounds); this wraps it in the
/// telemetry recorder (class-wise records when `classes` is set) and the
/// checkpoint cadence (`save(state, round, movers)` writes the family's
/// snapshot) and books the result into `stats`. The caller fills in the
/// outcome's potential and social cost.
template <typename Engine>
TrialOutcome run_engine_trial(const DynamicsConfig& dynamics, TrialStart from,
                              const TrialCheckpoint* checkpoint,
                              TrialStats* stats, const AsymmetricGame* classes,
                              const Engine& engine,
                              persist::SnapshotWrite save) {
  RunOptions options;
  options.max_rounds = dynamics.max_rounds;
  options.check_interval = dynamics.check_interval;
  options.mode = dynamics.mode;
  options.start_round = from.round;
  options.row_threads = dynamics.row_threads;
  options.metrics = (stats != nullptr && dynamics.collect_metrics)
                        ? &stats->engine
                        : nullptr;
  // Every telemetry record is a pure function of (pre-round state, moves,
  // round), and sampling keys off absolute round numbers, so a checkpointed
  // or resumed leg records exactly the rows the uninterrupted run would.
  std::optional<obs::TelemetryRecorder> telemetry;
  RoundObserver observer;
  if (stats != nullptr && dynamics.telemetry_every > 0) {
    observer = telemetry.emplace(dynamics.telemetry_every, classes).observer();
  }
  if (checkpoint != nullptr) {
    observer = persist::chain_observers(
        std::move(observer),
        persist::checkpoint_cadence(checkpoint->every, from.movers,
                                    std::move(save)));
  }
  const RunResult rr = engine(options, observer);
  if (telemetry.has_value()) {
    telemetry->finish(rr.converged);
    stats->telemetry = telemetry->take_records();
  }
  if (stats != nullptr) {
    stats->latency_evals += rr.latency_evals;
    stats->ran_rounds += rr.rounds - from.round;
  }
  TrialOutcome out;
  out.rounds = static_cast<double>(rr.rounds);
  out.converged = rr.converged;
  out.movers = from.movers + rr.total_movers;
  return out;
}

// ---- Symmetric scenarios ----------------------------------------------------

class SymmetricFamily {
 public:
  using TrialState = State;

  SymmetricFamily(std::string label, CongestionGame game, StartKind start)
      : label_(std::move(label)), game_(std::move(game)), start_(start) {}

  std::string describe() const { return label_ + ": " + game_.describe(); }

  State start(const ProtocolSpec& /*protocol*/, Rng& rng) const {
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

  Resumed<State> load(const ProtocolSpec& /*protocol*/,
                      const std::string& path) const {
    persist::Snapshot snapshot = persist::load_snapshot(path);
    persist::require_current_semantics(snapshot.config, path);
    if (serialize_game(snapshot.game) != serialize_game(game_)) {
      throw game_mismatch(path, label_);
    }
    // Bind the state to OUR game (stable address for the whole run).
    return {State(game_, std::move(snapshot.counts)), snapshot.rng_state,
            {snapshot.round, snapshot.movers}};
  }

  TrialOutcome run(const ProtocolSpec& protocol,
                   const DynamicsConfig& dynamics, Rng& rng, State& x,
                   TrialStart from, const TrialCheckpoint* checkpoint,
                   TrialStats* stats) const {
    const auto proto = make_protocol(protocol);
    if (proto == nullptr) {
      throw std::runtime_error("unknown protocol '" + protocol.name + "'");
    }
    TrialOutcome out = run_engine_trial(
        dynamics, from, checkpoint, stats, /*classes=*/nullptr,
        [&](const RunOptions& options, const RoundObserver& observer) {
          return run_dynamics(
              game_, x, *proto, rng,
              {.options = options,
               .cached_stop = make_cached_stop(dynamics.stop_spec()),
               .observer = observer});
        },
        [&](const State& s, std::int64_t round, std::int64_t movers) {
          persist::save_snapshot(
              persist::make_snapshot(game_, s, rng, round,
                                     trial_config(protocol, dynamics), movers),
              checkpoint->path);
        });
    out.potential = game_.potential(x);
    out.social_cost = social_cost(game_, x);
    return out;
  }

 private:
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
  return drive(SymmetricFamily("singleton-uniform",
                               make_monomial_fan_game(m, degree, spread, n),
                               start_kind(spec)));
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
  return drive(SymmetricFamily("load-balancing",
                               make_singleton_game(std::move(fns), n),
                               start_kind(spec)));
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
  return drive(SymmetricFamily("network-routing",
                               make_network_game(net, std::move(fns), n),
                               start_kind(spec)));
}

// ---- Asymmetric scenarios (class-local imitation, paper §3 remark) ----------

/// Runs on the game's flat game (game/asymmetric.hpp): trials hold flat
/// States, converted to class counts only for snapshots and outcomes.
class AsymmetricFamily {
 public:
  using TrialState = State;

  AsymmetricFamily(std::string label, AsymmetricGame game)
      : label_(std::move(label)), game_(std::move(game)) {}

  std::string describe() const { return label_ + ": " + game_.describe(); }

  State start(const ProtocolSpec& /*protocol*/, Rng& rng) const {
    return game_.flat_state(AsymmetricState::uniform_random(game_, rng));
  }

  Resumed<State> load(const ProtocolSpec& /*protocol*/,
                      const std::string& path) const {
    persist::AsymmetricSnapshot snapshot =
        persist::load_asymmetric_snapshot(path);
    persist::require_current_semantics(snapshot.config, path);
    persist::BinWriter ours, theirs;
    persist::encode_asymmetric_game(ours, game_);
    persist::encode_asymmetric_game(theirs, snapshot.game);
    if (ours.buffer() != theirs.buffer()) throw game_mismatch(path, label_);
    return {game_.flat_state(
                AsymmetricState(game_, std::move(snapshot.counts))),
            snapshot.rng_state,
            {snapshot.round, snapshot.movers}};
  }

  /// ClassImitationKernel on the one round engine. Class-local imitation
  /// has no per-player engine and no virtual agents: the run always takes
  /// the aggregate engine and never reads protocol.virtual_agents, whatever
  /// the trial asked for (its snapshots still record what it asked for).
  TrialOutcome run(const ProtocolSpec& protocol,
                   const DynamicsConfig& dynamics, Rng& rng, State& x,
                   TrialStart from, const TrialCheckpoint* checkpoint,
                   TrialStats* stats) const {
    if (protocol.name != "imitation") {
      throw std::runtime_error(
          "asymmetric scenarios support only the imitation protocol "
          "(class-local sampling, paper §3)");
    }
    AsymmetricImitationParams params;
    params.lambda = protocol.lambda;
    params.nu_cutoff = protocol.nu_cutoff;
    params.damping = protocol.damping;
    const ClassImitationKernel kernel(game_, params);
    DynamicsConfig aggregate = dynamics;
    aggregate.mode = EngineMode::kAggregate;
    TrialOutcome out = run_engine_trial(
        aggregate, from, checkpoint, stats, &game_,
        [&](const RunOptions& options, const RoundObserver& observer) {
          return run_dynamics(
              game_.flat(), x, kernel, rng,
              {.options = options,
               .cached_stop = make_cached_stop(dynamics.stop_spec(), game_),
               .observer = observer});
        },
        [&](const State& s, std::int64_t round, std::int64_t movers) {
          persist::save_asymmetric_snapshot(
              {round, trial_config(protocol, dynamics), rng.state(), game_,
               game_.class_state(s).counts(), movers},
              checkpoint->path);
        });
    const AsymmetricState classes = game_.class_state(x);
    out.potential = game_.potential(classes);
    double cost = 0.0;
    for (std::int32_t c = 0; c < game_.num_classes(); ++c) {
      cost += game_.class_average_latency(classes, c) *
              static_cast<double>(game_.player_class(c).num_players);
    }
    out.social_cost = cost;
    return out;
  }

 private:
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
  return drive(AsymmetricFamily(
      "asymmetric", AsymmetricGame(std::move(fns), std::move(classes))));
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
  return drive(AsymmetricFamily(
      "multicommodity", AsymmetricGame(std::move(fns), std::move(classes))));
}

// ---- Threshold lower-bound scenario (§3.2) ----------------------------------

class ThresholdFamily {
 public:
  using TrialState = ThresholdState;

  ThresholdFamily(MaxCutInstance inst, int nodes)
      : inst_(std::move(inst)), nodes_(nodes) {}

  std::string describe() const {
    return "threshold-lb: tripled quadratic threshold game over " +
           std::to_string(nodes_) + "-node MaxCut";
  }

  ThresholdState start(const ProtocolSpec& protocol, Rng& rng) const {
    const auto cut = static_cast<std::uint32_t>(
        rng.uniform_int(std::uint64_t{1} << nodes_));
    const bool tripled = is_tripled(protocol);
    const TripledGame tg = game(tripled);
    return tripled ? tripled_initial_state(tg, cut)
                   : state_from_cut(tg.game, cut);
  }

  Resumed<ThresholdState> load(const ProtocolSpec& protocol,
                               const std::string& path) const {
    persist::ThresholdSnapshot snapshot =
        persist::load_threshold_snapshot(path);
    persist::require_current_semantics(snapshot.config, path);
    const bool tripled = is_tripled(protocol);
    if (snapshot.tripled != tripled ||
        snapshot.instance.weights() != inst_.weights()) {
      throw persist::persist_error(
          path +
          ": snapshot does not match this threshold-lb instance "
          "(different MaxCut weights or dynamics kind)");
    }
    return {ThresholdState(game(tripled).game, std::move(snapshot.in_bits)),
            snapshot.rng_state,
            {snapshot.round, snapshot.movers}};
  }

  /// Sequential dynamics, chunked at the checkpoint cadence. Both dynamics
  /// are memoryless (each step is a pure function of the current state),
  /// so chunked execution equals one long run and a resumed trial
  /// continues bit-exactly from a snapshot's strategy bits.
  TrialOutcome run(const ProtocolSpec& protocol,
                   const DynamicsConfig& dynamics, const Rng& rng,
                   ThresholdState& s, TrialStart from,
                   const TrialCheckpoint* checkpoint,
                   TrialStats* stats) const {
    const bool tripled = is_tripled(protocol);
    const TripledGame tg = game(tripled);
    const persist::SimConfig config;  // sequential dynamics: defaults only

    auto snapshot_now = [&](std::int64_t steps) {
      persist::ThresholdSnapshot snap{
          steps,   config,       rng.state(),
          inst_,   tripled,      s.in_bits(),
          steps};  // movers == steps for sequential dynamics
      persist::save_threshold_snapshot(snap, checkpoint->path);
    };

    std::int64_t steps = from.round;
    bool converged = false;
    bool snapshotted = false;
    while (steps < dynamics.max_rounds) {
      std::int64_t budget = dynamics.max_rounds - steps;
      if (checkpoint != nullptr && checkpoint->every > 0) {
        budget = std::min(budget, checkpoint->every);
      }
      const ThresholdRun run =
          tripled ? run_tripled_imitation(tg, s, budget)
                  : run_threshold_best_response(tg.game, s, budget);
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
    if (stats != nullptr) stats->ran_rounds += steps - from.round;

    TrialOutcome out;
    out.rounds = static_cast<double>(steps);
    out.movers = steps;
    out.converged = converged;
    out.potential = tg.game.potential(s);
    for (std::int32_t i = 0; i < tg.game.num_players(); ++i) {
      out.social_cost += tg.game.latency_of(s, i);
    }
    return out;
  }

 private:
  /// threshold-lb maps "imitation" to the tripled sequential imitation
  /// dynamics and any other protocol to plain best response.
  static bool is_tripled(const ProtocolSpec& protocol) {
    return protocol.name == "imitation";
  }

  /// The dynamics' game, rebuilt per call (cheap: O(nodes^2)); a pure
  /// function of inst_.
  TripledGame game(bool tripled) const {
    return tripled ? triple_quadratic_threshold(inst_)
                   : TripledGame{make_quadratic_threshold(inst_).game, 0};
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
  return drive(ThresholdFamily(
      MaxCutInstance::random(nodes, density, max_weight, instance_rng),
      nodes));
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
       &make_asymmetric,
       /*imitation_only=*/true},
      {"multicommodity",
       "two commodities contending for a shared middle link (params: share)",
       &make_multicommodity,
       /*imitation_only=*/true},
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
