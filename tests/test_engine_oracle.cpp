// Oracle equivalence for the batched round kernel.
//
// The engine's hot path (cached LatencyContext + each protocol kernel's
// batched row fill + workspace draws) must be BITWISE
// indistinguishable from the per-pair reference path (one virtual
// move_probability call per (from, to) pair, no caching):
//
//   1. round level — draw_round vs test::draw_round_reference produce
//      identical Migration lists AND consume the RNG stream identically,
//      sustained over many applied rounds (so the incremental cache
//      refresh is exercised, not just the initial full build), for all three
//      protocols x both engine modes x singleton and network games;
//   2. probability level — each kernel's fill_row rows match the
//      move_probability oracle bit-for-bit, including after incremental
//      refreshes;
//   3. trial level — every engine-backed registry scenario family's trial
//      equals a per-pair replay of the same seed: the trial runs with an
//      exit-only checkpoint, and tests/support/reference_run.hpp replays
//      the seed on the snapshot's game through the reference loop with
//      the context-free stop predicates. The symmetric families audit
//      the batched kernel + cached stop predicates, the asymmetric
//      families ClassImitationKernel on the same engine over their flat
//      game + cached class-wise predicates;
//      the exit snapshot's (round, counts, RNG state, movers) and the
//      trial outcome (Φ and social cost included) must match bit for bit;
//   4. persistence level — a batched-kernel trial that is checkpointed,
//      killed, and resumed bitwise-matches the uninterrupted REFERENCE
//      replay, so checkpoint artifacts carry no trace of the kernel
//      (symmetric AND asymmetric snapshot codecs);
//   5. plan level — run_dynamics, which replays quiet rounds from its
//      draw plan, matches a loop of full-path draw_round calls round by
//      round (moves and RNG state), misses included, in both engine
//      modes, metered and not.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dynamics/engine.hpp"
#include "dynamics/engine_kernel.hpp"
#include "dynamics/equilibrium.hpp"
#include "dynamics/stop_rule.hpp"
#include "game/asymmetric.hpp"
#include "game/builders.hpp"
#include "game/latency_context.hpp"
#include "game/singleton.hpp"
#include "persist/snapshot.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/factory.hpp"
#include "protocols/imitation.hpp"
#include "support/reference_run.hpp"
#include "sweep/scenario.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

CongestionGame network_game_k8(std::int64_t n) {
  // 2^3 = 8 overlapping paths: non-singleton, so the ex-post gather reads
  // genuinely shared resources.
  const auto net = make_layered_network(2, 3);
  Rng latency_rng(11);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    fns.push_back(make_monomial(0.5 + latency_rng.uniform(),
                                latency_rng.bernoulli(0.5) ? 1.0 : 2.0));
  }
  return make_network_game(net, std::move(fns), n);
}

std::vector<std::unique_ptr<Protocol>> all_protocols() {
  std::vector<std::unique_ptr<Protocol>> protocols;
  protocols.push_back(std::make_unique<ImitationProtocol>());
  ImitationParams virtual_params;
  virtual_params.virtual_agents = 2;  // innovative imitation reaches empties
  protocols.push_back(std::make_unique<ImitationProtocol>(virtual_params));
  protocols.push_back(std::make_unique<ExplorationProtocol>());
  protocols.push_back(std::make_unique<CombinedProtocol>(
      ImitationParams{}, ExplorationParams{}, 0.5));
  return protocols;
}

void expect_rounds_identical(const CongestionGame& game, EngineMode mode,
                             std::int64_t rounds, std::uint64_t seed) {
  for (const auto& protocol : all_protocols()) {
    SCOPED_TRACE(protocol->name());
    // Two independent copies of everything; only the kernel differs.
    Rng batched_rng(seed);
    Rng reference_rng(seed);
    State batched_x = State::uniform_random(game, batched_rng);
    State reference_x = State::uniform_random(game, reference_rng);
    RoundWorkspace ws;
    RoundResult batched;
    for (std::int64_t round = 0; round < rounds; ++round) {
      draw_round(game, batched_x, *protocol, batched_rng, mode, ws, batched);
      const RoundResult reference = test::draw_round_reference(
          game, reference_x, *protocol, reference_rng, mode);
      ASSERT_EQ(batched.moves, reference.moves) << "round " << round;
      ASSERT_EQ(batched.movers, reference.movers) << "round " << round;
      // Identical RNG stream consumption, not just identical output.
      ASSERT_EQ(batched_rng.state(), reference_rng.state())
          << "round " << round;
      // Apply through the incremental-cache path on the batched side and
      // the plain path on the reference side.
      batched_x.apply(game, batched.moves, ws.apply_scratch);
      ws.ctx.refresh(ws.apply_scratch.touched);
      reference_x.apply(game, reference.moves);
      ASSERT_TRUE(batched_x == reference_x) << "round " << round;
    }
  }
}

TEST(EngineOracle, AggregateRoundsBitwiseIdenticalSingleton) {
  expect_rounds_identical(make_monomial_fan_game(12, 1.0, 1.0, 5000),
                          EngineMode::kAggregate, 60, 21);
}

TEST(EngineOracle, AggregateRoundsBitwiseIdenticalNetwork) {
  expect_rounds_identical(network_game_k8(4000), EngineMode::kAggregate, 60,
                          22);
}

TEST(EngineOracle, PerPlayerRoundsBitwiseIdenticalSingleton) {
  expect_rounds_identical(make_monomial_fan_game(12, 1.0, 1.0, 600),
                          EngineMode::kPerPlayer, 30, 23);
}

TEST(EngineOracle, PerPlayerRoundsBitwiseIdenticalNetwork) {
  expect_rounds_identical(network_game_k8(400), EngineMode::kPerPlayer, 30,
                          24);
}

TEST(EngineOracle, BatchedRowsMatchMoveProbabilityOracle) {
  const auto game = network_game_k8(3000);
  const auto k = static_cast<std::size_t>(game.num_strategies());
  Rng rng(31);
  State x = State::uniform_random(game, rng);
  LatencyContext ctx;
  ctx.reset(game, x);
  ApplyScratch scratch;
  ExpostTable table;
  const ImitationProtocol imitation;
  for (int round = 0; round < 25; ++round) {
    table.sync(ctx);
    for (const auto& protocol : all_protocols()) {
      SCOPED_TRACE(protocol->name());
      std::vector<double> row(k);
      for (StrategyId from = 0; from < game.num_strategies(); ++from) {
        // On this non-singleton game every kernel's fill_row gathers
        // through the table, then runs its select pass.
        dispatch_protocol_kernel(*protocol, [&](const auto& kernel) {
          kernel.fill_row(game, OriginView(table, from), row);
        });
        for (StrategyId to = 0; to < game.num_strategies(); ++to) {
          const double oracle =
              to == from ? 0.0
                         : protocol->move_probability(game, x, from, to);
          // Bitwise: EXPECT_EQ on doubles, not EXPECT_NEAR.
          ASSERT_EQ(row[static_cast<std::size_t>(to)], oracle)
              << "round " << round << " pair " << from << "->" << to;
        }
      }
    }
    // Mutate the state through a real draw and refresh incrementally, so
    // later iterations audit refreshed cache entries rather than the
    // initial full build.
    const RoundResult rr =
        draw_round(game, x, imitation, rng, EngineMode::kAggregate);
    x.apply(game, rr.moves, scratch);
    ctx.refresh(scratch.touched);
  }
}

TEST(EngineOracle, RunDynamicsMatchesAcrossKernels) {
  // Whole-run equivalence incl. stop predicate and mover accounting: the
  // batched run loop against the per-pair reference loop.
  const auto game = make_monomial_fan_game(10, 2.0, 1.0, 20000);
  const ImitationProtocol protocol;
  for (EngineMode mode : {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    EngineInvocation call;
    call.options.max_rounds = mode == EngineMode::kAggregate ? 200 : 40;
    call.options.check_interval = 7;
    call.options.mode = mode;
    call.cached_stop = [scratch = ExpostTable()](
                           const LatencyContext& ctx) mutable {
      return is_imitation_stable(ctx, 0.0, scratch);
    };
    Rng batched_rng(7);
    State batched_x = State::uniform_random(game, batched_rng);
    const RunResult batched =
        run_dynamics(game, batched_x, protocol, batched_rng, call);
    Rng reference_rng(7);
    State reference_x = State::uniform_random(game, reference_rng);
    const RunResult reference =
        test::run_reference(game, reference_x, protocol, reference_rng, call);
    EXPECT_EQ(batched.rounds, reference.rounds);
    EXPECT_EQ(batched.converged, reference.converged);
    EXPECT_EQ(batched.total_movers, reference.total_movers);
    EXPECT_TRUE(batched_x == reference_x);
    EXPECT_EQ(batched_rng.state(), reference_rng.state());
    EXPECT_GT(batched.latency_evals, 0);   // the cache actually metered
    EXPECT_EQ(reference.latency_evals, 0);  // oracle path is unmetered
  }
}

// ---- Asymmetric batched kernel ----------------------------------------------

AsymmetricGame oracle_asymmetric_game() {
  // Two classes sharing a middle link (multicommodity-style) plus private
  // alternatives, so the class-local ex-post merges cross genuinely
  // shared congestion.
  std::vector<LatencyPtr> fns{make_linear(1.5), make_monomial(0.1, 2.0),
                              make_linear(0.75), make_linear(3.0),
                              make_monomial(0.2, 2.0), make_linear(1.0)};
  std::vector<PlayerClass> classes(2);
  classes[0].strategies = {{0}, {1}, {2}};
  classes[0].num_players = 700;
  classes[1].strategies = {{2}, {3}, {4}, {5}};
  classes[1].num_players = 500;
  return AsymmetricGame(std::move(fns), std::move(classes));
}

/// One engine round of ClassImitationKernel on game.flat() against one
/// class-wise reference round: same migrations (flat id = class offset +
/// class-local id, in the same order) and the same RNG stream position.
void expect_round_is_reference(const AsymmetricGame& game,
                               const RoundResult& batched,
                               const AsymmetricRoundResult& reference,
                               const Rng& batched_rng,
                               const Rng& reference_rng) {
  ASSERT_EQ(batched.moves.size(), reference.moves.size());
  for (std::size_t i = 0; i < batched.moves.size(); ++i) {
    const ClassMigration& ref = reference.moves[i];
    const StrategyId base = game.class_offset(ref.player_class);
    ASSERT_EQ(game.class_of(batched.moves[i].from), ref.player_class);
    ASSERT_EQ(batched.moves[i].from, base + ref.from);
    ASSERT_EQ(batched.moves[i].to, base + ref.to);
    ASSERT_EQ(batched.moves[i].count, ref.count);
  }
  ASSERT_EQ(batched.movers, reference.movers);
  // Identical RNG stream consumption, not just identical output — this is
  // what makes pruning and the zero entries of a class block invisible to
  // replays.
  ASSERT_EQ(batched_rng.state(), reference_rng.state());
}

TEST(EngineOracle, AsymmetricRoundsBitwiseIdentical) {
  const auto game = oracle_asymmetric_game();
  const CongestionGame& flat = game.flat();
  for (const bool nu_cutoff : {true, false}) {
    SCOPED_TRACE(nu_cutoff ? "nu-cutoff" : "no-nu");
    AsymmetricImitationParams params;
    params.nu_cutoff = nu_cutoff;
    const ClassImitationKernel kernel(game, params);
    Rng batched_rng(61);
    Rng reference_rng(61);
    State batched_x =
        game.flat_state(AsymmetricState::uniform_random(game, batched_rng));
    AsymmetricState reference_x =
        AsymmetricState::uniform_random(game, reference_rng);
    RoundWorkspace ws;
    RoundResult batched;
    for (int round = 0; round < 80; ++round) {
      SCOPED_TRACE(round);
      draw_round(flat, batched_x, kernel, batched_rng, EngineMode::kAggregate,
                 ws, batched);
      const AsymmetricRoundResult reference =
          draw_asymmetric_round_reference(game, reference_x, params,
                                          reference_rng);
      expect_round_is_reference(game, batched, reference, batched_rng,
                                reference_rng);
      if (HasFatalFailure()) return;
      batched_x.apply(flat, batched.moves, ws.apply_scratch);
      ws.ctx.refresh(ws.apply_scratch.touched);
      reference_x.apply(game, reference.moves);
      ASSERT_EQ(game.class_state(batched_x).counts(), reference_x.counts());
    }
  }
}

TEST(EngineOracle, ClassKernelMatchesFullWidthReferenceBothModes) {
  // The generic per-pair reference over ClassImitationKernel::
  // move_probability fills full-width rows (0 outside the class); the
  // engine fills class blocks only. Both engine modes must agree with it
  // bit for bit: zero categories draw nothing (aggregate) and zero-width
  // buckets are never hit (per-player).
  const auto game = oracle_asymmetric_game();
  const CongestionGame& flat = game.flat();
  const ClassImitationKernel kernel(game, AsymmetricImitationParams{});
  for (const EngineMode mode :
       {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    SCOPED_TRACE(mode == EngineMode::kAggregate ? "aggregate" : "per-player");
    Rng batched_rng(63);
    Rng reference_rng(63);
    State batched_x =
        game.flat_state(AsymmetricState::uniform_random(game, batched_rng));
    State reference_x =
        game.flat_state(AsymmetricState::uniform_random(game, reference_rng));
    for (int round = 0; round < 15; ++round) {
      RoundWorkspace fresh;
      RoundResult batched;
      draw_round(flat, batched_x, kernel, batched_rng, mode, fresh, batched);
      const RoundResult reference = test::draw_round_reference(
          flat, reference_x, kernel, reference_rng, mode);
      ASSERT_EQ(batched.moves, reference.moves) << "round " << round;
      ASSERT_EQ(batched_rng.state(), reference_rng.state())
          << "round " << round;
      batched_x.apply(flat, batched.moves);
      reference_x.apply(flat, reference.moves);
    }
  }
}

TEST(EngineOracle, OnePlayerClassPrunedWithoutPlusDominance) {
  // Class 0 has one player, so nobody to sample: its row is provably zero
  // by the n_c < 2 rule alone, which must fire even when the bounds deny
  // plus-dominance, and then no class-1 row may be pruned. Every round
  // must still be the reference round, and the engine must prune exactly
  // the origins the kernel proves zero under the round's real bounds.
  std::vector<LatencyPtr> fns{make_linear(1.0), make_linear(2.0),
                              make_affine(1.0, 40.0)};
  std::vector<PlayerClass> classes(2);
  classes[0].strategies = {{0}, {1}};
  classes[0].num_players = 1;
  classes[1].strategies = {{1}, {2}};
  classes[1].num_players = 60;
  const AsymmetricGame game(std::move(fns), std::move(classes));
  const CongestionGame& flat = game.flat();
  const AsymmetricImitationParams params;
  const ClassImitationKernel kernel(game, params);
  Rng batched_rng(7);
  Rng reference_rng(7);
  State batched_x =
      game.flat_state(AsymmetricState::uniform_random(game, batched_rng));
  AsymmetricState reference_x =
      AsymmetricState::uniform_random(game, reference_rng);
  RoundWorkspace ws;
  RoundResult batched;
  obs::EngineMetrics metrics;
  const int rounds = 30;
  std::int64_t origins = 0;
  std::int64_t pruned = 0;
  std::int64_t movers = 0;
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE(round);
    LatencyContext ctx;
    ctx.reset(flat, batched_x);
    ASSERT_TRUE(ctx.plus_dominates());
    for (const StrategyId p : batched_x.support()) {
      RowBounds bounds =
          compute_row_bounds(batched_x, ctx, kernel.row_block(flat, p));
      const bool one_player_class = game.class_of(p) == 0;
      if (kernel.row_provably_zero(flat, ctx, p, bounds)) ++pruned;
      ++origins;
      bounds.plus_dominates = false;
      EXPECT_EQ(kernel.row_provably_zero(flat, ctx, p, bounds),
                one_player_class);
    }
    draw_round(flat, batched_x, kernel, batched_rng, EngineMode::kAggregate,
               ws, batched, &metrics);
    const AsymmetricRoundResult reference = draw_asymmetric_round_reference(
        game, reference_x, params, reference_rng);
    expect_round_is_reference(game, batched, reference, batched_rng,
                              reference_rng);
    if (HasFatalFailure()) return;
    batched_x.apply(flat, batched.moves, ws.apply_scratch);
    ws.ctx.refresh(ws.apply_scratch.touched);
    reference_x.apply(game, reference.moves);
    movers += batched.movers;
  }
  EXPECT_GE(pruned, rounds);  // class 0's origin, every round
  EXPECT_EQ(metrics.rows_pruned, pruned);
  EXPECT_EQ(metrics.rows_filled, origins - pruned);
  EXPECT_GT(movers, 0);  // class 1 really migrated
}

// ---- Engine-backed registry scenario families -------------------------------

struct FamilyCase {
  const char* scenario;
  std::int64_t n;
  const char* protocol;
  std::int64_t rounds;
  bool asymmetric;
};

// threshold-lb runs sequential dynamics with no round kernel, so it has no
// reference replay here (tests/test_resume_families.cpp covers its trials).
const FamilyCase kFamilies[] = {
    {"singleton-uniform", 2000, "imitation", 60, false},
    {"load-balancing", 2000, "combined", 60, false},
    {"network-routing", 1500, "exploration", 60, false},
    {"asymmetric", 900, "imitation", 60, true},
    {"multicommodity", 900, "imitation", 60, true},
};

sweep::DynamicsConfig family_dynamics(std::int64_t rounds) {
  sweep::DynamicsConfig dynamics;
  dynamics.max_rounds = rounds;
  dynamics.stop = sweep::StopRule::kNash;
  dynamics.check_interval = 3;
  return dynamics;
}

/// A scenario trial replayed through the reference loop: its outcome plus
/// the final (counts, RNG state) an exit snapshot must hold.
template <typename Counts>
struct ReferenceTrial {
  sweep::TrialOutcome outcome;
  Counts counts;
  std::array<std::uint64_t, 4> rng_state{};
};

/// Replays a symmetric trial of `seed` on `game` with the scenario's
/// default (uniform-random) start.
ReferenceTrial<std::vector<std::int64_t>> replay_symmetric(
    const CongestionGame& game, std::uint64_t seed,
    const sweep::ProtocolSpec& protocol,
    const sweep::DynamicsConfig& dynamics) {
  const auto proto = make_protocol(protocol);
  EngineInvocation call;
  call.options.max_rounds = dynamics.max_rounds;
  call.options.check_interval = dynamics.check_interval;
  call.options.mode = dynamics.mode;
  call.stop = test::make_stop(dynamics);
  Rng rng(seed);
  State x = State::uniform_random(game, rng);
  const RunResult run = test::run_reference(game, x, *proto, rng, call);
  ReferenceTrial<std::vector<std::int64_t>> ref;
  ref.outcome.rounds = static_cast<double>(run.rounds);
  ref.outcome.converged = run.converged;
  ref.outcome.movers = run.total_movers;
  ref.outcome.potential = game.potential(x);
  ref.outcome.social_cost = social_cost(game, x);
  ref.counts.assign(x.counts().begin(), x.counts().end());
  ref.rng_state = rng.state();
  return ref;
}

ReferenceTrial<std::vector<std::vector<std::int64_t>>> replay_asymmetric(
    const AsymmetricGame& game, std::uint64_t seed,
    const sweep::ProtocolSpec& protocol,
    const sweep::DynamicsConfig& dynamics) {
  AsymmetricImitationParams params;
  params.lambda = protocol.lambda;
  params.nu_cutoff = protocol.nu_cutoff;
  params.damping = protocol.damping;
  Rng rng(seed);
  AsymmetricState x = AsymmetricState::uniform_random(game, rng);
  const test::AsymmetricReferenceRun run =
      test::run_asymmetric_reference(game, x, params, rng, dynamics);
  ReferenceTrial<std::vector<std::vector<std::int64_t>>> ref;
  ref.outcome.rounds = static_cast<double>(run.rounds);
  ref.outcome.converged = run.converged;
  ref.outcome.movers = run.total_movers;
  ref.outcome.potential = game.potential(x);
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    ref.outcome.social_cost +=
        game.class_average_latency(x, c) *
        static_cast<double>(game.player_class(c).num_players);
  }
  ref.counts = x.counts();
  ref.rng_state = rng.state();
  return ref;
}

/// A finished trial against its reference replay: every outcome field (Φ
/// and social cost included), the caller's RNG stream, and the exit
/// snapshot's run tuple.
template <typename Part, typename Counts>
void expect_trial_is_reference(const sweep::TrialOutcome& outcome,
                               const Rng& rng, const persist::Snapshot& exit,
                               const ReferenceTrial<Counts>& ref) {
  EXPECT_EQ(outcome, ref.outcome);
  EXPECT_EQ(rng.state(), ref.rng_state);
  EXPECT_EQ(exit.round, static_cast<std::int64_t>(ref.outcome.rounds));
  EXPECT_EQ(std::get<Part>(exit.part).counts, ref.counts);
  EXPECT_EQ(exit.rng_state, ref.rng_state);
  EXPECT_EQ(exit.movers, ref.outcome.movers);
}

TEST(EngineOracle, EngineFamiliesMatchReferenceReplay) {
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.scenario);
    sweep::ScenarioSpec spec;
    spec.name = c.scenario;
    const auto instance = sweep::make_scenario(spec, c.n);
    const auto protocol = sweep::parse_protocol_spec(c.protocol);
    const sweep::DynamicsConfig dynamics = family_dynamics(c.rounds);
    const std::uint64_t seed = 4321;
    const std::string snap = ::testing::TempDir() + "/oracle_family_" +
                             std::string(c.scenario) + ".snap";

    Rng rng(seed);
    const sweep::TrialOutcome outcome = instance->run_trial_checkpointed(
        protocol, dynamics, rng, sweep::TrialCheckpoint{snap, 0});
    const persist::Snapshot exit = persist::load_snapshot(snap);
    if (c.asymmetric) {
      expect_trial_is_reference<persist::AsymmetricPart>(
          outcome, rng, exit,
          replay_asymmetric(std::get<persist::AsymmetricPart>(exit.part).game,
                            seed, protocol, dynamics));
    } else {
      expect_trial_is_reference<persist::SymmetricPart>(
          outcome, rng, exit,
          replay_symmetric(std::get<persist::SymmetricPart>(exit.part).game,
                           seed, protocol, dynamics));
    }
    std::remove(snap.c_str());
  }
}

TEST(EngineOracle, AsymmetricCheckpointKillResumeMatchesReferenceRun) {
  // Asymmetric persistence-level interchange: a BATCHED-kernel trial of
  // each asymmetric family checkpointed at round 9, killed, and resumed
  // must bitwise-match the uninterrupted PER-PAIR reference replay —
  // asymmetric snapshots carry no trace of which kernel wrote them.
  for (const char* scenario : {"asymmetric", "multicommodity"}) {
    SCOPED_TRACE(scenario);
    sweep::ScenarioSpec spec;
    spec.name = scenario;
    const auto instance = sweep::make_scenario(spec, 900);
    const auto protocol = sweep::parse_protocol_spec("imitation");
    const std::uint64_t seed = 88;
    const std::int64_t total_rounds = 60;

    const std::string snap = ::testing::TempDir() + "/oracle_asym_" +
                             std::string(scenario) + ".snap";
    Rng killed_rng(seed);
    instance->run_trial_checkpointed(protocol, family_dynamics(9),
                                     killed_rng,
                                     sweep::TrialCheckpoint{snap, 0});
    const AsymmetricGame game =
        std::get<persist::AsymmetricPart>(persist::load_snapshot(snap).part)
            .game;
    const sweep::TrialOutcome resumed = instance->resume_trial(
        protocol, family_dynamics(total_rounds), snap);
    const auto reference =
        replay_asymmetric(game, seed, protocol, family_dynamics(total_rounds));
    EXPECT_EQ(resumed, reference.outcome);
    EXPECT_GT(reference.outcome.rounds, 9.0);  // the resumed leg did work
    std::remove(snap.c_str());
  }
}

TEST(EngineOracle, BatchedCheckpointKillResumeMatchesReferenceRun) {
  // Persistence-level interchange: a batched trial checkpointed at round 9,
  // killed, and resumed (all on the batched kernel) must bitwise-match the
  // uninterrupted REFERENCE replay — checkpoints carry no trace of which
  // kernel wrote them.
  sweep::ScenarioSpec spec;
  spec.name = "network-routing";
  const auto instance = sweep::make_scenario(spec, 1500);
  const auto protocol = sweep::parse_protocol_spec("combined");
  const std::uint64_t seed = 99;
  const std::int64_t total_rounds = 60;

  const std::string snap =
      ::testing::TempDir() + "/oracle_kill_resume.snap";
  Rng killed_rng(seed);
  instance->run_trial_checkpointed(protocol, family_dynamics(9), killed_rng,
                                   sweep::TrialCheckpoint{snap, 0});
  const CongestionGame game =
      std::get<persist::SymmetricPart>(persist::load_snapshot(snap).part).game;
  const sweep::TrialOutcome resumed = instance->resume_trial(
      protocol, family_dynamics(total_rounds), snap);
  const auto reference =
      replay_symmetric(game, seed, protocol, family_dynamics(total_rounds));
  EXPECT_EQ(resumed, reference.outcome);
  EXPECT_GT(reference.outcome.rounds, 9.0);  // the resumed leg did real work
  std::remove(snap.c_str());
}

// ---- Quiet-round draw plan ---------------------------------------------------

/// One run, round by round: the moves each draw produced and the RNG state
/// right after it.
struct RoundLog {
  std::vector<std::vector<Migration>> moves;
  std::vector<std::array<std::uint64_t, 4>> rng;
  obs::EngineMetrics metrics;
  /// Rounds that drew replayed rows and moved somebody: plan misses.
  std::int64_t replayed_mover_rounds = 0;
};

/// run_dynamics, which replays quiet rounds from its draw plan; the
/// observer sees each round right after its draw.
template <typename Engine>
RoundLog run_planned(const CongestionGame& game, State x, Rng rng,
                     const Engine& engine, RunOptions options,
                     bool metered) {
  RoundLog log;
  if (metered) options.metrics = &log.metrics;
  std::int64_t replayed = 0;
  const RoundObserver observer =
      [&](const CongestionGame&, const State&,
          std::span<const Migration> moves, std::int64_t, bool final) {
        if (final) return;
        log.moves.emplace_back(moves.begin(), moves.end());
        log.rng.push_back(rng.state());
        if (log.metrics.rows_replayed > replayed && !moves.empty()) {
          ++log.replayed_mover_rounds;
        }
        replayed = log.metrics.rows_replayed;
      };
  run_dynamics(game, x, engine, rng,
               {.options = options, .observer = observer});
  return log;
}

/// The same rounds through the public draw_round, which never plans: every
/// round refills its rows and redraws every conditional binomial.
template <typename Engine>
RoundLog run_full_path(const CongestionGame& game, State x, Rng rng,
                       const Engine& engine, const RunOptions& options,
                       bool metered) {
  RoundLog log;
  RoundWorkspace ws;
  RoundResult rr;
  for (std::int64_t round = 0; round < options.max_rounds; ++round) {
    draw_round(game, x, engine, rng, options.mode, ws, rr,
               metered ? &log.metrics : nullptr);
    log.moves.push_back(rr.moves);
    log.rng.push_back(rng.state());
    x.apply(game, rr.moves, ws.apply_scratch);
    ws.ctx.refresh(ws.apply_scratch.touched);
  }
  return log;
}

/// Runs `engine` from (start, rng) with and without the plan in both engine
/// modes, metered and not, and requires identical
/// moves and RNG states round by round. Metered, replayed plus filled rows
/// must be the full path's filled rows. Adds the plan misses seen to
/// `misses`.
template <typename Engine>
void expect_plan_is_full_path(const CongestionGame& game, const State& start,
                              const Rng& rng, const Engine& engine,
                              std::int64_t rounds, std::int64_t& misses) {
  for (const EngineMode mode :
       {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    for (const bool metered : {false, true}) {
      SCOPED_TRACE(std::string(mode == EngineMode::kAggregate ? "aggregate"
                                                              : "per-player") +
                   (metered ? " metered" : ""));
      RunOptions options;
      options.max_rounds = rounds;
      options.mode = mode;
      const RoundLog planned =
          run_planned(game, start, rng, engine, options, metered);
      const RoundLog full =
          run_full_path(game, start, rng, engine, options, metered);
      EXPECT_EQ(planned.moves.size(), static_cast<std::size_t>(rounds));
      for (std::size_t r = 0; r < planned.moves.size(); ++r) {
        ASSERT_EQ(planned.moves[r], full.moves[r]) << "round " << r;
        ASSERT_EQ(planned.rng[r], full.rng[r]) << "round " << r;
      }
      if (!metered) continue;
      EXPECT_GT(planned.metrics.rows_replayed, 0);
      EXPECT_EQ(full.metrics.rows_replayed, 0);
      EXPECT_EQ(planned.metrics.rows_filled + planned.metrics.rows_replayed,
                full.metrics.rows_filled);
      EXPECT_EQ(planned.metrics.rows_pruned, full.metrics.rows_pruned);
      misses += planned.replayed_mover_rounds;
    }
  }
}

/// The e2ebench engine-bound game: network-routing width 4, depth 3 (64
/// paths) with the scenario's latency mix, at n players.
CongestionGame engine_bound_game(std::int64_t n) {
  const auto net = make_layered_network(4, 3);
  Rng latency_rng(7);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    const double a = 0.5 + latency_rng.uniform();
    if (latency_rng.bernoulli(0.5)) {
      fns.push_back(make_linear(a));
    } else {
      fns.push_back(make_monomial(0.05 * a, 2.0));
    }
  }
  return make_network_game(net, std::move(fns), n);
}

/// Default exploration, and a faster variant (β overridden from ~3708 to 1
/// lifts the damping) that mixes quiet stretches with misses.
std::vector<ExplorationParams> exploration_variants() {
  ExplorationParams fast;
  fast.beta_override = 1.0;
  return {ExplorationParams{}, fast};
}

TEST(EnginePlan, EngineBoundExplorationReplaysBitForBit) {
  // At n = 1e4 (x_P ~ 156) every planned uniform is an inversion's first.
  // Default exploration is quiet almost throughout.
  const auto game = engine_bound_game(10000);
  std::int64_t misses = 0;
  for (const ExplorationParams& params : exploration_variants()) {
    const ExplorationProtocol protocol(params);
    Rng rng(5);
    const State start = State::uniform_random(game, rng);
    expect_plan_is_full_path(game, start, rng, protocol, 400, misses);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(misses, 0);
}

TEST(EnginePlan, BernoulliRegimeReplaysBitForBit) {
  // At n = 2000 (x_P ~ 31 <= 32) a category's zero outcome is x_P
  // Bernoulli uniforms, so the flattened plan holds one bound per player
  // and category, and a miss resumes the Bernoulli sum mid-way.
  const auto game = engine_bound_game(2000);
  std::int64_t misses = 0;
  for (const ExplorationParams& params : exploration_variants()) {
    const ExplorationProtocol protocol(params);
    Rng rng(11);
    const State start = State::uniform_random(game, rng);
    expect_plan_is_full_path(game, start, rng, protocol, 60, misses);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(misses, 0);
}

TEST(EnginePlan, ReusedStopVerdictIsTheContextFreeRun) {
  // A false cached verdict stands while nobody moves. The run must equal
  // the one through make_stop, which evaluates every check afresh:
  // RunResult, state, RNG state and stop_checks. On the quiet game the
  // predicate itself runs fewer times than there are checks.
  struct Case {
    const char* name;
    CongestionGame game;
    std::shared_ptr<const Protocol> protocol;
    StopSpec spec;
    std::int64_t rounds;
    bool quiet;  // mostly quiet rounds; otherwise the run converges
  };
  const Case cases[] = {
      {"engine-bound", engine_bound_game(10000),
       std::make_shared<ExplorationProtocol>(), StopSpec{}, 400, true},
      {"singleton", make_monomial_fan_game(12, 1.0, 1.0, 5000),
       std::make_shared<ImitationProtocol>(),
       StopSpec{.rule = StopRule::kImitationStable}, 2000, false},
  };
  for (const Case& c : cases) {
    for (const std::int64_t interval : {1, 3}) {
      SCOPED_TRACE(std::string(c.name) +
                   " check_interval=" + std::to_string(interval));
      obs::EngineMetrics cached_metrics;
      obs::EngineMetrics fresh_metrics;
      EngineInvocation call;
      call.options.max_rounds = c.rounds;
      call.options.check_interval = interval;
      std::int64_t calls = 0;
      call.options.metrics = &cached_metrics;
      call.cached_stop = [inner = make_cached_stop(c.spec),
                          &calls](const LatencyContext& ctx) mutable {
        ++calls;
        return inner(ctx);
      };
      Rng cached_rng(3);
      State cached_x = State::uniform_random(c.game, cached_rng);
      const RunResult cached =
          run_dynamics(c.game, cached_x, *c.protocol, cached_rng, call);

      call.cached_stop = {};
      call.stop = make_stop(c.spec);
      call.options.metrics = &fresh_metrics;
      Rng fresh_rng(3);
      State fresh_x = State::uniform_random(c.game, fresh_rng);
      const RunResult fresh =
          run_dynamics(c.game, fresh_x, *c.protocol, fresh_rng, call);

      EXPECT_EQ(cached.rounds, fresh.rounds);
      EXPECT_EQ(cached.converged, fresh.converged);
      EXPECT_EQ(cached.total_movers, fresh.total_movers);
      EXPECT_TRUE(cached_x == fresh_x);
      EXPECT_EQ(cached_rng.state(), fresh_rng.state());
      EXPECT_EQ(cached_metrics.stop_checks, fresh_metrics.stop_checks);
      if (c.quiet) {
        EXPECT_LT(calls, cached_metrics.stop_checks / 2);
      } else {
        EXPECT_TRUE(fresh.converged);
        EXPECT_GT(fresh.rounds, interval);
      }
    }
  }
}

/// Runs `protocol` from seed's start twice through run_dynamics: without an
/// observer, where long quiet stretches go through the lane scan, and with
/// a no-op observer, which must see every round one by one. Requires the
/// same RunResult, final state, Rng::state() and exact EngineMetrics
/// counters. Returns the longest run of rounds that moved nobody.
std::int64_t expect_lanes_are_the_observed_run(const CongestionGame& game,
                                               const Protocol& protocol,
                                               std::uint64_t seed,
                                               EngineInvocation call,
                                               bool metered) {
  obs::EngineMetrics batched_metrics;
  obs::EngineMetrics observed_metrics;
  call.options.metrics = metered ? &batched_metrics : nullptr;
  Rng batched_rng(seed);
  State batched_x = State::uniform_random(game, batched_rng);
  const RunResult batched =
      run_dynamics(game, batched_x, protocol, batched_rng, call);

  std::int64_t next_round = call.options.start_round;
  std::int64_t stretch = 0;
  std::int64_t longest = 0;
  bool finished = false;
  call.observer = [&](const CongestionGame&, const State&,
                      std::span<const Migration> moves, std::int64_t round,
                      bool final) {
    EXPECT_FALSE(finished);
    if (final) {
      finished = true;
      EXPECT_EQ(round, next_round);
      return;
    }
    EXPECT_EQ(round, next_round);
    ++next_round;
    stretch = moves.empty() ? stretch + 1 : 0;
    longest = std::max(longest, stretch);
  };
  call.options.metrics = metered ? &observed_metrics : nullptr;
  Rng observed_rng(seed);
  State observed_x = State::uniform_random(game, observed_rng);
  const RunResult observed =
      run_dynamics(game, observed_x, protocol, observed_rng, call);

  EXPECT_TRUE(finished);
  EXPECT_EQ(batched.rounds, observed.rounds);
  EXPECT_EQ(batched.converged, observed.converged);
  EXPECT_EQ(batched.total_movers, observed.total_movers);
  EXPECT_EQ(batched.latency_evals, observed.latency_evals);
  EXPECT_TRUE(batched_x == observed_x);
  EXPECT_EQ(batched_rng.state(), observed_rng.state());
  EXPECT_EQ(batched_metrics.rounds, observed_metrics.rounds);
  EXPECT_EQ(batched_metrics.stop_checks, observed_metrics.stop_checks);
  EXPECT_EQ(batched_metrics.rows_filled, observed_metrics.rows_filled);
  EXPECT_EQ(batched_metrics.rows_pruned, observed_metrics.rows_pruned);
  EXPECT_EQ(batched_metrics.rows_replayed, observed_metrics.rows_replayed);
  if (metered) {
    EXPECT_EQ(observed_metrics.rounds,
              observed.rounds - call.options.start_round);
  }
  return longest;
}

TEST(EngineLanes, EngineBoundExplorationToTheCapIsTheObservedRun) {
  // engine-bound's game and cap: default β is quiet for thousands of
  // rounds at a time (lane blocks that end at the cap), β = 1 mixes
  // stretches with misses. Without a stop, and with the cached default
  // stop at check intervals 1 and 7 (reused verdicts booked in bulk).
  const auto game = engine_bound_game(10000);
  const auto variants = exploration_variants();
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const ExplorationProtocol protocol(variants[v]);
    for (const std::int64_t interval : {0, 1, 7}) {
      for (const bool metered : {false, true}) {
        SCOPED_TRACE("variant " + std::to_string(v) + " check_interval " +
                     std::to_string(interval) + (metered ? " metered" : ""));
        EngineInvocation call;
        call.options.max_rounds = v == 0 ? 8000 : 3000;
        if (interval > 0) {
          call.options.check_interval = interval;
          call.cached_stop = make_cached_stop(StopSpec{});
        }
        const std::int64_t longest = expect_lanes_are_the_observed_run(
            game, protocol, 1 + static_cast<std::uint64_t>(interval), call,
            metered);
        if (v == 0) {
          EXPECT_GT(longest, 1000);
        }
        if (HasFailure()) return;
      }
    }
  }
}

TEST(EngineLanes, BernoulliRegimeIsTheObservedRun) {
  // n = 2000: x_P Bernoulli uniforms per planned category, so a lane miss
  // resumes a Bernoulli sum mid-way; seeds with misses inside lane blocks.
  const auto game = engine_bound_game(2000);
  for (const ExplorationParams& params : exploration_variants()) {
    const ExplorationProtocol protocol(params);
    for (const std::uint64_t seed : {2, 7}) {
      for (const bool metered : {false, true}) {
        SCOPED_TRACE("seed " + std::to_string(seed) +
                     (metered ? " metered" : ""));
        EngineInvocation call;
        call.options.max_rounds = 2000;
        call.options.start_round = 5;
        const std::int64_t longest = expect_lanes_are_the_observed_run(
            game, protocol, seed, call, metered);
        EXPECT_GT(longest, 20);
        if (HasFailure()) return;
      }
    }
  }
}

TEST(EnginePlan, SingletonGameReplaysBitForBit) {
  const auto game = make_monomial_fan_game(12, 1.0, 1.0, 5000);
  std::int64_t misses = 0;
  for (const auto& protocol : all_protocols()) {
    SCOPED_TRACE(protocol->name());
    Rng rng(23);
    const State start = State::uniform_random(game, rng);
    expect_plan_is_full_path(game, start, rng, *protocol, 300, misses);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(misses, 0);
}

TEST(EnginePlan, AsymmetricFlatGameReplaysBitForBit) {
  const auto game = oracle_asymmetric_game();
  const ClassImitationKernel kernel(game, AsymmetricImitationParams{});
  Rng rng(64);
  const State start =
      game.flat_state(AsymmetricState::uniform_random(game, rng));
  std::int64_t misses = 0;
  expect_plan_is_full_path(game.flat(), start, rng, kernel, 300, misses);
  EXPECT_GT(misses, 0);
}

}  // namespace
}  // namespace cid
