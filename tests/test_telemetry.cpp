// Tests for the convergence-telemetry channel (src/obs/telemetry.hpp) and
// its purity contract: recording consumes no RNG and changes no output
// (trial outcomes, final states, RNG stream positions identical on and
// off, through both engines), a killed leg's series plus the resumed
// leg's concatenates bitwise to the uninterrupted series, and a zero-RNG
// replay from a snapshot + event log regenerates the live capture byte
// for byte.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dynamics/engine.hpp"
#include "dynamics/equilibrium.hpp"
#include "dynamics/stop_rule.hpp"
#include "game/builders.hpp"
#include "game/singleton.hpp"
#include "game/state.hpp"
#include "obs/telemetry.hpp"
#include "persist/binio.hpp"
#include "persist/checkpoint.hpp"
#include "persist/eventlog.hpp"
#include "persist/snapshot.hpp"
#include "protocols/imitation.hpp"
#include "support/reference_run.hpp"
#include "sweep/scenario.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---- Record semantics -------------------------------------------------------

TEST(TelemetryRecord, FieldsAreExactFunctionsOfTheObservedState) {
  auto game = make_uniform_links_game(5, make_linear(1.0), 120);
  Rng rng(3);
  const State x = State::uniform_random(game, rng);
  const std::vector<Migration> moves = {{0, 1, 4}, {2, 3, 1}};
  ExpostTable scratch;
  const obs::TelemetryRecord rec =
      obs::make_telemetry_record(game, x, moves, 17, false, scratch);
  EXPECT_EQ(rec.round, 17);
  EXPECT_FALSE(rec.final_record);
  EXPECT_EQ(rec.phi, game.potential(x));
  EXPECT_EQ(rec.l_av, game.average_latency(x));
  EXPECT_EQ(rec.l_plus_av, game.plus_average_latency(x));
  EXPECT_EQ(rec.makespan, makespan(game, x));
  EXPECT_EQ(rec.movers, 5);
  EXPECT_EQ(rec.support, static_cast<std::int64_t>(x.support().size()));
  EXPECT_EQ(rec.im_gap, imitation_gap(game, x));
}

TEST(TelemetryRecorder, SamplesEveryNthRoundAndBuffersTheFinal) {
  auto game = make_uniform_links_game(4, make_linear(1.0), 60);
  Rng rng(9);
  const State x = State::uniform_random(game, rng);
  obs::TelemetryRecorder recorder(3);
  EXPECT_THROW(obs::TelemetryRecorder(0), std::invalid_argument);
  for (std::int64_t round = 0; round < 7; ++round) {
    recorder.observe(game, x, {}, round, false);
  }
  recorder.observe(game, x, {}, 7, true);
  // Rounds 0, 3, 6 sampled; the final observation is held back until the
  // caller resolves convergence.
  ASSERT_EQ(recorder.records().size(), 3u);
  EXPECT_EQ(recorder.records().back().round, 6);
  recorder.finish(true);
  ASSERT_EQ(recorder.records().size(), 4u);
  EXPECT_TRUE(recorder.records().back().final_record);
  EXPECT_EQ(recorder.records().back().round, 7);
  EXPECT_EQ(recorder.records().back().movers, 0);

  // A non-converged (killed) run drops the buffered final record — that
  // is what makes kill/resume series concatenate bitwise.
  obs::TelemetryRecorder killed(3);
  killed.observe(game, x, {}, 0, false);
  killed.observe(game, x, {}, 1, true);
  killed.finish(false);
  ASSERT_EQ(killed.records().size(), 1u);
  EXPECT_FALSE(killed.records().back().final_record);
}

// ---- Zero perturbation: the symmetric engines -------------------------------

struct EngineRun {
  RunResult result;
  State state;
  std::array<std::uint64_t, 4> rng_state;
  std::vector<obs::TelemetryRecord> telemetry;
};

EngineRun run_engine(EngineMode mode, bool telemetry) {
  auto game = make_uniform_links_game(6, make_linear(1.0), 400);
  Rng rng(1234);
  State x = State::uniform_random(game, rng);
  ImitationProtocol protocol;
  RunOptions options;
  options.max_rounds = 60;
  options.mode = mode;
  auto stop = [](const CongestionGame& g, const State& s, std::int64_t) {
    return is_imitation_stable(g, s, g.nu());
  };
  obs::TelemetryRecorder recorder(2);
  const RunResult result =
      run_dynamics(
          game, x, protocol, rng,
          {.options = options,
           .stop = stop,
           .observer = telemetry ? recorder.observer() : RoundObserver{}});
  recorder.finish(result.converged);
  return {result, std::move(x), rng.state(), recorder.take_records()};
}

TEST(TelemetryZeroPerturbation, EngineOutputsIdenticalOnAndOff) {
  for (const EngineMode mode :
       {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)));
    const EngineRun off = run_engine(mode, false);
    const EngineRun on = run_engine(mode, true);
    EXPECT_EQ(on.result.rounds, off.result.rounds);
    EXPECT_EQ(on.result.converged, off.result.converged);
    EXPECT_EQ(on.result.total_movers, off.result.total_movers);
    EXPECT_EQ(on.result.latency_evals, off.result.latency_evals);
    EXPECT_EQ(on.state, off.state);
    // The strongest form of "zero RNG": the generator is at the exact
    // same stream position after a recorded run.
    EXPECT_EQ(on.rng_state, off.rng_state);
    EXPECT_FALSE(on.telemetry.empty());
  }
}

// ---- Zero perturbation: scenario families -----------------------------------

TEST(TelemetryZeroPerturbation, ScenarioTrialsIdenticalOnAndOff) {
  struct Case {
    const char* scenario;
    std::int64_t n;
    bool expects_series;
  };
  // Symmetric, asymmetric (class-local loop), and the round-less
  // threshold family, which documents an always-empty series.
  for (const Case c : {Case{"singleton-uniform", 60, true},
                       Case{"multicommodity", 48, true},
                       Case{"threshold-lb", 9, false}}) {
    SCOPED_TRACE(c.scenario);
    sweep::ScenarioSpec spec;
    spec.name = c.scenario;
    const auto instance = sweep::make_scenario(spec, c.n);
    sweep::ProtocolSpec protocol;
    sweep::DynamicsConfig dynamics;
    dynamics.max_rounds = 300;

    Rng rng_off(5);
    const sweep::TrialOutcome off =
        instance->run_trial(protocol, dynamics, rng_off);

    dynamics.telemetry_every = 2;
    sweep::TrialStats stats;
    Rng rng_on(5);
    const sweep::TrialOutcome on =
        instance->run_trial(protocol, dynamics, rng_on, &stats);

    EXPECT_EQ(on, off);
    EXPECT_EQ(rng_on.state(), rng_off.state());
    if (c.expects_series) {
      ASSERT_FALSE(stats.telemetry.empty());
      EXPECT_EQ(stats.telemetry.front().round, 0);
      if (on.converged) {
        EXPECT_TRUE(stats.telemetry.back().final_record);
        EXPECT_EQ(stats.telemetry.back().round,
                  static_cast<std::int64_t>(on.rounds));
      }
    } else {
      EXPECT_TRUE(stats.telemetry.empty());
    }
  }
}

TEST(TelemetryZeroPerturbation, AsymmetricSeriesIdenticalAcrossKernels) {
  sweep::ScenarioSpec spec;
  spec.name = "multicommodity";
  const auto instance = sweep::make_scenario(spec, 48);
  sweep::ProtocolSpec protocol;
  sweep::DynamicsConfig dynamics;
  dynamics.max_rounds = 300;
  dynamics.telemetry_every = 2;

  // The batched cached-latency kernel is bitwise-equivalent to the
  // per-pair reference loop — the telemetry series must inherit that
  // exactly.
  sweep::TrialStats stats;
  Rng trial_rng(21);
  instance->run_trial(protocol, dynamics, trial_rng, &stats);
  const std::vector<obs::TelemetryRecord>& baseline = stats.telemetry;
  ASSERT_FALSE(baseline.empty());

  // The reference loop runs on the trial's own game, read back from an
  // exit snapshot, with a recorder as its observer.
  const std::string snap = temp_path("cid_telemetry_asym_reference.snap");
  Rng snap_rng(21);
  instance->run_trial_checkpointed(protocol, dynamics, snap_rng, {snap, 0});
  const AsymmetricGame game =
      std::get<persist::AsymmetricPart>(persist::load_snapshot(snap).part)
          .game;
  std::remove(snap.c_str());
  AsymmetricImitationParams params;
  params.lambda = protocol.lambda;
  params.nu_cutoff = protocol.nu_cutoff;
  params.damping = protocol.damping;
  // The recorder observes the flat game, as under the trial; the class-wise
  // reference run's states and moves are translated for it.
  obs::TelemetryRecorder recorder(dynamics.telemetry_every, &game);
  const auto observe = [&](const AsymmetricGame&, const AsymmetricState& s,
                           std::span<const ClassMigration> moves,
                           std::int64_t round, bool final) {
    std::vector<Migration> flat_moves;
    for (const ClassMigration& mv : moves) {
      const StrategyId base = game.class_offset(mv.player_class);
      flat_moves.push_back(Migration{base + mv.from, base + mv.to, mv.count});
    }
    recorder.observe(game.flat(), game.flat_state(s), flat_moves, round,
                     final);
  };
  Rng rng(21);
  AsymmetricState x = AsymmetricState::uniform_random(game, rng);
  const test::AsymmetricReferenceRun reference = test::run_asymmetric_reference(
      game, x, params, rng, dynamics, 0, observe);
  recorder.finish(reference.converged);
  EXPECT_EQ(recorder.take_records(), baseline);
}

// ---- Kill/resume concatenation ----------------------------------------------

TEST(TelemetryResume, KilledPlusResumedSeriesConcatenatesBitwise) {
  sweep::ScenarioSpec spec;
  spec.name = "singleton-uniform";
  const auto instance = sweep::make_scenario(spec, 80);
  sweep::ProtocolSpec protocol;
  sweep::DynamicsConfig full;
  full.max_rounds = 2000;
  // Tight (delta, eps): the trial needs ~20 rounds, so the round-10 kill
  // below lands mid-run and both legs record something.
  full.delta = 0.01;
  full.eps = 0.01;
  full.telemetry_every = 3;

  sweep::TrialStats uninterrupted;
  Rng rng_full(11);
  const sweep::TrialOutcome expect =
      instance->run_trial(protocol, full, rng_full, &uninterrupted);
  ASSERT_TRUE(expect.converged);
  ASSERT_GT(expect.rounds, 10.0);

  // "Kill" the trial by capping its round budget mid-run; the exit
  // snapshot is the restart point a real kill would leave behind.
  const std::string snap = temp_path("cid_telemetry_resume.snap");
  sweep::DynamicsConfig killed = full;
  killed.max_rounds = 10;
  sweep::TrialStats first_leg;
  Rng rng_killed(11);
  instance->run_trial_checkpointed(protocol, killed, rng_killed, {snap, 0},
                                   &first_leg);

  sweep::TrialStats second_leg;
  const sweep::TrialOutcome resumed =
      instance->resume_trial(protocol, full, snap, &second_leg);
  EXPECT_EQ(resumed, expect);

  // Absolute-round sampling + the suppressed final record on the killed
  // leg make the two legs concatenate to the uninterrupted series.
  std::vector<obs::TelemetryRecord> joined = first_leg.telemetry;
  joined.insert(joined.end(), second_leg.telemetry.begin(),
                second_leg.telemetry.end());
  EXPECT_EQ(joined, uninterrupted.telemetry);
  ASSERT_FALSE(first_leg.telemetry.empty());
  EXPECT_FALSE(first_leg.telemetry.back().final_record);
  ASSERT_FALSE(second_leg.telemetry.empty());
  EXPECT_GE(second_leg.telemetry.front().round, 10);

  // And the serialized artifacts concatenate bitwise too.
  const std::string f_full = temp_path("cid_telemetry_full.jsonl");
  const std::string f_a = temp_path("cid_telemetry_leg_a.jsonl");
  const std::string f_b = temp_path("cid_telemetry_leg_b.jsonl");
  obs::write_telemetry_file(f_full, uninterrupted.telemetry);
  obs::write_telemetry_file(f_a, first_leg.telemetry);
  obs::write_telemetry_file(f_b, second_leg.telemetry);
  EXPECT_EQ(persist::slurp_file(f_a) + persist::slurp_file(f_b),
            persist::slurp_file(f_full));
  for (const std::string& p : {snap, f_full, f_a, f_b}) {
    std::remove(p.c_str());
  }
}

// ---- Live-vs-replay equality ------------------------------------------------

/// Runs `game` from a random state with a round-0 snapshot and an event
/// log, replays the log against the snapshot, and requires the replayed
/// telemetry file to be the live one byte for byte.
void expect_replay_is_live_capture(const CongestionGame& game) {
  Rng rng(77);
  State x = State::uniform_random(game, rng);
  ImitationProtocol protocol;

  // Round-0 snapshot + full event log: exactly what cid_sim persists.
  persist::SimConfig config;
  config.protocol = "imitation";
  config.stop = "stable";
  const std::string snap = temp_path("cid_telemetry_replay.snap");
  const std::string elog = temp_path("cid_telemetry_replay.elog");
  persist::save_snapshot(persist::make_snapshot(game, x, rng, 0, config),
                         snap);

  obs::TelemetryRecorder live(3);
  RunOptions options;
  options.max_rounds = 200;
  RunResult result;
  {
    auto writer = persist::EventLogWriter::create(elog);
    result = run_dynamics(
        game, x, protocol, rng,
        {.options = options,
         .stop = make_stop(parse_stop(config.stop)),
         .observer = persist::chain_observers(writer.observer(),
                                              live.observer())});
    writer.close();
  }
  live.finish(result.converged);
  ASSERT_TRUE(result.converged);

  // Replay leg: walk the log against the snapshot state, observing each
  // pre-round state with that round's logged moves — zero RNG draws —
  // then mirror the final observer call and resolve convergence through
  // the recorded stop spec (cid_replay telemetry does exactly this).
  const persist::Snapshot snapshot = persist::load_snapshot(snap);
  const auto& part = std::get<persist::SymmetricPart>(snapshot.part);
  const persist::EventLog log = persist::read_event_log_series(elog);
  State replayed = part.state();
  obs::TelemetryRecorder offline(3);
  std::int64_t round = snapshot.round;
  for (const persist::RoundEvents& events : log.rounds) {
    offline.observe(part.game, replayed, events.moves, events.round, false);
    replayed.apply(part.game, events.moves);
    round = events.round + 1;
  }
  offline.observe(part.game, replayed, {}, round, true);
  offline.finish(make_stop(parse_stop(snapshot.config.stop))(
      part.game, replayed, round));

  EXPECT_EQ(replayed, x);
  EXPECT_EQ(offline.records(), live.records());

  const std::string f_live = temp_path("cid_telemetry_live.jsonl");
  const std::string f_replay = temp_path("cid_telemetry_replayed.jsonl");
  obs::write_telemetry_file(f_live, live.records());
  obs::write_telemetry_file(f_replay, offline.records());
  EXPECT_EQ(persist::slurp_file(f_replay), persist::slurp_file(f_live));
  for (const std::string& p : {snap, elog, f_live, f_replay}) {
    std::remove(p.c_str());
  }
}

TEST(TelemetryReplay, ReplayedSeriesIsByteIdenticalToLiveCapture) {
  expect_replay_is_live_capture(
      make_uniform_links_game(6, make_linear(1.0), 300));
  // The snapshot must carry each exponential's rate as built: a rate of
  // 0.1 at scale 3 rebuilt as ℓ'(0)/ℓ(0) is 0.10000000000000002, and the
  // replayed makespan and gap then differ in their last digits.
  SCOPED_TRACE("exponential links");
  expect_replay_is_live_capture(make_singleton_game(
      {make_scaled(make_exponential(3.0, 0.1), 300),
       make_scaled(make_exponential(2.0, 0.7), 300),
       make_scaled(make_monomial(4.0, 1.0), 300)},
      300));
}

// ---- Serialization and aggregates -------------------------------------------

TEST(TelemetrySerialization, JsonCsvAndSummary) {
  obs::TelemetryRecord a;
  a.round = 0;
  a.phi = 100.0;
  a.movers = 3;
  obs::TelemetryRecord b;
  b.round = 4;
  b.phi = 55.0;
  obs::TelemetryRecord c;
  c.round = 8;
  c.phi = 52.0;
  obs::TelemetryRecord fin;
  fin.round = 9;
  fin.phi = 52.0;
  fin.final_record = true;
  const std::vector<obs::TelemetryRecord> series = {a, b, c, fin};

  const std::string line = obs::telemetry_json_line(a);
  EXPECT_EQ(line.rfind("{\"telemetry_version\":1,\"kind\":\"round\"", 0), 0u)
      << line;
  EXPECT_NE(line.find("\"movers\":3"), std::string::npos);
  EXPECT_NE(obs::telemetry_json_line(fin).find("\"kind\":\"final\""),
            std::string::npos);
  EXPECT_EQ(obs::telemetry_csv_header().rfind("kind,round,phi", 0), 0u);

  // The console table is the same series: one row per record (the final
  // one included), the CSV fields after "kind" as its header.
  const Table table = obs::telemetry_table(series);
  EXPECT_EQ(table.num_rows(), series.size());
  const std::string rendered = table.to_string();
  EXPECT_EQ(rendered.substr(0, rendered.find('\n')),
            "round  phi       l_av    l_plus_av  makespan  movers  support  "
            "im_gap");

  // Φ drop is 48; within 10% of final means Φ <= 56.8 (round 4), within
  // 50% means Φ <= 76 (also round 4 — the drop front-loads).
  EXPECT_EQ(obs::rounds_to_phi_fraction(series, 0.1), 4);
  const obs::TelemetrySummary summary = obs::summarize_telemetry(series);
  EXPECT_EQ(summary.phi_first, 100.0);
  EXPECT_EQ(summary.phi_last, 52.0);
  EXPECT_EQ(summary.rounds_to_eps, 4);
  EXPECT_EQ(summary.phi_half_life, 4);
  EXPECT_EQ(obs::rounds_to_phi_fraction({}, 0.1), -1);
  // A flat series "converges" immediately.
  EXPECT_EQ(obs::rounds_to_phi_fraction({&c, 1}, 0.1), 8);

  // The file writer picks the format from the extension and reports its
  // bytes through the persist I/O counters.
  const std::string f_csv = temp_path("cid_telemetry_fmt.csv");
  const obs::PersistIoTotals before = obs::persist_io_totals();
  const std::uint64_t bytes = obs::write_telemetry_file(f_csv, series);
  const std::string text = persist::slurp_file(f_csv);
  EXPECT_EQ(text.size(), bytes);
  EXPECT_EQ(text.rfind(obs::telemetry_csv_header(), 0), 0u);
  EXPECT_EQ(obs::persist_io_totals().bytes_written - before.bytes_written,
            static_cast<std::int64_t>(bytes));
  std::remove(f_csv.c_str());
}

}  // namespace
}  // namespace cid
