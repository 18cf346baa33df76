// Format-compatibility matrix over a checked-in corpus of v1 artifacts
// (tests/fixtures/persist/, generated by the PR-2-era binaries and frozen).
//
//   * new-reader/old-file: the TLV-era readers must load every v1
//     artifact — snapshot, event log, sweep manifest — with full semantic
//     fidelity (replaying the v1 event log from the v1 snapshot's game
//     reproduces the v1 final state bit-for-bit);
//   * old-reader/new-file: covered in test_persist.cpp by feeding files
//     with unknown sections / future version bytes to today's readers
//     (the skip-unknown policy makes today's reader the "old" one);
//   * upgrade path: a v1 artifact rewritten through today's writers
//     round-trips without semantic drift;
//   * frozen v2 bytes: one checked-in trial snapshot per family pins the
//     one snapshot writer byte for byte;
//   * outcome semantics: v1 manifests and snapshots decode in full but are
//     refused with a typed error when resumed or merged with today's
//     (semantics v2) outcomes.
//
// CI runs this suite in every build cell and under the sanitizers, so an
// accidental breaking change to the on-disk formats can never land
// silently. The fixtures are immutable: regenerate them ONLY for a
// deliberate, documented major-version break.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "game/io.hpp"
#include "persist/binio.hpp"
#include "persist/checkpoint.hpp"
#include "persist/eventlog.hpp"
#include "persist/manifest.hpp"
#include "persist/snapshot.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "util/rng.hpp"

#ifndef CID_PERSIST_FIXTURE_DIR
#error "CID_PERSIST_FIXTURE_DIR must point at tests/fixtures/persist"
#endif

namespace cid::persist {
namespace {

std::string fixture(const std::string& name) {
  return std::string(CID_PERSIST_FIXTURE_DIR) + "/" + name;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// The exact invocation that generated the fixtures (see the corpus
// README): cid_sim --game fixture_v1.game --rounds 40 --seed 42
// --stop nash, cid_sweep --scenario load-balancing --param m=4
// --grid n=100,200 --trials 3 --seed 7 --rounds 50.
constexpr std::int64_t kFixtureRounds = 40;
constexpr std::uint64_t kFixtureSeed = 42;

sweep::SweepGrid fixture_grid() {
  sweep::SweepGrid grid;
  grid.scenario.name = "load-balancing";
  grid.scenario.params = {{"m", 4.0}};
  grid.protocols = sweep::parse_protocol_list("imitation");
  grid.ns = {100, 200};
  grid.trials = 3;
  grid.master_seed = 7;
  grid.dynamics.max_rounds = 50;
  return grid;
}

// The frozen v2 trial snapshots, one per family (see the corpus README
// for how they were written): today's writer must reproduce each file
// byte for byte, and the one decoder must read it back as its family and
// re-encode it to the same payload.
struct FrozenSnapshot {
  const char* file;
  const char* scenario;
  SnapshotFamily family;
  std::int64_t round;
};

const FrozenSnapshot kFrozenSnapshots[] = {
    {"trial_load_balancing_v2.cidsnap", "load-balancing",
     SnapshotFamily::kSymmetric, 40},
    {"trial_asymmetric_v2.cidsnap", "asymmetric", SnapshotFamily::kAsymmetric,
     40},
    {"trial_threshold_lb_v2.cidsnap", "threshold-lb",
     SnapshotFamily::kThreshold, 25},
};

TEST(PersistCompat, V2TrialSnapshotsAreByteFrozen) {
  for (const FrozenSnapshot& frozen : kFrozenSnapshots) {
    SCOPED_TRACE(frozen.file);
    sweep::ScenarioSpec spec;
    spec.name = frozen.scenario;
    sweep::DynamicsConfig dynamics;
    dynamics.max_rounds = 40;
    dynamics.stop = StopRule::kNash;
    const std::string path = temp_path(frozen.file);
    Rng rng(7);
    sweep::make_scenario(spec, 200)->run_trial_checkpointed(
        sweep::parse_protocol_spec("imitation"), dynamics, rng, {path, 0});
    const bool same = slurp_file(path) == slurp_file(fixture(frozen.file));
    EXPECT_TRUE(same) << "today's writer differs; its bytes are at " << path;
    if (same) std::remove(path.c_str());

    const Snapshot snapshot = load_snapshot(fixture(frozen.file));
    EXPECT_EQ(snapshot.family(), frozen.family);
    EXPECT_EQ(snapshot.round, frozen.round);
    EXPECT_EQ(snapshot.config.outcome_semantics, kOutcomeSemantics);
    EXPECT_TRUE(snapshot_payload(snapshot) ==
                read_file_checked(fixture(frozen.file), kSnapshotMagic,
                                  kAnyVersion)
                    .payload);
  }
}

TEST(PersistCompat, V1SnapshotLoads) {
  const Snapshot snapshot = load_snapshot(fixture("final_v1.cidsnap"));
  EXPECT_EQ(snapshot.round, kFixtureRounds);
  EXPECT_EQ(snapshot.config.protocol, "imitation");
  EXPECT_EQ(snapshot.config.stop, "nash");
  EXPECT_EQ(snapshot.movers, 0);  // v1 predates the trial-stats section
  ASSERT_EQ(snapshot.family(), SnapshotFamily::kSymmetric);
  const auto& part = std::get<SymmetricPart>(snapshot.part);
  EXPECT_EQ(part.game.num_players(), 5000);
  EXPECT_EQ(part.game.num_resources(), 6);
  // The embedded game must equal the checked-in text-format game.
  const CongestionGame game = load_game(fixture("fixture_v1.game"));
  EXPECT_EQ(serialize_game(part.game), serialize_game(game));
}

TEST(PersistCompat, V1EventLogReplaysToTheV1FinalState) {
  const Snapshot v1 = load_snapshot(fixture("final_v1.cidsnap"));
  const auto& final_snapshot = std::get<SymmetricPart>(v1.part);
  const EventLog log = read_event_log(fixture("run_v1.cidelog"));
  EXPECT_EQ(log.version, 1);
  EXPECT_FALSE(log.truncated_tail);
  ASSERT_EQ(log.rounds.size(), static_cast<std::size_t>(kFixtureRounds));

  // Rebuild the run's initial state exactly as cid_sim did (--start
  // uniform draws it from the seed before any round), then replay the v1
  // log with zero RNG draws: the result must equal both the v1 snapshot
  // state and the checked-in v1 text state.
  Rng rng(kFixtureSeed);
  State x = State::uniform_random(final_snapshot.game, rng);
  const std::int64_t applied = replay_rounds(final_snapshot.game, x,
                                             log.rounds, 0, kFixtureRounds);
  EXPECT_EQ(applied, kFixtureRounds);
  EXPECT_TRUE(x == final_snapshot.state());
  const State text_state =
      load_state(final_snapshot.game, fixture("final_v1.cidstate"));
  EXPECT_TRUE(x == text_state);
}

TEST(PersistCompat, V1ManifestDecodesButNeverResumes) {
  // Every decode assertion goes through the grid-less reader: the v1 file
  // stays readable in full.
  const ManifestContents contents =
      load_manifest_raw(fixture("sweep_v1.cidmani"));
  EXPECT_EQ(contents.outcome_semantics, 1u);  // predates the stamp
  EXPECT_FALSE(contents.truncated_tail);
  EXPECT_EQ(contents.cells, 2u);
  EXPECT_EQ(contents.trials_per_cell, 3u);
  EXPECT_EQ(contents.completed.size(), 6u);  // the full fixture sweep

  // Resuming against its own grid is refused with the typed error: its
  // outcomes were computed under semantics v1.
  const sweep::SweepGrid grid = fixture_grid();
  EXPECT_THROW(load_manifest(fixture("sweep_v1.cidmani"), grid),
               grid_mismatch_error);
  sweep::SweepGrid other = fixture_grid();
  other.master_seed = 8;
  EXPECT_THROW(load_manifest(fixture("sweep_v1.cidmani"), other),
               grid_mismatch_error);
}

TEST(PersistCompat, V1ManifestResumeIsRefused) {
  // A sweep pointed at a copy of the v1 manifest must refuse before it
  // appends a single v2 record to it.
  const std::string path = temp_path("resume_v1.cidmani");
  const std::string bytes = slurp_file(fixture("sweep_v1.cidmani"));
  {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
    ASSERT_EQ(std::fclose(out), 0);
  }
  sweep::SweepOptions options;
  options.manifest_path = path;
  EXPECT_THROW(sweep::run_sweep(fixture_grid(), options),
               grid_mismatch_error);
  EXPECT_THROW(ManifestWriter::open_for_append(path, fixture_grid()),
               grid_mismatch_error);
  EXPECT_EQ(slurp_file(path), bytes);  // untouched
  std::remove(path.c_str());
}

TEST(PersistCompat, V1ManifestNeverMergesWithV2) {
  const std::string v2 = temp_path("merge_v2.cidmani");
  sweep::SweepOptions options;
  options.manifest_path = v2;
  sweep::run_sweep(fixture_grid(), options);
  EXPECT_EQ(load_manifest_raw(v2).outcome_semantics, kOutcomeSemantics);
  EXPECT_THROW(merge_manifests({v2, fixture("sweep_v1.cidmani")}),
               grid_mismatch_error);
  EXPECT_THROW(merge_manifests({fixture("sweep_v1.cidmani"), v2}),
               grid_mismatch_error);
  std::remove(v2.c_str());
}

TEST(PersistCompat, V1SnapshotRefusesToResume) {
  const Snapshot v1 = load_snapshot(fixture("final_v1.cidsnap"));
  EXPECT_EQ(v1.config.outcome_semantics, 1u);
  EXPECT_THROW(require_current_semantics(v1.config, "final_v1.cidsnap"),
               persist_error);
  EXPECT_THROW(resume_run(fixture("final_v1.cidsnap")), persist_error);
}

TEST(PersistCompat, V1SnapshotUpgradesThroughTheV2Writer) {
  const Snapshot v1 = load_snapshot(fixture("final_v1.cidsnap"));
  const std::string path = temp_path("upgraded.snap");
  save_snapshot(v1, path);  // writes v2 TLV
  const Snapshot v2 = load_snapshot(path);
  EXPECT_EQ(v2.round, v1.round);
  EXPECT_EQ(v2.config, v1.config);
  EXPECT_EQ(v2.rng_state, v1.rng_state);
  EXPECT_EQ(v2.family(), SnapshotFamily::kSymmetric);
  const auto& old_part = std::get<SymmetricPart>(v1.part);
  const auto& new_part = std::get<SymmetricPart>(v2.part);
  EXPECT_EQ(new_part.counts, old_part.counts);
  EXPECT_EQ(serialize_game(new_part.game), serialize_game(old_part.game));
  std::remove(path.c_str());
}

TEST(PersistCompat, V1EventLogUpgradesThroughTheV2Writer) {
  const EventLog v1 = read_event_log(fixture("run_v1.cidelog"));
  const std::string path = temp_path("upgraded.elog");
  {
    EventLogWriter writer = EventLogWriter::create(path);  // v2 compressed
    for (const RoundEvents& events : v1.rounds) {
      writer.append(events.round, events.moves);
    }
    writer.close();
  }
  const EventLog v2 = read_event_log(path);
  EXPECT_EQ(v2.version, kEventLogVersion);
  ASSERT_EQ(v2.rounds.size(), v1.rounds.size());
  for (std::size_t i = 0; i < v1.rounds.size(); ++i) {
    EXPECT_EQ(v2.rounds[i].round, v1.rounds[i].round);
    ASSERT_EQ(v2.rounds[i].moves.size(), v1.rounds[i].moves.size());
    for (std::size_t m = 0; m < v1.rounds[i].moves.size(); ++m) {
      EXPECT_EQ(v2.rounds[i].moves[m].from, v1.rounds[i].moves[m].from);
      EXPECT_EQ(v2.rounds[i].moves[m].to, v1.rounds[i].moves[m].to);
      EXPECT_EQ(v2.rounds[i].moves[m].count, v1.rounds[i].moves[m].count);
    }
  }
  // Same rounds, strictly fewer bytes (delta + varint even before LZ wins
  // on this short, busy log).
  EXPECT_LT(v2.file_bytes, v1.file_bytes);
  EXPECT_EQ(v2.v1_equivalent_bytes, v1.file_bytes);
  std::remove(path.c_str());
}

TEST(PersistCompat, V1EventLogRefusesAppendsAndStaysUnchanged) {
  // Copy the fixture, then try to continue it with today's writer: there
  // is no v1 writer, so the append is refused with the typed error and
  // the file keeps every byte (an old reader can still read all of it).
  const std::string path = temp_path("continued_v1.elog");
  const std::string bytes = slurp_file(fixture("run_v1.cidelog"));
  {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
    ASSERT_EQ(std::fclose(out), 0);
  }
  EXPECT_THROW(EventLogWriter::open_for_append(path, kFixtureRounds),
               persist_error);
  EXPECT_EQ(slurp_file(path), bytes);
  const EventLog log = read_event_log(path);
  EXPECT_EQ(log.version, 1);
  EXPECT_EQ(log.rounds.size(), static_cast<std::size_t>(kFixtureRounds));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cid::persist
