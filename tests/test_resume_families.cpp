// Kill-and-resume equality for EVERY registry scenario family.
//
// For each of the six registered scenarios the contract is the same one
// tests/test_resume.cpp proves for raw symmetric runs: a trial resumed
// from a snapshot produces a TrialOutcome bitwise identical (doubles
// compared as IEEE words via operator==) to the uninterrupted trial's.
// It holds for an exit snapshot (a trial run to an earlier round cap)
// and for a cadence snapshot that survives a crash in the middle of the
// run. Symmetric scenarios exercise the CIDSNAP symmetric sections,
// asymmetric ones the class-structured sections, and threshold-lb the
// MaxCut-instance sections — all six families through one format.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "dynamics/stop_rule.hpp"
#include "persist/binio.hpp"
#include "persist/snapshot.hpp"
#include "sweep/scenario.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace cid::sweep {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

struct FamilyCase {
  const char* scenario;
  std::int64_t n;
  const char* protocol;
  std::int64_t total_rounds;
  std::int64_t kill_round;
};

// Kill points are chosen inside each scenario's active phase so the
// resumed leg carries real work (the vacuity guard below enforces it).
const FamilyCase kCases[] = {
    {"singleton-uniform", 2000, "imitation", 60, 9},
    {"load-balancing", 2000, "combined", 60, 9},
    {"network-routing", 1500, "exploration", 60, 9},
    {"asymmetric", 900, "imitation", 60, 9},
    {"multicommodity", 900, "imitation", 60, 9},
    {"threshold-lb", 12, "imitation", 4000, 5},
};

ScenarioSpec spec_for(const FamilyCase& c) {
  ScenarioSpec spec;
  spec.name = c.scenario;
  return spec;
}

DynamicsConfig dynamics_with_budget(std::int64_t rounds) {
  DynamicsConfig dynamics;
  dynamics.max_rounds = rounds;
  // A stop rule that rarely fires within the horizon, so the kill lands
  // mid-flight; the absolute-round check cadence still gets exercised.
  dynamics.stop = StopRule::kNash;
  dynamics.check_interval = 3;
  return dynamics;
}

TEST(FamilyKillAndResume, AllSixRegistryScenariosAreByteIdentical) {
  for (const FamilyCase& c : kCases) {
    SCOPED_TRACE(c.scenario);
    const ScenarioSpec spec = spec_for(c);
    const auto instance = make_scenario(spec, c.n);
    const ProtocolSpec protocol = parse_protocol_spec(c.protocol);
    const DynamicsConfig full = dynamics_with_budget(c.total_rounds);
    const DynamicsConfig killed = dynamics_with_budget(c.kill_round);
    const std::uint64_t seed = 1234;

    // Reference: one uninterrupted trial.
    Rng reference_rng(seed);
    const TrialOutcome reference =
        instance->run_trial(protocol, full, reference_rng);

    // Reference with checkpointing enabled: proves checkpoint writes draw
    // zero RNG and leave the outcome untouched, and pins the snapshot an
    // uninterrupted run ends on.
    const std::string full_snap = temp_path(spec.name + "_full.snap");
    Rng checkpointed_rng(seed);
    const TrialOutcome checkpointed = instance->run_trial_checkpointed(
        protocol, full, checkpointed_rng, TrialCheckpoint{full_snap, 5});
    EXPECT_EQ(checkpointed, reference);

    // Leg 1: run to the kill round, snapshotting at exit (the "kill").
    const std::string kill_snap = temp_path(spec.name + "_kill.snap");
    Rng killed_rng(seed);
    instance->run_trial_checkpointed(protocol, killed, killed_rng,
                                     TrialCheckpoint{kill_snap, 0});

    // Leg 2: resume in a fresh "process" (nothing shared but the file).
    const TrialOutcome resumed =
        instance->resume_trial(protocol, full, kill_snap);
    EXPECT_EQ(resumed, reference);

    // Vacuity guard: the resumed segment did real work.
    EXPECT_GT(reference.rounds, static_cast<double>(c.kill_round));

    // Resuming an ALREADY-FINISHED trial is the identity.
    const TrialOutcome idempotent =
        instance->resume_trial(protocol, full, full_snap);
    EXPECT_EQ(idempotent, reference);

    std::remove(full_snap.c_str());
    std::remove(kill_snap.c_str());
  }
}

[[noreturn]] void throwing_crash_handler(const char* site) {
  throw util::fault_crash(std::string("injected crash at ") + site);
}

TEST(FamilyKillAndResume, ResumesFromTheCadenceSnapshotACrashLeaves) {
  for (const FamilyCase& c : kCases) {
    SCOPED_TRACE(c.scenario);
    const ScenarioSpec spec = spec_for(c);
    const auto instance = make_scenario(spec, c.n);
    const ProtocolSpec protocol = parse_protocol_spec(c.protocol);
    const DynamicsConfig full = dynamics_with_budget(c.total_rounds);
    const std::uint64_t seed = 4321;

    Rng reference_rng(seed);
    const TrialOutcome reference =
        instance->run_trial(protocol, full, reference_rng);

    // Cadence writes land after rounds 2, 4, 6, ...; the third write dies,
    // so the file on disk is the round-4 snapshot, taken mid-run.
    const std::string snap = temp_path(spec.name + "_crash.snap");
    std::remove(snap.c_str());
    util::set_fault_crash_handler(&throwing_crash_handler);
    util::configure_faults("snapshot.write:crash:hit=3");
    Rng crashed_rng(seed);
    EXPECT_THROW(instance->run_trial_checkpointed(protocol, full, crashed_rng,
                                                  TrialCheckpoint{snap, 2}),
                 util::fault_crash);
    util::clear_faults();
    util::set_fault_crash_handler(nullptr);

    EXPECT_EQ(persist::load_snapshot(snap).round, 4);
    const TrialOutcome resumed = instance->resume_trial(protocol, full, snap);
    EXPECT_EQ(resumed, reference);
    // Vacuity guard: the crash came before the trial's end.
    EXPECT_GT(reference.rounds, 6.0);
    std::remove(snap.c_str());
    std::remove((snap + ".tmp").c_str());
  }
}

TEST(FamilyKillAndResume, SnapshotRecordsTheStopRuleExactly) {
  ScenarioSpec spec;
  spec.name = "load-balancing";
  const auto instance = make_scenario(spec, 300);
  DynamicsConfig dynamics = dynamics_with_budget(5);
  dynamics.stop = StopRule::kDeltaEps;
  dynamics.delta = 1e-7;
  dynamics.eps = 0.3;

  const std::string snap = temp_path("stop_rule.snap");
  Rng rng(3);
  instance->run_trial_checkpointed(parse_protocol_spec("imitation"),
                                   dynamics, rng, TrialCheckpoint{snap, 0});
  const StopSpec recorded =
      parse_stop(persist::load_snapshot(snap).config.stop);
  EXPECT_EQ(recorded.rule, StopRule::kDeltaEps);
  EXPECT_EQ(recorded.delta, 1e-7);
  EXPECT_EQ(recorded.eps, 0.3);
  std::remove(snap.c_str());
}

TEST(FamilyKillAndResume, WrongScenarioSnapshotFailsLoudly) {
  ScenarioSpec lb;
  lb.name = "load-balancing";
  const auto small = make_scenario(lb, 500);
  const auto large = make_scenario(lb, 700);
  const ProtocolSpec protocol = parse_protocol_spec("imitation");
  const DynamicsConfig dynamics = dynamics_with_budget(10);

  const std::string snap = temp_path("wrong_scenario.snap");
  Rng rng(7);
  small->run_trial_checkpointed(protocol, dynamics, rng,
                                TrialCheckpoint{snap, 0});
  // Same family, different n: the embedded game differs, so resume must
  // refuse instead of silently continuing the wrong dynamics.
  EXPECT_THROW(large->resume_trial(protocol, dynamics, snap),
               persist::persist_error);

  // Cross-family confusion is caught by the snapshot family tag.
  ScenarioSpec asym;
  asym.name = "multicommodity";
  const auto asym_instance = make_scenario(asym, 500);
  EXPECT_THROW(asym_instance->resume_trial(protocol, dynamics, snap),
               persist::persist_error);
  std::remove(snap.c_str());
}

TEST(FamilyKillAndResume, ThresholdBestResponseVariantAlsoResumes) {
  // threshold-lb maps non-imitation protocols onto plain best response
  // over the quadratic game; that code path checkpoints and resumes too.
  ScenarioSpec spec;
  spec.name = "threshold-lb";
  const auto instance = make_scenario(spec, 10);
  const ProtocolSpec protocol = parse_protocol_spec("exploration");
  const DynamicsConfig full = dynamics_with_budget(1000);
  const DynamicsConfig killed = dynamics_with_budget(3);

  Rng reference_rng(99);
  const TrialOutcome reference =
      instance->run_trial(protocol, full, reference_rng);

  const std::string snap = temp_path("threshold_br.snap");
  Rng killed_rng(99);
  instance->run_trial_checkpointed(protocol, killed, killed_rng,
                                   TrialCheckpoint{snap, 0});
  const TrialOutcome resumed = instance->resume_trial(protocol, full, snap);
  EXPECT_EQ(resumed, reference);
  std::remove(snap.c_str());
}

}  // namespace
}  // namespace cid::sweep
