// Deterministic fault injection (src/util/fault.hpp) and the recovery
// paths it exists to prove out.
//
// The central contract mirrors the sweep-resume tests: injecting write
// failures or a crash-at-point into a manifest-backed sweep, then
// recovering (writer retry, or clear_faults + resume), must leave a
// manifest byte-identical to the one a fault-free run writes. Outcomes
// are a pure function of the grid and the manifest stores them
// bit-exactly, so any recovery that loses or duplicates bytes shows up
// as a comparison failure here. All sweeps run --threads 1 so the
// fault-schedule consultation order (and with it hit= targeting) is
// deterministic.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "persist/binio.hpp"
#include "persist/eventlog.hpp"
#include "persist/manifest.hpp"
#include "sweep/runner.hpp"
#include "util/fault.hpp"

namespace cid::sweep {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

[[noreturn]] void throwing_crash_handler(const char* site) {
  throw util::fault_crash(std::string("injected crash at ") + site);
}

/// Disarms the global schedule around every test: the layer is
/// process-global state and must never leak into a neighbor.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::clear_faults();
    util::set_fault_crash_handler(nullptr);
  }
};

SweepGrid small_grid(const std::string& scenario, std::int64_t n,
                     std::int64_t rounds) {
  SweepGrid grid;
  grid.scenario.name = scenario;
  grid.protocols = parse_protocol_list("imitation");
  grid.ns = {n};
  grid.trials = 3;
  grid.master_seed = 77;
  grid.dynamics.max_rounds = rounds;
  return grid;
}

SweepOptions manifest_options(const std::string& manifest) {
  SweepOptions options;
  options.threads = 1;
  options.manifest_path = manifest;
  options.retry_backoff_ms = 0.0;  // tests should not sleep
  return options;
}

/// Runs the grid fault-free into a fresh manifest and returns its bytes.
std::string reference_manifest_bytes(const SweepGrid& grid,
                                     const std::string& name) {
  const std::string path = temp_path(name);
  run_sweep(grid, manifest_options(path));
  const std::string bytes = persist::slurp_file(path);
  std::remove(path.c_str());
  return bytes;
}

TEST_F(FaultTest, SpecGrammarIsValidated) {
  EXPECT_NO_THROW(util::configure_faults(
      "seed=9;manifest.append:err:hit=2;eventlog.*:short:p=0.5:count=3"));
  util::clear_faults();
  EXPECT_THROW(util::configure_faults("manifest.append"), std::runtime_error);
  EXPECT_THROW(util::configure_faults("manifest.append:frobnicate"),
               std::runtime_error);
  EXPECT_THROW(util::configure_faults("seed=notanumber;a:err"),
               std::runtime_error);
  EXPECT_THROW(util::configure_faults("a:err:p=1.5"), std::runtime_error);
  // An empty spec disarms rather than erroring.
  util::configure_faults("seed=1;manifest.append:err");
  util::configure_faults("");
  EXPECT_FALSE(util::faults_armed());
}

TEST_F(FaultTest, SameSeedSameSchedule) {
  const auto firings = [](const std::string& spec) {
    util::configure_faults(spec);
    std::vector<int> fired;
    for (int i = 0; i < 64; ++i) {
      if (util::fault_point("x.y").kind != util::FaultKind::kNone) {
        fired.push_back(i);
      }
    }
    util::clear_faults();
    return fired;
  };
  const std::string spec = "seed=42;x.*:err:p=0.25";
  const std::vector<int> first = firings(spec);
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 64u);  // p=0.25 is not "always"
  EXPECT_EQ(firings(spec), first);  // pure function of the spec
  EXPECT_NE(firings("seed=43;x.*:err:p=0.25"), first);
}

TEST_F(FaultTest, HitTargetsExactlyOneConsultation) {
  obs::MetricsRegistry& registry = obs::global_metrics();
  const auto injected = registry.counter("fault.injected");
  const std::int64_t injected_before = registry.value(injected);
  util::configure_faults("seed=1;s.a:short:hit=3");
  std::vector<util::FaultKind> kinds;
  for (int i = 0; i < 5; ++i) kinds.push_back(util::fault_point("s.a").kind);
  const std::vector<util::FaultKind> expected = {
      util::FaultKind::kNone, util::FaultKind::kNone,
      util::FaultKind::kShortWrite, util::FaultKind::kNone,
      util::FaultKind::kNone};
  EXPECT_EQ(kinds, expected);
  // Every firing bumps the global counter exactly once.
  EXPECT_EQ(registry.value(injected) - injected_before, 1);
}

// Every transient write-failure kind on the manifest hot path must be
// absorbed by the writer's truncate-and-rewrite recovery, leaving a file
// byte-identical to a fault-free run's.
TEST_F(FaultTest, ManifestWriteFaultsRecoverByteIdentical) {
  const SweepGrid grid = small_grid("load-balancing", 200, 500);
  const std::string reference =
      reference_manifest_bytes(grid, "fault_ref.manifest");

  struct SiteCase {
    const char* site;
    int hit;  // the header is written once; appends/flushes per record
  };
  const SiteCase kSites[] = {
      {"manifest.header", 1}, {"manifest.append", 2}, {"manifest.flush", 2}};
  for (const char* kind : {"err", "short", "enospc"}) {
    SCOPED_TRACE(kind);
    for (const SiteCase& s : kSites) {
      SCOPED_TRACE(s.site);
      const std::string path = temp_path("fault_rec.manifest");
      util::configure_faults("seed=5;" + std::string(s.site) + ":" + kind +
                             ":hit=" + std::to_string(s.hit));
      const SweepResult result = run_sweep(grid, manifest_options(path));
      util::clear_faults();
      EXPECT_TRUE(result.complete);
      EXPECT_TRUE(result.failures.empty());
      EXPECT_FALSE(result.manifest_degraded);
      EXPECT_EQ(persist::slurp_file(path), reference);
      std::remove(path.c_str());
    }
  }
}

// Crash-at-point, then resume, for every registered scenario family: the
// resumed manifest must equal the fault-free one byte for byte. The
// in-process crash handler throws fault_crash, which the runner's retry
// logic deliberately refuses to treat as a retryable trial error.
TEST_F(FaultTest, CrashAndResumeIsByteIdenticalForAllSixFamilies) {
  struct FamilyCase {
    const char* scenario;
    std::int64_t n;
    std::int64_t rounds;
  };
  // The n values are the per-family smoke sizes tests/
  // test_resume_families.cpp established as valid for every scenario.
  const FamilyCase kCases[] = {
      {"singleton-uniform", 2000, 500}, {"load-balancing", 2000, 500},
      {"network-routing", 1500, 500},   {"asymmetric", 900, 500},
      {"multicommodity", 900, 500},     {"threshold-lb", 12, 4000},
  };
  util::set_fault_crash_handler(&throwing_crash_handler);
  for (const FamilyCase& c : kCases) {
    SCOPED_TRACE(c.scenario);
    const SweepGrid grid = small_grid(c.scenario, c.n, c.rounds);
    const std::string reference = reference_manifest_bytes(
        grid, std::string("crash_ref_") + c.scenario + ".manifest");

    const std::string path =
        temp_path(std::string("crash_") + c.scenario + ".manifest");
    util::configure_faults("seed=3;manifest.append:crash:hit=2");
    EXPECT_THROW(run_sweep(grid, manifest_options(path)), util::fault_crash);
    util::clear_faults();

    // The dead run left a valid prefix; the resume completes the grid.
    const SweepResult resumed = run_sweep(grid, manifest_options(path));
    EXPECT_TRUE(resumed.complete);
    EXPECT_GT(resumed.resumed_trials, 0u);
    EXPECT_EQ(persist::slurp_file(path), reference);
    std::remove(path.c_str());
  }
}

// Trial-level isolation: a transiently failing trial is retried with a
// fresh copy of its Rng stream, so the retried sweep's manifest equals
// the fault-free one byte for byte.
TEST_F(FaultTest, TransientTrialFaultIsRetriedToTheIdenticalResult) {
  const SweepGrid grid = small_grid("load-balancing", 200, 500);
  const std::string reference =
      reference_manifest_bytes(grid, "retry_ref.manifest");

  const std::string path = temp_path("retry.manifest");
  util::configure_faults("seed=1;sweep.trial:err:hit=2");
  const SweepResult result = run_sweep(grid, manifest_options(path));
  util::clear_faults();
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(result.trial_retries, 1);
  EXPECT_EQ(persist::slurp_file(path), reference);
  std::remove(path.c_str());
}

// A trial that fails on EVERY attempt exhausts its budget, lands in
// SweepResult::failures, and is excluded from aggregation — without
// killing the sweep or poisoning the other trials' records.
TEST_F(FaultTest, PermanentTrialFailureIsIsolatedAndReported) {
  const SweepGrid grid = small_grid("load-balancing", 200, 500);
  const std::string path = temp_path("permfail.manifest");
  SweepOptions options = manifest_options(path);
  options.trial_max_attempts = 2;
  // Two firings = both attempts of exactly one trial (threads=1 keeps the
  // consultation order serial per trial).
  util::configure_faults("seed=1;sweep.trial:err:every=1:count=2");
  const SweepResult result = run_sweep(grid, options);
  util::clear_faults();

  EXPECT_TRUE(result.complete);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].trial_index, 0u);
  EXPECT_EQ(result.failures[0].attempts, 2);
  EXPECT_EQ(result.trial_retries, 1);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].trials, grid.trials - 1);  // failure excluded

  // The manifest holds the two surviving trials; a fault-free rerun over
  // the same manifest back-fills the failed one. The back-filled record
  // lands LAST in append order, so raw bytes differ from a never-faulted
  // run — but the canonical (cell, trial)-sorted form must be identical
  // to the fault-free threads=1 manifest, which is already canonical.
  const persist::ManifestContents contents =
      persist::load_manifest(path, grid);
  EXPECT_EQ(contents.completed.size(), 2u);
  const SweepResult healed = run_sweep(grid, manifest_options(path));
  EXPECT_TRUE(healed.complete);
  EXPECT_TRUE(healed.failures.empty());
  const std::string canonical = temp_path("permfail_canonical.manifest");
  persist::write_manifest_canonical(canonical,
                                    persist::merge_manifests({path}, {}));
  EXPECT_EQ(persist::slurp_file(canonical),
            reference_manifest_bytes(grid, "permfail_ref.manifest"));
  std::remove(canonical.c_str());
  std::remove(path.c_str());
}

// Rotation failure degrades to unrotated output instead of aborting; the
// record CONTENT (not framing) must match the fault-free run.
TEST_F(FaultTest, FailedRotationDegradesToUnrotatedOutput) {
  const SweepGrid grid = small_grid("load-balancing", 200, 500);
  const std::string path = temp_path("degrade.manifest");
  SweepOptions options = manifest_options(path);
  options.manifest_rotate_bytes = 64;  // would rotate after every record
  util::configure_faults("seed=1;manifest.rotate:err:every=1");
  const SweepResult result = run_sweep(grid, options);
  util::clear_faults();
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.manifest_degraded);  // degraded rotation, not data
  const persist::ManifestContents contents =
      persist::load_manifest(path, grid);
  EXPECT_EQ(contents.completed.size(),
            static_cast<std::size_t>(grid.trials));
  EXPECT_TRUE(contents.corrupt_segments.empty());
  for (const std::string& segment : persist::chain_segments(path)) {
    std::remove(segment.c_str());
  }
  std::remove(path.c_str());
}

// ---- Event log: the same recovery policy through the same AppendFile -------

constexpr std::int64_t kLogRounds = 40;

/// Writes kLogRounds synthetic rounds (4 per block) to `path`.
void write_event_log(const std::string& path,
                     const persist::EventLogOptions& options) {
  persist::EventLogWriter writer =
      persist::EventLogWriter::create(path, options);
  for (std::int64_t round = 0; round < kLogRounds; ++round) {
    const std::vector<Migration> moves = {
        {static_cast<std::int32_t>(round % 3), 2, round + 1}};
    writer.append(round, moves);
  }
  writer.close();
}

persist::EventLogOptions small_blocks() {
  persist::EventLogOptions options;
  options.block_rounds = 4;
  return options;
}

void remove_with_chain(const std::string& path) {
  for (const std::string& segment : persist::chain_segments(path)) {
    std::remove(segment.c_str());
  }
  std::remove(path.c_str());
}

TEST_F(FaultTest, EventLogWriteFaultsRecoverByteIdentical) {
  const std::string reference_path = temp_path("fault_ref.elog");
  write_event_log(reference_path, small_blocks());
  const std::string reference = persist::slurp_file(reference_path);
  std::remove(reference_path.c_str());

  struct SiteCase {
    const char* site;
    int hit;  // the header is written once; blocks/flushes per block
  };
  const SiteCase kSites[] = {
      {"eventlog.header", 1}, {"eventlog.block", 2}, {"eventlog.flush", 2}};
  for (const char* kind : {"err", "short", "enospc"}) {
    SCOPED_TRACE(kind);
    for (const SiteCase& s : kSites) {
      SCOPED_TRACE(s.site);
      const std::string path = temp_path("fault_rec.elog");
      const std::int64_t injected_before = util::faults_injected();
      util::configure_faults("seed=5;" + std::string(s.site) + ":" + kind +
                             ":hit=" + std::to_string(s.hit));
      write_event_log(path, small_blocks());
      util::clear_faults();
      EXPECT_EQ(util::faults_injected() - injected_before, 1);  // not vacuous
      EXPECT_EQ(persist::slurp_file(path), reference);
      std::remove(path.c_str());
    }
  }
}

// Rotation failure degrades to one unrotated file; the rounds (not the
// framing) must match the fault-free log, with nothing skipped.
TEST_F(FaultTest, FailedEventLogRotationDegrades) {
  const std::string path = temp_path("degrade.elog");
  persist::EventLogOptions options = small_blocks();
  options.rotate_bytes = 48;  // would rotate after every block
  const std::int64_t injected_before = util::faults_injected();
  util::configure_faults("seed=1;eventlog.rotate:err:every=1");
  write_event_log(path, options);
  util::clear_faults();
  EXPECT_GT(util::faults_injected() - injected_before, 0);
  EXPECT_TRUE(persist::chain_segments(path).empty());
  const persist::EventLog log = persist::read_event_log_series(path);
  EXPECT_TRUE(log.corrupt_segments.empty());
  EXPECT_EQ(log.corrupt_blocks, 0u);
  ASSERT_EQ(log.rounds.size(), static_cast<std::size_t>(kLogRounds));
  for (std::int64_t round = 0; round < kLogRounds; ++round) {
    EXPECT_EQ(log.rounds[round].round, round);
    ASSERT_EQ(log.rounds[round].moves.size(), 1u);
    EXPECT_EQ(log.rounds[round].moves[0].count, round + 1);
  }
  remove_with_chain(path);
}

// The chain walk skips an unreadable rotated segment but never one that
// belongs to another grid: mixing grids is not corruption.
TEST_F(FaultTest, ForeignRotatedManifestSegmentIsNeverSkipped) {
  const SweepGrid grid = small_grid("load-balancing", 200, 500);
  SweepGrid other = grid;
  other.master_seed = 78;
  const std::string path = temp_path("foreign.manifest");
  const std::string foreign = temp_path("foreign_other.manifest");
  persist::ManifestWriter::create(foreign, other).close();
  persist::ManifestWriter::create(path, grid).close();
  std::filesystem::rename(foreign, persist::chain_segment_path(path, 1));
  EXPECT_THROW(persist::load_manifest(path, grid),
               persist::grid_mismatch_error);
  EXPECT_THROW(persist::load_manifest_raw(path), persist::grid_mismatch_error);
  remove_with_chain(path);
}

}  // namespace
}  // namespace cid::sweep
