// Loopback end-to-end tests of the trial-lease coordinator
// (src/serve/coordinator.hpp + src/serve/worker.hpp).
//
// The tentpole claim: a fleet run — coordinator plus N workers over TCP,
// including workers killed mid-lease, poisoned leases, and worker-side
// requeues — produces a final manifest byte-identical to what a local
// --threads 1 run_sweep writes for the same grid. Trial outcomes are a
// pure function of (grid, master_seed) via sweep::derive_trial_rng, the
// coordinator rewrites the manifest canonically at drain, and so no
// amount of lease churn may change a single byte.
//
// Worker death is simulated deterministically: sweep.trial:crash with a
// throwing crash handler unwinds one worker thread mid-lease (its socket
// closes exactly as a SIGKILL would close it), and serve.lease_expire
// poisons a grant so its completion is rejected without depending on
// real TTL timing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "persist/binio.hpp"
#include "persist/manifest.hpp"
#include "serve/coordinator.hpp"
#include "serve/net.hpp"
#include "serve/worker.hpp"
#include "sweep/runner.hpp"
#include "util/fault.hpp"

namespace cid::serve {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Scenario family 1: heterogeneous linear load balancing, two protocols.
sweep::SweepGrid load_balancing_grid() {
  sweep::SweepGrid grid;
  grid.scenario.name = "load-balancing";
  grid.scenario.params = {{"m", 4.0}};
  grid.protocols = sweep::parse_protocol_list("imitation,combined");
  grid.ns = {200, 500};
  grid.trials = 4;  // 4 cells x 4 = 16 trials
  grid.master_seed = 31;
  grid.dynamics.max_rounds = 2000;
  return grid;
}

// Scenario family 2: identical monomial links (the paper's uniform case).
sweep::SweepGrid singleton_grid() {
  sweep::SweepGrid grid;
  grid.scenario.name = "singleton-uniform";
  grid.scenario.params = {{"m", 3.0}, {"degree", 2.0}};
  grid.protocols = sweep::parse_protocol_list("imitation,combined");
  grid.ns = {100, 300};
  grid.trials = 3;  // 4 cells x 3 = 12 trials
  grid.master_seed = 77;
  grid.dynamics.max_rounds = 2000;
  return grid;
}

// The ground truth every fleet run is compared against: a local,
// unsharded, single-threaded sweep's manifest bytes.
std::string reference_manifest_bytes(const sweep::SweepGrid& grid,
                                     const std::string& name) {
  const std::string path = temp_path(name);
  std::remove(path.c_str());
  sweep::SweepOptions options;
  options.threads = 1;
  options.manifest_path = path;
  const sweep::SweepResult result = sweep::run_sweep(grid, options);
  EXPECT_TRUE(result.complete);
  std::string bytes = persist::slurp_file(path);
  std::remove(path.c_str());
  return bytes;
}

CoordinatorOptions coordinator_options(const std::string& manifest,
                                       std::promise<std::uint16_t>& port) {
  CoordinatorOptions options;
  options.manifest_path = manifest;
  options.tick_seconds = 0.01;
  options.max_seconds = 120.0;  // CI safety net, never the expected exit
  options.on_listening = [&port](std::uint16_t lease_port, std::uint16_t) {
    port.set_value(lease_port);
  };
  return options;
}

/// What a fleet of worker threads left behind.
struct FleetRun {
  std::vector<WorkerReport> reports;
  int killed = 0;  // workers a util::fault_crash unwound ("died")
};

/// Runs `count` workers, each on its own thread, against the coordinator
/// at `port`. The coordinator exits once the grid is drained and no
/// connection is open, so a worker whose thread starts after the others
/// finished would meet a closed port: the harness holds one idle
/// connection open until every worker has returned. Any other exception
/// a worker throws fails the test with its message instead of escaping
/// the thread (which would abort the whole binary).
FleetRun run_fleet(const sweep::SweepGrid& grid, std::uint16_t port,
                   std::size_t count) {
  Socket hold = tcp_connect("127.0.0.1", port);
  FleetRun fleet;
  fleet.reports.resize(count);
  std::vector<std::string> errors(count);
  std::atomic<int> killed{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < count; ++i) {
    threads.emplace_back([&, i] {
      WorkerOptions worker;
      worker.port = port;
      worker.name = "w" + std::to_string(i);
      try {
        fleet.reports[i] = run_worker(grid, worker);
      } catch (const util::fault_crash&) {
        killed.fetch_add(1);  // this worker "died"; its socket is gone
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  hold.close();
  for (std::size_t i = 0; i < count; ++i) {
    if (!errors[i].empty()) {
      ADD_FAILURE() << "worker w" << i << ": " << errors[i];
    }
  }
  fleet.killed = killed.load();
  return fleet;
}

// Faults and the crash handler are process-global; every test must leave
// them disarmed for its neighbors.
class Serve : public ::testing::Test {
 protected:
  void TearDown() override {
    util::clear_faults();
    util::set_fault_crash_handler(nullptr);
  }
};

// The core acceptance claim, for two scenario families: coordinator + 3
// workers lands the exact bytes of the local single-threaded run.
TEST_F(Serve, FleetManifestByteIdenticalToLocalRun) {
  struct Family {
    const char* name;
    sweep::SweepGrid grid;
  };
  const std::vector<Family> families = {
      {"load-balancing", load_balancing_grid()},
      {"singleton-uniform", singleton_grid()},
  };
  for (const Family& family : families) {
    SCOPED_TRACE(family.name);
    const std::string reference = reference_manifest_bytes(
        family.grid, std::string("serve_ref_") + family.name + ".manifest");

    const std::string manifest =
        temp_path(std::string("serve_fleet_") + family.name + ".manifest");
    std::remove(manifest.c_str());
    std::promise<std::uint16_t> port_promise;
    const CoordinatorOptions options =
        coordinator_options(manifest, port_promise);

    CoordinatorReport report;
    std::thread coordinator(
        [&] { report = serve_grid(family.grid, options); });
    const std::uint16_t port = port_promise.get_future().get();

    const FleetRun fleet = run_fleet(family.grid, port, 3);
    coordinator.join();

    EXPECT_TRUE(report.complete);
    EXPECT_FALSE(report.timed_out);
    EXPECT_EQ(report.trials_failed, 0u);
    EXPECT_EQ(report.workers_seen, 3u);
    std::size_t fleet_trials = 0;
    for (const WorkerReport& w : fleet.reports) {
      EXPECT_TRUE(w.drained);
      fleet_trials += w.trials_completed;
    }
    EXPECT_EQ(fleet_trials, report.trials_total);
    EXPECT_EQ(persist::slurp_file(manifest), reference);
    std::remove(manifest.c_str());
  }
}

// The ISSUE acceptance scenario: one worker is killed mid-lease (crash
// fault while it holds a grant; its socket closes exactly as a kill
// would), the coordinator reclaims the dropped lease, the survivors
// drain the grid — and the bytes still match the local run.
TEST_F(Serve, WorkerKilledMidLeaseIsReclaimedWithoutChangingBytes) {
  const sweep::SweepGrid grid = load_balancing_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_kill_ref.manifest");

  const std::string manifest = temp_path("serve_kill_fleet.manifest");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  const CoordinatorOptions options =
      coordinator_options(manifest, port_promise);

  // The 2nd consultation of sweep.trial across the fleet crashes: some
  // worker dies between grant and complete, deterministically once.
  util::set_fault_crash_handler(+[](const char* site) {
    throw util::fault_crash(std::string("injected kill at ") + site);
  });
  util::configure_faults("sweep.trial:crash:hit=2");

  CoordinatorReport report;
  std::thread coordinator([&] { report = serve_grid(grid, options); });
  const std::uint16_t port = port_promise.get_future().get();

  const FleetRun fleet = run_fleet(grid, port, 3);
  coordinator.join();

  EXPECT_EQ(fleet.killed, 1);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.trials_failed, 0u);
  // The kill was mid-lease, so the drop was observed as a disconnect (or,
  // if the TTL raced first, an expiry) and the trial was re-granted.
  EXPECT_GE(report.leases_disconnected + report.leases_expired, 1u);
  EXPECT_GT(report.leases_granted, report.trials_total);
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

// serve.lease_expire poisons the first grant: its completion is rejected
// (lease_lost at the worker), the trial is reclaimed on the next tick and
// re-granted — no TTL timing involved — and the bytes still match.
TEST_F(Serve, PoisonedLeaseIsRejectedReclaimedAndRegranted) {
  const sweep::SweepGrid grid = singleton_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_poison_ref.manifest");

  const std::string manifest = temp_path("serve_poison_fleet.manifest");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  const CoordinatorOptions options =
      coordinator_options(manifest, port_promise);

  util::configure_faults("serve.lease_expire:err:hit=1");

  CoordinatorReport report;
  std::thread coordinator([&] { report = serve_grid(grid, options); });
  const std::uint16_t port = port_promise.get_future().get();

  WorkerOptions worker;
  worker.port = port;
  worker.name = "poisoned";
  worker.renew_fraction = 0.0;  // expiry semantics under test, no renewer
  const WorkerReport worker_report = run_worker(grid, worker);
  coordinator.join();

  EXPECT_TRUE(report.complete);
  EXPECT_GE(report.leases_expired, 1u);  // the poisoned grant
  EXPECT_EQ(report.leases_granted, report.trials_total + 1);
  EXPECT_GE(worker_report.leases_lost, 1u);
  EXPECT_EQ(worker_report.trials_completed, report.trials_total);
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

// A worker whose local retry budget is exhausted hands the trial back
// (requeue) instead of wedging it; the coordinator re-grants and the
// trial lands on a later lease with the exact same bytes.
TEST_F(Serve, WorkerRequeueReturnsTheTrialForRegrant) {
  const sweep::SweepGrid grid = load_balancing_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_requeue_ref.manifest");

  const std::string manifest = temp_path("serve_requeue_fleet.manifest");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  const CoordinatorOptions options =
      coordinator_options(manifest, port_promise);

  // First trial attempt fails; with trial_max_attempts=1 the worker has
  // no local retry left and must requeue.
  util::configure_faults("sweep.trial:err:hit=1");

  CoordinatorReport report;
  std::thread coordinator([&] { report = serve_grid(grid, options); });
  const std::uint16_t port = port_promise.get_future().get();

  WorkerOptions worker;
  worker.port = port;
  worker.name = "requeuer";
  worker.trial_max_attempts = 1;
  const WorkerReport worker_report = run_worker(grid, worker);
  coordinator.join();

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.requeues, 1u);
  EXPECT_EQ(worker_report.trials_requeued, 1u);
  EXPECT_EQ(worker_report.trials_completed, report.trials_total);
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

// Restarting the coordinator over a completed live manifest resumes every
// trial — no worker needed — and the canonical rewrite is stable: serving
// twice produces the same bytes as serving once, which are the local
// run's bytes.
TEST_F(Serve, ResumedManifestServesToCompletionWithoutWorkers) {
  const sweep::SweepGrid grid = singleton_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_resume_ref.manifest");

  const std::string manifest = temp_path("serve_resume.manifest");
  std::remove(manifest.c_str());
  {
    std::promise<std::uint16_t> port_promise;
    const CoordinatorOptions options =
        coordinator_options(manifest, port_promise);
    CoordinatorReport report;
    std::thread coordinator([&] { report = serve_grid(grid, options); });
    const std::uint16_t port = port_promise.get_future().get();
    WorkerOptions worker;
    worker.port = port;
    run_worker(grid, worker);
    coordinator.join();
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.trials_resumed, 0u);
  }
  {
    std::promise<std::uint16_t> port_promise;
    const CoordinatorOptions options =
        coordinator_options(manifest, port_promise);
    const CoordinatorReport report = serve_grid(grid, options);
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.trials_resumed, report.trials_total);
    EXPECT_EQ(report.leases_granted, 0u);
  }
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

}  // namespace
}  // namespace cid::serve
