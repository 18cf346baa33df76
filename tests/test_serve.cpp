// Loopback end-to-end tests of the trial-lease coordinator
// (src/serve/coordinator.hpp + src/serve/worker.hpp).
//
// The tentpole claim: a fleet run — coordinator plus N workers over TCP,
// including workers killed mid-run, poisoned leases, worker-side requeues
// and manifest flush faults — produces a final manifest byte-identical to
// what a local --threads 1 run_sweep writes for the same grid. Trial
// outcomes are a pure function of (grid, master_seed) via
// sweep::derive_trial_rng, the coordinator rewrites the manifest
// canonically at drain, and so no amount of lease churn may change a
// single byte.
//
// A lease is a run of trials of one cell, sized ceil(pending / (4 x
// connected workers)) within [1, kMaxLeaseTrials]; one worker on 16
// pending trials takes a run of 4. Worker death is simulated
// deterministically: sweep.trial:crash with a throwing crash handler
// unwinds one worker thread mid-run (its socket closes exactly as a
// SIGKILL would close it), and serve.lease_expire poisons a grant so its
// completion is rejected without depending on real TTL timing. The canary
// trial consults sweep.trial too; the fixture runs it before any fault is
// armed, so hit numbers below index grid trials only.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "persist/binio.hpp"
#include "persist/manifest.hpp"
#include "serve/coordinator.hpp"
#include "serve/net.hpp"
#include "serve/proto.hpp"
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
// unsharded, single-threaded sweep's manifest bytes (and, when asked, its
// outcomes).
std::string reference_manifest_bytes(
    const sweep::SweepGrid& grid, const std::string& name,
    persist::ManifestContents* contents = nullptr) {
  const std::string path = temp_path(name);
  std::remove(path.c_str());
  sweep::SweepOptions options;
  options.threads = 1;
  options.manifest_path = path;
  const sweep::SweepResult result = sweep::run_sweep(grid, options);
  EXPECT_TRUE(result.complete);
  std::string bytes = persist::slurp_file(path);
  if (contents != nullptr) *contents = persist::load_manifest(path, grid);
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
  void SetUp() override { canary_bits(); }
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

/// The counters of a Prometheus exposition file, by name.
std::map<std::string, std::int64_t> read_prom_counters(
    const std::string& path) {
  std::map<std::string, std::int64_t> counters;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::int64_t value = 0;
    if (fields >> name >> value) counters[name] = value;
  }
  return counters;
}

// One trial step on both paths, so one accounting: a metered grid run
// locally at --threads 1 and through coordinator + 2 workers reports the
// same work counters, engine.* included (the fleet sums the workers'
// pushes).
TEST_F(Serve, FleetCountersEqualTheLocalRun) {
  sweep::SweepGrid grid = load_balancing_grid();
  grid.dynamics.collect_metrics = true;
  sweep::SweepOptions local_options;
  local_options.threads = 1;
  const sweep::SweepResult local = sweep::run_sweep(grid, local_options);
  ASSERT_GT(local.engine.rounds, 0);

  const std::string manifest = temp_path("serve_counters.manifest");
  const std::string prom = temp_path("serve_counters.prom");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  CoordinatorOptions options = coordinator_options(manifest, port_promise);
  options.metrics_prom_path = prom;
  CoordinatorReport report;
  std::thread coordinator([&] { report = serve_grid(grid, options); });
  const std::uint16_t port = port_promise.get_future().get();
  run_fleet(grid, port, 2);
  coordinator.join();
  ASSERT_TRUE(report.complete);

  const std::map<std::string, std::int64_t> fleet = read_prom_counters(prom);
  const std::vector<std::pair<std::string, std::int64_t>> expected = {
      {"cid_engine_rounds", local.engine.rounds},
      {"cid_engine_rows_filled", local.engine.rows_filled},
      {"cid_engine_rows_pruned", local.engine.rows_pruned},
      {"cid_engine_rows_replayed", local.engine.rows_replayed},
      {"cid_engine_stop_checks", local.engine.stop_checks},
      {"cid_sweep_ran_rounds", local.ran_rounds},
      {"cid_sweep_latency_evals", local.latency_evals},
  };
  for (const auto& [name, value] : expected) {
    const auto it = fleet.find(name);
    ASSERT_NE(it, fleet.end()) << name << " missing from the fleet";
    EXPECT_EQ(it->second, value) << name;
  }
  std::remove(manifest.c_str());
  std::remove(prom.c_str());
}

// A worker killed inside a run: alone on 16 pending trials it leases a
// run of 4, and the crash fault fires on its 3rd trial (its socket closes
// exactly as a kill would). The coordinator reclaims the whole run — none
// of it had landed — two survivors drain the grid, and the bytes still
// match the local run.
TEST_F(Serve, WorkerKilledMidRunIsReclaimedWithoutChangingBytes) {
  const sweep::SweepGrid grid = load_balancing_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_kill_ref.manifest");

  const std::string manifest = temp_path("serve_kill_fleet.manifest");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  const CoordinatorOptions options =
      coordinator_options(manifest, port_promise);

  util::set_fault_crash_handler(+[](const char* site) {
    throw util::fault_crash(std::string("injected kill at ") + site);
  });
  util::configure_faults("sweep.trial:crash:hit=3");

  CoordinatorReport report;
  std::thread coordinator([&] { report = serve_grid(grid, options); });
  const std::uint16_t port = port_promise.get_future().get();

  const FleetRun doomed = run_fleet(grid, port, 1);
  EXPECT_EQ(doomed.killed, 1);
  const FleetRun survivors = run_fleet(grid, port, 2);
  coordinator.join();

  EXPECT_EQ(survivors.killed, 0);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.trials_failed, 0u);
  EXPECT_EQ(report.leases_disconnected, 1u);
  std::size_t landed = 0;
  for (const WorkerReport& w : survivors.reports) landed += w.trials_completed;
  EXPECT_EQ(landed, report.trials_total);  // the dead run's 4 included
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

// serve.lease_expire poisons the first grant — a run of 3 of the 12
// trials: its completion is rejected (lease_lost at the worker), the
// whole run is reclaimed on the next tick and re-granted — no TTL timing
// involved — and the bytes still match.
TEST_F(Serve, PoisonedRunIsRejectedReclaimedAndRegranted) {
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
  EXPECT_EQ(report.leases_expired, 1u);  // the poisoned run
  EXPECT_EQ(report.completions_rejected, 1u);
  EXPECT_EQ(worker_report.leases_lost, 1u);
  EXPECT_EQ(worker_report.trials_completed, report.trials_total);
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

// A trial whose local retry budget runs out inside a run: the worker lands
// the other three trials of its run of 4 with one complete and hands the
// failed one back with one requeue; the coordinator re-grants it and it
// lands on a later lease with the exact same bytes.
TEST_F(Serve, WorkerRequeueInsideARunReturnsOnlyTheFailedTrial) {
  const sweep::SweepGrid grid = load_balancing_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_requeue_ref.manifest");

  const std::string manifest = temp_path("serve_requeue_fleet.manifest");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  const CoordinatorOptions options =
      coordinator_options(manifest, port_promise);

  // The run's 2nd trial fails; with retry.max_attempts=1 the worker has
  // no local retry left and must requeue it.
  util::configure_faults("sweep.trial:err:hit=2");

  CoordinatorReport report;
  std::thread coordinator([&] { report = serve_grid(grid, options); });
  const std::uint16_t port = port_promise.get_future().get();

  WorkerOptions worker;
  worker.port = port;
  worker.name = "requeuer";
  worker.retry.max_attempts = 1;
  const WorkerReport worker_report = run_worker(grid, worker);
  coordinator.join();

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.requeues, 1u);
  EXPECT_EQ(worker_report.trials_requeued, 1u);
  EXPECT_EQ(worker_report.trials_completed, report.trials_total);
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

// Run sizing at both ends: one worker on 16 trials takes runs, so it
// needs fewer leases than trials; three workers on 4 trials get one trial
// per lease (the degenerate run). Both endings match the local bytes.
TEST_F(Serve, RunLengthFollowsPendingTrialsPerWorker) {
  struct Case {
    const char* name;
    sweep::SweepGrid grid;
    std::size_t workers;
  };
  sweep::SweepGrid few = load_balancing_grid();
  few.ns = {200};
  few.protocols = sweep::parse_protocol_list("imitation");
  few.trials = 4;
  const std::vector<Case> cases = {
      {"one-worker", load_balancing_grid(), 1},
      {"few-trials", few, 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string reference = reference_manifest_bytes(
        c.grid, std::string("serve_size_ref_") + c.name + ".manifest");
    const std::string manifest =
        temp_path(std::string("serve_size_") + c.name + ".manifest");
    std::remove(manifest.c_str());
    std::promise<std::uint16_t> port_promise;
    const CoordinatorOptions options =
        coordinator_options(manifest, port_promise);
    CoordinatorReport report;
    std::thread coordinator([&] { report = serve_grid(c.grid, options); });
    const std::uint16_t port = port_promise.get_future().get();
    run_fleet(c.grid, port, c.workers);
    coordinator.join();

    EXPECT_TRUE(report.complete);
    if (c.workers == 1) {
      EXPECT_LT(report.leases_granted, report.trials_total);
    } else {
      EXPECT_EQ(report.leases_granted, report.trials_total);
    }
    EXPECT_EQ(persist::slurp_file(manifest), reference);
    std::remove(manifest.c_str());
  }
}

// A manifest.flush failure at the first run's flush (hit 1 is the new
// manifest's header): AppendFile recovery keeps every byte, the run is
// acked, and the ending matches the local run.
TEST_F(Serve, ManifestFlushFaultInsideARunKeepsTheBytes) {
  const sweep::SweepGrid grid = load_balancing_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_flush_ref.manifest");

  const std::string manifest = temp_path("serve_flush_fleet.manifest");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  const CoordinatorOptions options =
      coordinator_options(manifest, port_promise);

  const std::int64_t retries_before = obs::persist_io_totals().write_retries;
  util::configure_faults("manifest.flush:err:hit=2");

  CoordinatorReport report;
  std::thread coordinator([&] { report = serve_grid(grid, options); });
  const std::uint16_t port = port_promise.get_future().get();
  WorkerOptions worker;
  worker.port = port;
  const WorkerReport worker_report = run_worker(grid, worker);
  coordinator.join();

  EXPECT_GE(obs::persist_io_totals().write_retries - retries_before, 1);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(worker_report.trials_completed, report.trials_total);
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

// No ack precedes the flush: a coordinator killed at its first run's
// flush (crash fault, throwing handler) closes the connection without
// acking — the worker never hears that records landed which may not be on
// disk — and a restarted coordinator resumes from the manifest to the
// local run's bytes.
TEST_F(Serve, CoordinatorKilledAtFlushNeverAcksTheRun) {
  const sweep::SweepGrid grid = load_balancing_grid();
  persist::ManifestContents local;
  const std::string reference =
      reference_manifest_bytes(grid, "serve_noack_ref.manifest", &local);

  const std::string manifest = temp_path("serve_noack_fleet.manifest");
  std::remove(manifest.c_str());
  {
    std::promise<std::uint16_t> port_promise;
    const CoordinatorOptions options =
        coordinator_options(manifest, port_promise);
    util::set_fault_crash_handler(+[](const char* site) {
      throw util::fault_crash(std::string("injected kill at ") + site);
    });
    util::configure_faults("manifest.flush:crash:hit=2");
    std::atomic<bool> killed{false};
    std::thread coordinator([&] {
      try {
        serve_grid(grid, options);
      } catch (const util::fault_crash&) {
        killed = true;
      }
    });
    const std::uint16_t port = port_promise.get_future().get();

    // A raw worker: handshake, lease a run, land it from the local
    // outcomes, and read the coordinator's answer.
    Socket s = tcp_connect("127.0.0.1", port);
    set_recv_timeout(s, 10.0);
    const auto rpc = [&](const std::string& payload) -> std::string {
      send_frame(s, encode_frame(payload));
      FrameReader reader;
      char buffer[4096];
      for (;;) {
        if (auto frame = reader.next()) return *frame;
        const std::size_t got = read_some(s, buffer, sizeof(buffer));
        if (got == 0) return "";  // EOF, no frame
        reader.feed(std::string_view(buffer, got));
      }
    };
    const Message welcome(
        rpc(msg_hello(persist::grid_fingerprint(grid), "raw", canary_bits())));
    ASSERT_EQ(welcome.type(), MsgType::kWelcome);
    const Grant grant = decode_grant(Message(rpc(msg_lease(-1))));
    EXPECT_EQ(grant.count, 4u);
    std::vector<TrialRecord> records;
    for (std::uint32_t t = grant.trial; t < grant.trial + grant.count; ++t) {
      records.push_back({t, local.completed.at({grant.cell, t})});
    }
    EXPECT_EQ(rpc(msg_complete(grant.lease_id, grant.cell, records)), "");
    s.close();
    coordinator.join();
    EXPECT_TRUE(killed);
  }
  util::clear_faults();
  util::set_fault_crash_handler(nullptr);
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
  }
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
