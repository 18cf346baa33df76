// cid_sweep — parallel scenario-sweep driver.
//
//   cid_sweep --scenario NAME [--grid "n=1000:100000:log"]
//             [--protocols imitation,exploration,combined[:P]]
//             [--trials T] [--threads K] [--seed S]
//             [--rounds N] [--check-interval C]
//             [--stop stable|nash|deltaeps:D,E]
//             [--engine aggregate|perplayer]
//             [--param key=value ...] [--lambda L]
//             [--out PREFIX] [--list]
//             [--manifest PATH | --resume PATH] [--checkpoint-every K]
//             [--max-new-trials N]
//             [--metrics PATH [--metrics-every N]] [--metrics-prom PATH]
//             [--telemetry PATH [--telemetry-every N]]
//             [--trace PATH [--trace-sample K]]
//             [--progress [SEC]]
//             [--trial-retries N] [--watchdog SEC]
//             [--shard I/K] [--inject-faults SPEC]
//             [--connect HOST:PORT [--worker-name S]]
//
// Expands the grid scenario × protocol × n, runs every cell for --trials
// independent repetitions across --threads workers (per-trial results are
// bitwise identical for every thread count), prints the per-cell summary
// table, and with --out writes PREFIX_{trials,cells}.{csv,jsonl}.
//
// Resumable sweeps (src/persist/manifest.hpp): with --manifest, each
// completed trial is appended to a checksummed manifest; rerunning the
// same grid with the same manifest skips completed trials and merges their
// recorded outcomes, so an interrupted grid continues where it stopped and
// the final outputs are byte-identical to an uninterrupted run's at every
// thread count. --resume is --manifest that insists the file exists.
//
// Observability (src/obs/): --metrics streams JSONL (per-trial rows in
// deterministic trial order plus registry snapshots), --metrics-prom
// writes a Prometheus text exposition, --telemetry captures the tagged
// per-round convergence series (one "round"/"final" record per sampled
// round per trial plus a per-trial "summary" row), --trace records a
// Chrome trace-event timeline of the worker pool and sampled engine
// phases, --progress prints a live heartbeat to stderr. All are pure
// observation — trial outcomes, manifests, and CSV/JSONL outputs stay
// byte-identical with them on or off, and none consume RNG.
//
// Robustness (src/util/fault.hpp, src/sweep/shard.hpp): a throwing trial
// is retried up to --trial-retries attempts with a fresh copy of its Rng
// stream (a successful retry reproduces the identical result); trials
// that exhaust the budget are reported and cid_sweep exits 3 — they never
// kill the sweep. --watchdog flags stuck trials on stderr. --shard I/K
// runs only shard I of K (each shard writes its own manifest;
// tools/cid_merge.cpp merges them into the canonical unsharded file).
// --inject-faults arms the deterministic fault-injection layer used by
// the robustness tests and CI.
//
// Worker mode (src/serve/worker.hpp): --connect HOST:PORT turns this
// process into a lease-protocol worker for a cid_serve coordinator
// running the SAME grid flags (the handshake compares grid fingerprints).
// Trials are leased in runs of up to 256 consecutive trials of one cell
// (the coordinator sizes each run from the pending work per connected
// worker), run in trial order through the identical retry/backoff
// machinery with the identical derive_trial_rng streams, and landed with
// one complete per run plus one push of the worker's
// metrics_version-stamped registry snapshot; the coordinator owns the
// manifest, so --manifest/--out/--shard do not combine with --connect.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "cid/cid.hpp"
#include "serve/net.hpp"
#include "serve/worker.hpp"
#include "sweep/shard.hpp"
#include "util/fault.hpp"

namespace {

using namespace cid;

[[noreturn]] void usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: cid_sweep --scenario NAME [options]\n"
      "  --scenario NAME   scenario to sweep (--list shows all)\n"
      "  --grid SPEC       n axis: A:B:log[:K] | A:B:lin[:K] | v1,v2,...\n"
      "                    (default 1000:100000:log)\n"
      "  --protocols CSV   imitation,exploration,combined[:P]\n"
      "                    (default imitation)\n"
      "  --trials T        independent trials per cell, default 8\n"
      "  --threads K       worker threads, 0 = hardware, default 0\n"
      "  --seed S          master seed, default 1\n"
      "  --rounds N        round cap per trial, default 100000\n"
      "  --check-interval C  stop-check stride, default 1\n"
      "  --stop C          stable | nash | deltaeps:D,E (default "
      "deltaeps:0.1,0.1;\n"
      "                    asymmetric scenarios check deltaeps as the\n"
      "                    stricter class-wise nu-stability)\n"
      "  --engine E        aggregate (default) | perplayer\n"
      "  --param K=V       scenario parameter (repeatable)\n"
      "  --lambda L        protocol migration scale, default 0.25\n"
      "  --out PREFIX      write PREFIX_{trials,cells}.{csv,jsonl}\n"
      "  --list            list scenarios and exit\n"
      "  --manifest PATH   resumable sweep: record completed trials in a\n"
      "                    checksummed manifest; skip them on rerun\n"
      "  --resume PATH     like --manifest, but the file must exist\n"
      "  --checkpoint-every K  flush the manifest every K trials\n"
      "                    (default 1: every completed trial durable)\n"
      "  --rotate-bytes N  rotate the manifest to PATH.<seq> segments once\n"
      "                    the active file exceeds N bytes (the whole\n"
      "                    chain is merged on load/resume)\n"
      "  --max-new-trials N    run at most N new trials, then exit\n"
      "                    incomplete (resume later with --resume)\n"
      "  --metrics PATH    append-only JSONL metrics stream: one \"trial\"\n"
      "                    record per trial (deterministic trial order)\n"
      "                    plus \"snapshot\" records of the counter registry\n"
      "  --metrics-every N also snapshot the live registry every N\n"
      "                    completed trials (default 0 = final snapshot\n"
      "                    only; requires --metrics)\n"
      "  --metrics-prom PATH  write the final registry state as\n"
      "                    Prometheus text exposition (version 0.0.4)\n"
      "  --telemetry PATH  write the tagged per-round convergence series\n"
      "                    (telemetry_version JSONL: round/final records\n"
      "                    per trial in deterministic trial order, plus a\n"
      "                    \"summary\" row per trial with rounds_to_eps and\n"
      "                    phi_half_life). Zero RNG; resumed trials carry\n"
      "                    no records (their rounds were not re-run)\n"
      "  --telemetry-every N  sample every N-th round, N >= 1 (default 1;\n"
      "                    requires --telemetry)\n"
      "  --trace PATH      write a Chrome trace-event JSON timeline:\n"
      "                    per-worker sweep.trial spans (with cell args)\n"
      "                    and sampled engine phase spans. Load in\n"
      "                    chrome://tracing or Perfetto\n"
      "  --trace-sample K  sample engine phase spans every K-th round,\n"
      "                    K >= 1 (default 64; requires --trace)\n"
      "  --progress [SEC]  live heartbeat on stderr every SEC seconds\n"
      "                    (default 5): trials done/total, rounds/s, ETA,\n"
      "                    per-cell breakdown. Observation only — outputs\n"
      "                    are byte-identical with or without it\n"
      "  --trial-retries N total attempts per trial before it is recorded\n"
      "                    as permanently failed (default 3; failures are\n"
      "                    isolated — the sweep finishes and exits 3)\n"
      "  --watchdog SEC    flag any trial still running after SEC seconds\n"
      "                    on stderr (observation only; default off)\n"
      "  --shard I/K       run only shard I of K (0 <= I < K): a\n"
      "                    deterministic hash of (cell, trial) picks each\n"
      "                    trial's shard, so the K shards partition the\n"
      "                    grid without coordination. Requires --manifest;\n"
      "                    merge the shard manifests with cid_merge\n"
      "  --inject-faults SPEC  arm the deterministic fault-injection layer\n"
      "                    (tests/CI): \"seed=S;SITE:KIND[:hit=N][:every=N]"
      "\n"
      "                    [:p=P][:count=K]\", kinds err|short|enospc|crash"
      "\n"
      "                    at sites like manifest.append, eventlog.block\n"
      "  --connect HOST:PORT  worker mode: lease trials from a cid_serve\n"
      "                    coordinator serving the SAME grid flags (the\n"
      "                    handshake checks the grid fingerprint) and\n"
      "                    stream outcomes + metrics back. The coordinator\n"
      "                    owns the manifest: --manifest/--resume/--shard/\n"
      "                    --out do not combine with --connect, and\n"
      "                    --max-new-trials bounds how many trials this\n"
      "                    worker lands (each lease asks for at most the\n"
      "                    rest of it)\n"
      "  --worker-name S   name reported to the coordinator (diagnostics;\n"
      "                    default cid_sweep)\n");
  std::exit(error == nullptr ? 0 : 2);
}

void list_scenarios() {
  std::printf("registered scenarios:\n");
  for (const sweep::Scenario& s : sweep::all_scenarios()) {
    std::printf("  %-18s %s\n", s.name.c_str(), s.summary.c_str());
  }
}

struct Options {
  sweep::SweepGrid grid;
  sweep::SweepOptions run;
  std::string out_prefix;
  bool resume_required = false;
  std::string metrics_path;
  std::int64_t metrics_every = 0;
  std::string prom_path;
  std::string telemetry_path;
  std::optional<std::int64_t> telemetry_every;  // unset: 1
  std::string trace_path;
  std::optional<std::int64_t> trace_sample;  // unset: the library default
  std::string fault_spec;
  std::string connect;  // HOST:PORT — worker mode when non-empty
  std::string worker_name;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  sweep::GridFlags flags;
  opt.run.threads = 0;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing value for flag");
    return argv[++i];
  };
  // A whole-number flag value in [min, max]; anything else exits 2.
  auto int_value = [&](int& i, std::int64_t min,
                       std::int64_t max =
                           std::numeric_limits<std::int64_t>::max()) {
    const std::string flag = argv[i];
    return sweep::parse_int_flag(flag, need_value(i), min, max);
  };
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr double kSecondsMax = 1e6;  // converted to int64 nanoseconds
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") usage(nullptr);
    else if (sweep::parse_grid_flag(argc, argv, i, flags)) continue;
    else if (flag == "--list") {
      list_scenarios();
      std::exit(0);
    } else if (flag == "--threads") {
      opt.run.threads = static_cast<int>(int_value(i, 0, kIntMax));
    } else if (flag == "--manifest") {
      opt.run.manifest_path = need_value(i);
    } else if (flag == "--resume") {
      opt.run.manifest_path = need_value(i);
      opt.resume_required = true;
    } else if (flag == "--checkpoint-every") {
      opt.run.manifest_flush_every = int_value(i, 1);
    } else if (flag == "--rotate-bytes") {
      opt.run.manifest_rotate_bytes =
          static_cast<std::uint64_t>(int_value(i, 0));
    } else if (flag == "--max-new-trials") {
      opt.run.max_new_trials = int_value(i, 0);
    } else if (flag == "--metrics") {
      opt.metrics_path = need_value(i);
    } else if (flag == "--metrics-every") {
      opt.metrics_every = int_value(i, 0);
    } else if (flag == "--metrics-prom") {
      opt.prom_path = need_value(i);
    } else if (flag == "--telemetry") {
      opt.telemetry_path = need_value(i);
    } else if (flag == "--telemetry-every") {
      opt.telemetry_every = int_value(i, 1);
    } else if (flag == "--trace") {
      opt.trace_path = need_value(i);
    } else if (flag == "--trace-sample") {
      opt.trace_sample = int_value(i, 1);
    } else if (flag == "--progress") {
      // Optional value: "--progress 2.5" or bare "--progress" (5 s).
      opt.run.progress_every_seconds = 5.0;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        opt.run.progress_every_seconds =
            sweep::parse_double_flag(flag, argv[++i], 0.0, kSecondsMax);
      }
    } else if (flag == "--trial-retries") {
      opt.run.retry.max_attempts = static_cast<int>(int_value(i, 1, kIntMax));
    } else if (flag == "--watchdog") {
      opt.run.watchdog_seconds =
          sweep::parse_double_flag(flag, need_value(i), 0.0, kSecondsMax);
    } else if (flag == "--shard") {
      const sweep::ShardSpec shard = sweep::parse_shard_spec(need_value(i));
      opt.run.shard_index = shard.index;
      opt.run.shard_count = shard.count;
    } else if (flag == "--inject-faults") {
      opt.fault_spec = need_value(i);
    } else if (flag == "--connect") {
      opt.connect = need_value(i);
    } else if (flag == "--worker-name") {
      opt.worker_name = need_value(i);
    } else if (flag == "--out") opt.out_prefix = need_value(i);
    else usage(("unknown flag: " + flag).c_str());
  }
  opt.grid = sweep::finish_grid_flags(flags);
  if (opt.run.manifest_rotate_bytes > 0 && opt.run.manifest_path.empty()) {
    usage("--rotate-bytes requires --manifest or --resume");
  }
  if (opt.resume_required &&
      !std::filesystem::exists(opt.run.manifest_path)) {
    usage("--resume: manifest file does not exist (use --manifest to "
          "start a fresh resumable sweep)");
  }
  if (opt.metrics_every > 0 && opt.metrics_path.empty()) {
    usage("--metrics-every requires --metrics");
  }
  if (opt.telemetry_every.has_value() && opt.telemetry_path.empty()) {
    usage("--telemetry-every requires --telemetry");
  }
  if (opt.trace_sample.has_value() && opt.trace_path.empty()) {
    usage("--trace-sample requires --trace");
  }
  if (opt.run.progress_every_seconds < 0.0) {
    usage("--progress seconds must be >= 0");
  }
  if (opt.run.watchdog_seconds < 0.0) usage("--watchdog must be >= 0");
  if (opt.run.shard_count > 1) {
    if (opt.run.manifest_path.empty()) {
      usage("--shard requires --manifest (each shard persists its own\n"
            "manifest; cid_merge combines them)");
    }
    if (!opt.out_prefix.empty()) {
      usage("--out is not supported with --shard: merge the shard\n"
            "manifests with cid_merge, then rerun unsharded with --resume");
    }
  }
  if (!opt.connect.empty()) {
    // Worker mode streams outcomes to the coordinator, which owns every
    // output artifact; local persistence/output flags would silently
    // produce partial files, so they are rejected outright.
    if (!opt.run.manifest_path.empty()) {
      usage("--connect: the coordinator owns the manifest (drop "
            "--manifest/--resume)");
    }
    if (opt.run.shard_count > 1) usage("--connect does not combine with --shard");
    if (!opt.out_prefix.empty()) usage("--connect does not combine with --out");
    if (!opt.metrics_path.empty() || !opt.prom_path.empty() ||
        !opt.telemetry_path.empty() || !opt.trace_path.empty()) {
      usage("--connect: metrics stream to the coordinator's fleet "
            "endpoint (drop --metrics/--metrics-prom/--telemetry/--trace)");
    }
  }
  if (!opt.worker_name.empty() && opt.connect.empty()) {
    usage("--worker-name requires --connect");
  }
  // Parse and arm the fault schedule here so a bad spec exits 2 like any
  // other flag-value error.
  if (!opt.fault_spec.empty()) util::configure_faults(opt.fault_spec);
  // Per-trial engine metering is opt-in: only pay for the phase timers
  // when something will report them.
  if (!opt.metrics_path.empty() || !opt.prom_path.empty()) {
    opt.grid.dynamics.collect_metrics = true;
  }
  // Telemetry rides inside the trials (each TrialStats carries its
  // series); deliberately NOT part of the manifest fingerprint, like
  // collect_metrics — a telemetry-capturing rerun resumes plain sweeps.
  if (!opt.telemetry_path.empty()) {
    opt.grid.dynamics.telemetry_every = opt.telemetry_every.value_or(1);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const sweep::UsageError& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    // Bad flag *values* (grid/protocol/param syntax) land here; bad flag
    // *shapes* exit through usage().
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    if (!opt.connect.empty()) {
      const auto [host, port] = serve::parse_host_port(opt.connect);
      serve::WorkerOptions worker;
      worker.host = host;
      worker.port = port;
      worker.name = opt.worker_name.empty() ? "cid_sweep" : opt.worker_name;
      worker.retry = opt.run.retry;
      worker.max_trials = opt.run.max_new_trials;
      std::printf("worker %s: leasing trials from %s:%u\n",
                  worker.name.c_str(), host.c_str(), port);
      const serve::WorkerReport report = serve::run_worker(opt.grid, worker);
      std::printf(
          "worker %s: completed %zu trial(s) (%lld retried), requeued %zu, "
          "%zu lease(s) lost, %zu reconnect(s)%s\n",
          worker.name.c_str(), report.trials_completed,
          static_cast<long long>(report.trial_retries),
          report.trials_requeued, report.leases_lost, report.reconnects,
          report.drained ? "; grid drained" : "");
      if (util::faults_armed()) {
        std::printf("faults injected: %lld\n",
                    static_cast<long long>(util::faults_injected()));
      }
      // Requeued trials exhausted THIS worker's retry budget — another
      // worker may still land them, but this process degraded: exit 3
      // like a local sweep with permanent failures.
      return report.trials_requeued > 0 ? 3 : 0;
    }

    const auto instance =
        sweep::make_scenario(opt.grid.scenario, opt.grid.ns.front());
    std::printf("sweep: %s\n", instance->describe().c_str());
    std::printf(
        "grid: %zu n-values x %zu protocols x %d trials = %zu trial runs, "
        "%d threads\n\n",
        opt.grid.ns.size(), opt.grid.protocols.size(), opt.grid.trials,
        opt.grid.ns.size() * opt.grid.protocols.size() *
            static_cast<std::size_t>(opt.grid.trials),
        sweep::resolve_threads(opt.run.threads));
    if (opt.run.shard_count > 1) {
      std::printf("shard %d/%d: running only this shard's trials\n",
                  opt.run.shard_index, opt.run.shard_count);
    }

    // Observability plumbing. The registry is filled twice: the optional
    // live hook accumulates in completion order for intermediate
    // snapshots, then after the run it is rebuilt deterministically from
    // the result (same totals, plus manifest-resumed trials).
    const obs::PersistIoTotals io_before = obs::persist_io_totals();
    obs::MetricsRegistry registry;
    const auto trial_rounds_hist = registry.histogram(
        "sweep.trial_rounds", {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6});
    std::unique_ptr<obs::JsonlSink> sink;
    if (!opt.metrics_path.empty()) {
      sink = std::make_unique<obs::JsonlSink>(opt.metrics_path);
    }
    if (sink != nullptr && opt.metrics_every > 0) {
      opt.run.on_trial_done = [&](const sweep::TrialRow& row,
                                  const sweep::TrialStats& stats,
                                  std::size_t done, std::size_t total) {
        registry.merge_engine("", stats.engine);
        registry.add_named("sweep.latency_evals", stats.latency_evals);
        registry.add_named("sweep.ran_rounds", stats.ran_rounds);
        registry.observe(trial_rounds_hist, row.outcome.rounds);
        if (done % static_cast<std::size_t>(opt.metrics_every) == 0 &&
            done < total) {
          sink->write(registry.snapshot());
        }
      };
    }
    if (opt.run.progress_every_seconds > 0.0) {
      opt.run.progress = [](const obs::ProgressSnapshot& snapshot) {
        std::fprintf(stderr, "%s\n",
                     obs::format_progress(snapshot).c_str());
      };
    }

    // Arm tracing before the pool spins up so worker registration and the
    // first trials land inside the capture window.
    if (!opt.trace_path.empty()) {
      if (opt.trace_sample.has_value()) {
        obs::set_trace_engine_sample_interval(*opt.trace_sample);
      }
      obs::start_tracing();
    }

    const WallTimer timer;
    const sweep::SweepResult result = sweep::run_sweep(opt.grid, opt.run);
    const double elapsed = timer.seconds();

    auto print_persist_io = [&]() {
      const obs::PersistIoTotals io = obs::persist_io_totals();
      const std::int64_t bytes = io.bytes_written - io_before.bytes_written;
      const std::int64_t writes = io.writes - io_before.writes;
      if (writes == 0) return;
      std::printf(
          "persist io: %lld bytes in %lld writes, %lld fsyncs, "
          "%lld fflushes\n",
          static_cast<long long>(bytes), static_cast<long long>(writes),
          static_cast<long long>(io.fsyncs - io_before.fsyncs),
          static_cast<long long>(io.fflushes - io_before.fflushes));
    };

    // Final metrics outputs: rebuild the registry from the deterministic
    // result, append per-trial rows in trial order, then the closing
    // snapshot (and the Prometheus exposition, when asked for).
    auto write_metrics_outputs = [&]() {
      if (sink == nullptr && opt.prom_path.empty()) return;
      registry.reset_values();
      sweep::add_trial_totals(registry, result,
                              opt.grid.dynamics.collect_metrics);
      registry.add_named("sweep.trials_total",
                         static_cast<std::int64_t>(result.trials.size()));
      registry.add_named("sweep.trials_run",
                         static_cast<std::int64_t>(result.ran_trials));
      registry.add_named(
          "sweep.trials_resumed",
          static_cast<std::int64_t>(result.resumed_trials));
      registry.add_named("sweep.queue_wait_ns", result.queue_wait_ns);
      registry.add_named("sweep.trial_run_ns", result.trial_run_ns);
      registry.add_named("sweep.instance_build_ns", result.instance_build_ns);
      registry.add_named("sweep.trial_failures",
                         static_cast<std::int64_t>(result.failures.size()));
      for (const sweep::TrialRow& row : result.trials) {
        registry.observe(trial_rounds_hist, row.outcome.rounds);
      }
      const obs::PersistIoTotals io = obs::persist_io_totals();
      registry.add_named("persist.bytes_written",
                         io.bytes_written - io_before.bytes_written);
      registry.add_named("persist.writes", io.writes - io_before.writes);
      registry.add_named("persist.fsyncs", io.fsyncs - io_before.fsyncs);
      registry.add_named("persist.fflushes",
                         io.fflushes - io_before.fflushes);
      registry.add_named("persist.write_failures",
                         io.write_failures - io_before.write_failures);
      registry.add_named("persist.write_retries",
                         io.write_retries - io_before.write_retries);
      if (util::faults_armed()) {
        registry.add_named("fault.injected", util::faults_injected());
      }
      if (sink != nullptr) {
        for (std::size_t i = 0; i < result.trials.size(); ++i) {
          const sweep::TrialRow& row = result.trials[i];
          const sweep::TrialStats& stats = result.stats[i];
          obs::JsonObject record = sink->record("trial");
          record.num("cell", static_cast<std::int64_t>(row.key.cell))
              .str("protocol", row.key.protocol)
              .num("n", row.key.n)
              .num("trial", static_cast<std::int64_t>(row.trial))
              .num("rounds", row.outcome.rounds)
              .num("converged",
                   static_cast<std::int64_t>(row.outcome.converged))
              .num("movers", row.outcome.movers)
              .num("potential", row.outcome.potential)
              .num("social_cost", row.outcome.social_cost)
              .num("latency_evals", stats.latency_evals)
              .num("ran_rounds", stats.ran_rounds)
              .num("engine_rows_filled", stats.engine.rows_filled)
              .num("engine_rows_pruned", stats.engine.rows_pruned)
              .num("engine_rows_replayed", stats.engine.rows_replayed);
          sink->write_line(std::move(record));
        }
        sink->write(registry.snapshot());
        sink->close();
        std::printf("wrote %s (%llu bytes)\n", sink->path().c_str(),
                    static_cast<unsigned long long>(sink->bytes_written()));
      }
      if (!opt.prom_path.empty()) {
        obs::write_prometheus(opt.prom_path, registry.snapshot());
        std::printf("wrote %s\n", opt.prom_path.c_str());
      }
    };

    // Tagged multi-trial telemetry stream: every trial's sampled series in
    // deterministic trial order (result.stats is index-aligned with
    // result.trials), each line tagged with its cell identity, followed by
    // one "summary" row per trial. Resumed trials merged from a manifest
    // carry no records — their rounds were not re-executed.
    auto write_telemetry_outputs = [&]() {
      if (opt.telemetry_path.empty()) return;
      std::ofstream out(opt.telemetry_path,
                        std::ios::binary | std::ios::trunc);
      if (!out) {
        throw std::runtime_error("cannot open telemetry path: " +
                                 opt.telemetry_path);
      }
      std::uint64_t bytes = 0;
      std::size_t recorded_trials = 0;
      auto identity = [&](obs::JsonObject& line, std::string_view kind,
                          const sweep::TrialRow& row) -> obs::JsonObject& {
        return line
            .num("telemetry_version", std::int64_t{obs::kTelemetryVersion})
            .str("kind", kind)
            .num("cell", static_cast<std::int64_t>(row.key.cell))
            .str("protocol", row.key.protocol)
            .num("n", row.key.n)
            .num("trial", static_cast<std::int64_t>(row.trial));
      };
      auto emit = [&](obs::JsonObject&& line) {
        const std::string text = line.take() + "\n";
        out.write(text.data(),
                  static_cast<std::streamsize>(text.size()));
        bytes += text.size();
      };
      for (std::size_t i = 0; i < result.trials.size(); ++i) {
        const sweep::TrialRow& row = result.trials[i];
        const sweep::TrialStats& stats = result.stats[i];
        if (stats.telemetry.empty()) continue;
        ++recorded_trials;
        for (const obs::TelemetryRecord& rec : stats.telemetry) {
          obs::JsonObject line;
          identity(line, rec.final_record ? "final" : "round", row);
          obs::append_telemetry_fields(line, rec);
          emit(std::move(line));
        }
        const obs::TelemetrySummary summary =
            obs::summarize_telemetry(stats.telemetry);
        obs::JsonObject line;
        identity(line, "summary", row)
            .num("rounds", row.outcome.rounds)
            .num("converged",
                 static_cast<std::int64_t>(row.outcome.converged))
            .num("phi_first", summary.phi_first)
            .num("phi_last", summary.phi_last)
            .num("rounds_to_eps", summary.rounds_to_eps)
            .num("phi_half_life", summary.phi_half_life);
        emit(std::move(line));
      }
      out.flush();
      if (!out) {
        throw std::runtime_error("short write to telemetry path: " +
                                 opt.telemetry_path);
      }
      out.close();
      obs::record_persist_write(bytes, 0);
      std::printf("wrote %s (%llu bytes, series for %zu of %zu trials)\n",
                  opt.telemetry_path.c_str(),
                  static_cast<unsigned long long>(bytes), recorded_trials,
                  result.trials.size());
    };

    // Drain the span buffers last so the telemetry/metrics writes above
    // appear in the timeline via their persist hooks.
    auto write_trace_output = [&]() {
      if (opt.trace_path.empty()) return;
      const std::size_t events = obs::stop_tracing_to(opt.trace_path);
      std::printf("wrote %s (%zu trace events)\n", opt.trace_path.c_str(),
                  events);
    };

    // Kernel throughput over the trials actually executed this invocation
    // (resumed trials merged from a manifest were not re-measured).
    auto print_throughput = [&]() {
      if (result.ran_trials == 0 || elapsed <= 0.0) return;
      std::printf(
          "throughput: %.0f rounds/s over %zu trials; %lld latency evals "
          "(%.2f per round)\n",
          static_cast<double>(result.ran_rounds) / elapsed,
          result.ran_trials,
          static_cast<long long>(result.latency_evals),
          result.ran_rounds == 0
              ? 0.0
              : static_cast<double>(result.latency_evals) /
                    static_cast<double>(result.ran_rounds));
    };

    // Robustness summary. Returns the process exit code: 0 when every
    // trial landed (retried-but-recovered trials are fine), 3 when any
    // trial permanently failed or the manifest was disabled mid-run —
    // loud in the summary AND in the exit status, so wrapping scripts
    // cannot mistake a degraded sweep for a clean one.
    auto report_failures = [&]() -> int {
      if (result.trial_retries > 0) {
        std::printf("trial retries: %lld transient failure(s) recovered "
                    "by retry\n",
                    static_cast<long long>(result.trial_retries));
      }
      if (result.watchdog_flags > 0) {
        std::printf("watchdog: %lld trial(s) flagged as slow/stuck\n",
                    static_cast<long long>(result.watchdog_flags));
      }
      if (util::faults_armed()) {
        std::printf("faults injected: %lld\n",
                    static_cast<long long>(util::faults_injected()));
      }
      int code = 0;
      if (!result.failures.empty()) {
        std::printf("sweep FAILED: %zu trial(s) permanently failed "
                    "(excluded from aggregation); exiting 3\n",
                    result.failures.size());
        for (const sweep::TrialFailure& failure : result.failures) {
          std::printf("  cell %d (%s, %s, n=%lld) trial %d: %s "
                      "(after %d attempts)\n",
                      failure.key.cell, failure.key.scenario.c_str(),
                      failure.key.protocol.c_str(),
                      static_cast<long long>(failure.key.n), failure.trial,
                      failure.error.c_str(), failure.attempts);
        }
        code = 3;
      }
      if (result.manifest_degraded) {
        std::printf("manifest DEGRADED: %s — the on-disk manifest is "
                    "missing trials (a resume would re-run them); "
                    "exiting 3\n",
                    result.manifest_error.c_str());
        code = 3;
      }
      return code;
    };

    if (result.resumed_trials > 0) {
      std::printf("resumed %zu completed trials from %s\n",
                  result.resumed_trials, opt.run.manifest_path.c_str());
    }
    if (!result.complete) {
      std::printf(
          "ran %zu new trials in %.3f s; sweep INCOMPLETE "
          "(%zu of %zu trials done) — continue with --resume %s\n",
          result.ran_trials, elapsed,
          result.resumed_trials + result.ran_trials, result.trials.size(),
          opt.run.manifest_path.c_str());
      print_throughput();
      write_telemetry_outputs();
      print_persist_io();
      write_metrics_outputs();
      write_trace_output();
      return report_failures();
    }

    if (result.sharded) {
      // Cells are not aggregated in sharded mode (each shard sees only
      // its own trials); the shard's manifest is the product.
      std::printf(
          "shard %d/%d: ran %zu trials (resumed %zu) in %.3f s; merge the "
          "shard manifests with cid_merge to recover the full sweep\n",
          opt.run.shard_index, opt.run.shard_count, result.ran_trials,
          result.resumed_trials, elapsed);
      print_throughput();
      write_telemetry_outputs();
      print_persist_io();
      write_metrics_outputs();
      write_trace_output();
      return report_failures();
    }

    Table table({"cell", "protocol", "n", "rounds", "converged",
                 "mean potential", "mean social cost", "wall s"});
    for (const sweep::CellRow& cell : result.cells) {
      table.row()
          .cell(static_cast<std::int64_t>(cell.key.cell))
          .cell(cell.key.protocol)
          .cell(cell.key.n)
          .cell_pm(cell.rounds.mean, cell.rounds_sem, 1)
          .cell(cell.fraction_converged, 2)
          .cell(cell.mean_potential, 1)
          .cell(cell.mean_social_cost, 1)
          .cell(cell.wall_seconds, 3);
    }
    table.print("per-cell summary (" + opt.grid.scenario.name + ")");
    std::printf("\nswept %zu trials in %.3f s\n", result.trials.size(),
                elapsed);
    print_throughput();

    if (!opt.out_prefix.empty()) {
      std::uint64_t text_bytes = 0;
      for (const sweep::WrittenFile& file :
           sweep::write_sweep_outputs(opt.out_prefix, result)) {
        std::printf("wrote %s (%llu bytes)\n", file.path.c_str(),
                    static_cast<unsigned long long>(file.bytes));
        text_bytes += file.bytes;
      }
      if (!opt.run.manifest_path.empty()) {
        // Compressed-vs-uncompressed observability: the binary manifest
        // chain is the compact representation of the same trial set.
        std::uint64_t manifest_bytes = 0;
        std::error_code ec;
        auto segments = persist::chain_segments(opt.run.manifest_path);
        segments.push_back(opt.run.manifest_path);
        for (const std::string& segment : segments) {
          const auto size = std::filesystem::file_size(segment, ec);
          if (!ec) manifest_bytes += size;
        }
        std::printf(
            "manifest: %llu bytes binary (compressed representation) vs "
            "%llu bytes CSV/JSONL text (%.1fx)\n",
            static_cast<unsigned long long>(manifest_bytes),
            static_cast<unsigned long long>(text_bytes),
            manifest_bytes == 0 ? 0.0
                                : static_cast<double>(text_bytes) /
                                      static_cast<double>(manifest_bytes));
      }
    }
    write_telemetry_outputs();
    print_persist_io();
    write_metrics_outputs();
    write_trace_output();
    return report_failures();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cid_sweep: %s\n", e.what());
    return 1;
  }
  return 0;
}
