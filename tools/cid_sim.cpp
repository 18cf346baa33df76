// cid_sim — command-line driver for the dynamics in this library.
//
//   cid_sim --game FILE [--protocol imitation|exploration|combined]
//           [--lambda L] [--no-nu] [--no-damping] [--virtual V]
//           [--rounds N] [--seed S] [--engine aggregate|perplayer]
//           [--start uniform|even|all:K] [--stop stable|nash|deltaeps:D,E]
//           [--telemetry PATH] [--telemetry-every K]
//           [--checkpoint PATH [--checkpoint-every K] [--checkpoint-keep K]]
//           [--resume PATH] [--event-log PATH [--rotate-bytes N]]
//           [--save-state PATH]
//           [--metrics PATH [--metrics-every K]]
//           [--inject-faults SPEC]
//
// Loads a game in the cid-game v1 text format (see src/game/io.hpp;
// cid_gen writes such files), runs the chosen protocol, and prints its
// per-round series (or writes it to --telemetry PATH) and a final report.
//
// Persistence (src/persist/): --checkpoint writes a binary snapshot of the
// full simulation tuple — game, state, round counter, protocol config, and
// exact RNG stream state — atomically to PATH at round 0, every
// --checkpoint-every rounds, and at the end. --resume PATH continues such
// a snapshot bit-exactly (no --game/protocol flags needed; --rounds stays
// the TOTAL round cap). --event-log appends one checksummed record of each
// round's migrations, so cid_replay can reconstruct any state without
// re-running the dynamics.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "cid/cid.hpp"
#include "util/fault.hpp"

namespace {

using namespace cid;

[[noreturn]] void usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: cid_sim --game FILE [options]\n"
      "       cid_sim --resume SNAPSHOT [options]\n"
      "  --protocol P    imitation (default) | exploration | combined\n"
      "  --lambda L      migration scale, default 0.25\n"
      "  --no-nu         drop the nu gain cutoff (Theorem 9 regime)\n"
      "  --no-damping    drop the 1/d damping (overshoot ablation)\n"
      "  --virtual V     virtual agents per strategy (section 6)\n"
      "  --rounds N      TOTAL round cap, default 100000\n"
      "  --seed S        RNG seed, default 1\n"
      "  --engine E      aggregate (default) | perplayer\n"
      "  --start S       uniform (default) | even | all:K | state:PATH\n"
      "                  (state:PATH loads a cid-state v1 file, e.g. a\n"
      "                  previous run's --save-state output)\n"
      "  --stop C        stable (default) | nash | deltaeps:D,E\n"
      "  --checkpoint PATH    write binary snapshots to PATH (atomic)\n"
      "  --checkpoint-every K snapshot cadence in rounds (default: only\n"
      "                       round 0 and the final state)\n"
      "  --checkpoint-keep K  keep the newest K snapshots as PATH.r<round>\n"
      "                       instead of overwriting one file (snapshot GC)\n"
      "  --resume PATH   continue bit-exactly from a snapshot (game,\n"
      "                  protocol, engine, stop come from the snapshot;\n"
      "                  PATH may be a --checkpoint-keep prefix — the\n"
      "                  newest PATH.r<round> wins)\n"
      "  --event-log PATH     append per-round migration records\n"
      "                       (delta-encoded + block-compressed v2)\n"
      "  --rotate-bytes N     rotate the event log to PATH.<seq> segments\n"
      "                       once the active file exceeds N bytes\n"
      "  --save-state PATH    write the final state (cid-state v1 text)\n"
      "  --metrics PATH       meter the engine (phase timers, row/prune\n"
      "                       counters, persist io) and append JSONL\n"
      "                       snapshots to PATH; also prints the counter\n"
      "                       table. Zero RNG impact: the run's outputs\n"
      "                       are bitwise identical with or without it\n"
      "  --metrics-every K    also snapshot every K rounds (default 0 =\n"
      "                       final snapshot only; requires --metrics)\n"
      "  --telemetry PATH     write the per-round series (phi, latencies,\n"
      "                       makespan, movers, support, imitation gap)\n"
      "                       to PATH as JSONL (CSV when PATH ends in\n"
      "                       .csv) instead of printing it as a table.\n"
      "                       Zero RNG impact; cid_replay telemetry\n"
      "                       regenerates the byte-identical file from a\n"
      "                       snapshot + event log\n"
      "  --telemetry-every K  sample the series every K >= 1 rounds\n"
      "                       (default 1 with --telemetry, 10 without)\n"
      "  --trace PATH         capture Chrome trace-event JSON spans (engine\n"
      "                       phases sampled, persist writes) to PATH —\n"
      "                       open in chrome://tracing or Perfetto\n"
      "  --trace-sample K     engine-phase span sampling interval in\n"
      "                       rounds (K >= 1, default 64; requires\n"
      "                       --trace)\n"
      "  --inject-faults SPEC arm the deterministic fault-injection layer\n"
      "                       (tests/CI): \"seed=S;SITE:KIND[:hit=N]\n"
      "                       [:every=N][:p=P][:count=K]\", kinds\n"
      "                       err|short|enospc|crash at persist sites like\n"
      "                       eventlog.block, snapshot.write\n");
  std::exit(error == nullptr ? 0 : 2);
}

struct Options {
  std::string game_path;
  std::string protocol = "imitation";
  double lambda = 0.25;
  bool no_nu = false;
  bool no_damping = false;
  std::int64_t virtual_agents = 0;
  std::int64_t rounds = 100000;
  std::uint64_t seed = 1;
  EngineMode engine = EngineMode::kAggregate;
  std::string start = "uniform";
  std::string stop = "stable";
  std::string checkpoint_path;
  std::int64_t checkpoint_every = 0;
  std::int64_t checkpoint_keep = 0;
  std::string resume_path;
  std::string event_log_path;
  std::uint64_t rotate_bytes = 0;
  std::string save_state_path;
  std::string metrics_path;
  std::int64_t metrics_every = 0;
  std::string telemetry_path;
  std::optional<std::int64_t> telemetry_every;  // unset: 1 with a file, else 10
  std::string trace_path;
  std::optional<std::int64_t> trace_sample;  // unset: the library default
  std::string fault_spec;
};

Options parse_args(int argc, char** argv) {
  Options opt;
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
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") usage(nullptr);
    else if (flag == "--game") opt.game_path = need_value(i);
    else if (flag == "--protocol") opt.protocol = need_value(i);
    else if (flag == "--lambda") {
      opt.lambda = sweep::parse_double_flag(flag, need_value(i));
    }
    else if (flag == "--no-nu") opt.no_nu = true;
    else if (flag == "--no-damping") opt.no_damping = true;
    else if (flag == "--virtual") opt.virtual_agents = int_value(i, 0);
    else if (flag == "--rounds") opt.rounds = int_value(i, 0);
    else if (flag == "--seed") {
      opt.seed = static_cast<std::uint64_t>(int_value(i, 0));
    } else if (flag == "--engine") {
      const std::string v = need_value(i);
      if (v == "aggregate") opt.engine = EngineMode::kAggregate;
      else if (v == "perplayer") opt.engine = EngineMode::kPerPlayer;
      else usage("unknown engine");
    } else if (flag == "--start") opt.start = need_value(i);
    else if (flag == "--stop") opt.stop = format_stop(parse_stop(need_value(i)));
    else if (flag == "--checkpoint") opt.checkpoint_path = need_value(i);
    else if (flag == "--checkpoint-every") {
      opt.checkpoint_every = int_value(i, 0);
    } else if (flag == "--checkpoint-keep") {
      opt.checkpoint_keep = int_value(i, 0);
    } else if (flag == "--resume") opt.resume_path = need_value(i);
    else if (flag == "--event-log") opt.event_log_path = need_value(i);
    else if (flag == "--rotate-bytes") {
      opt.rotate_bytes = static_cast<std::uint64_t>(int_value(i, 0));
    } else if (flag == "--save-state") opt.save_state_path = need_value(i);
    else if (flag == "--metrics") opt.metrics_path = need_value(i);
    else if (flag == "--metrics-every") {
      opt.metrics_every = int_value(i, 0);
    } else if (flag == "--telemetry") opt.telemetry_path = need_value(i);
    else if (flag == "--telemetry-every") {
      opt.telemetry_every = int_value(i, 1);
    } else if (flag == "--trace") opt.trace_path = need_value(i);
    else if (flag == "--trace-sample") {
      opt.trace_sample = int_value(i, 1);
    } else if (flag == "--inject-faults") {
      opt.fault_spec = need_value(i);
    } else usage(("unknown flag: " + flag).c_str());
  }
  if (opt.game_path.empty() == opt.resume_path.empty()) {
    usage("exactly one of --game and --resume is required");
  }
  if (opt.lambda <= 0.0 || opt.lambda > 1.0) usage("lambda out of (0,1]");
  if (opt.checkpoint_every > 0 && opt.checkpoint_path.empty()) {
    usage("--checkpoint-every requires --checkpoint PATH");
  }
  if (opt.checkpoint_keep > 0 && opt.checkpoint_path.empty()) {
    usage("--checkpoint-keep requires --checkpoint PATH");
  }
  if (opt.rotate_bytes > 0 && opt.event_log_path.empty()) {
    usage("--rotate-bytes requires --event-log PATH");
  }
  if (opt.metrics_every > 0 && opt.metrics_path.empty()) {
    usage("--metrics-every requires --metrics PATH");
  }
  if (opt.trace_sample.has_value() && opt.trace_path.empty()) {
    usage("--trace-sample requires --trace PATH");
  }
  // Parse and arm the fault schedule so a bad spec exits 2 like any
  // other flag-value error.
  if (!opt.fault_spec.empty()) util::configure_faults(opt.fault_spec);
  return opt;
}

State build_start(const Options& opt, const CongestionGame& game, Rng& rng) {
  if (opt.start == "uniform") return State::uniform_random(game, rng);
  if (opt.start == "even") return State::spread_evenly(game);
  if (opt.start.rfind("all:", 0) == 0) {
    std::int64_t k = 0;
    try {
      k = sweep::parse_int_flag("--start all:K", opt.start.substr(4), 0,
                                game.num_strategies() - 1);
    } catch (const sweep::UsageError& e) {
      usage(e.what());
    }
    return State::all_on(game, static_cast<StrategyId>(k));
  }
  if (opt.start.rfind("state:", 0) == 0) {
    // Feed a finished run's --save-state output back in as the start.
    return load_state(game, opt.start.substr(6));
  }
  usage("unknown start");
}

persist::SimConfig sim_config(const Options& opt) {
  persist::SimConfig config;
  config.protocol = opt.protocol;
  config.lambda = opt.lambda;
  config.p_explore = 0.5;
  config.nu_cutoff = !opt.no_nu;
  config.damping = !opt.no_damping;
  config.virtual_agents = opt.virtual_agents;
  config.engine = static_cast<std::uint8_t>(opt.engine);
  config.stop = opt.stop;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    // Bad flag *values* (e.g. a malformed --inject-faults spec) land
    // here; bad flag shapes exit through usage() directly.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    // Assemble the simulation tuple, fresh or from a snapshot.
    std::unique_ptr<CongestionGame> game;
    std::optional<State> x;
    Rng rng(opt.seed);
    std::unique_ptr<Protocol> protocol;
    persist::SimConfig config;
    std::int64_t start_round = 0;
    EngineMode engine = opt.engine;

    if (!opt.resume_path.empty()) {
      // A --checkpoint-keep prefix resolves to its newest PATH.r<round>.
      const std::string resume_from =
          persist::find_latest_checkpoint(opt.resume_path);
      persist::ResumedRun resumed = persist::resume_run(resume_from);
      game = std::move(resumed.game);
      x.emplace(std::move(resumed.state));
      rng = resumed.rng;
      protocol = std::move(resumed.protocol);
      config = resumed.config;
      start_round = resumed.round;
      engine = resumed.mode;
      std::printf("resumed %s at round %lld: %s\n", resume_from.c_str(),
                  static_cast<long long>(start_round),
                  game->describe().c_str());
    } else {
      game = std::make_unique<CongestionGame>(load_game(opt.game_path));
      std::printf("loaded %s\n", game->describe().c_str());
      x.emplace(build_start(opt, *game, rng));
      config = sim_config(opt);
      protocol = make_protocol(config.protocol_spec());
      if (protocol == nullptr) usage("unknown protocol");
    }
    if (opt.rounds <= start_round && opt.rounds != 0) {
      usage("--rounds (total cap) must exceed the snapshot's round");
    }
    std::printf("protocol: %s, engine: %s, rounds cap: %lld\n\n",
                protocol->name().c_str(),
                engine == EngineMode::kAggregate ? "aggregate" : "perplayer",
                static_cast<long long>(opt.rounds));

    // Span tracing is armed before any observer or persist writer runs so
    // the timeline covers the whole run (pure observation: zero RNG, no
    // output byte changes — the PR 6 contract).
    if (!opt.trace_path.empty()) {
      if (opt.trace_sample.has_value()) {
        obs::set_trace_engine_sample_interval(*opt.trace_sample);
      }
      obs::start_tracing();
    }

    // Observers: the per-round series + optional event log + optional
    // checkpoint cadence. The series is written to --telemetry PATH when
    // given and printed as a table otherwise, after the run (finish()
    // needs the converged verdict to decide on the final record).
    const std::int64_t every =
        opt.telemetry_every.value_or(opt.telemetry_path.empty() ? 10 : 1);
    obs::TelemetryRecorder telemetry(every);
    RoundObserver observer = telemetry.observer();

    std::optional<persist::EventLogWriter> event_log;
    persist::EventLogOptions log_options;
    log_options.rotate_bytes = opt.rotate_bytes;
    if (!opt.event_log_path.empty()) {
      if (!opt.resume_path.empty() &&
          std::filesystem::exists(opt.event_log_path)) {
        event_log.emplace(persist::EventLogWriter::open_for_append(
            opt.event_log_path, start_round, log_options));
      } else {
        event_log.emplace(
            persist::EventLogWriter::create(opt.event_log_path, log_options));
      }
      observer = persist::chain_observers(std::move(observer),
                                          event_log->observer());
    }

    std::optional<persist::Checkpointer> checkpointer;
    if (!opt.checkpoint_path.empty()) {
      checkpointer.emplace(
          *game, rng,
          persist::CheckpointConfig{opt.checkpoint_path, opt.checkpoint_every,
                                    opt.checkpoint_keep},
          config);
      // Round-0 (or resume-round) snapshot: captured before run_dynamics
      // consumes any draws, so snapshot + event log replays the whole run.
      checkpointer->write_now(*x, start_round);
      observer = persist::chain_observers(std::move(observer),
                                          checkpointer->observer());
    }

    // Engine metering (src/obs/): the counters accumulate into a local
    // struct the run options point at; snapshots are rebuilt from it on
    // demand. Pure observation — zero RNG, outputs bitwise identical.
    obs::EngineMetrics engine_metrics;
    obs::MetricsRegistry metrics_registry;
    std::unique_ptr<obs::JsonlSink> metrics_sink;
    const obs::PersistIoTotals io_before = obs::persist_io_totals();
    auto write_metrics_snapshot = [&]() {
      metrics_registry.reset_values();
      metrics_registry.merge_engine("", engine_metrics);
      const obs::PersistIoTotals io = obs::persist_io_totals();
      metrics_registry.add_named("persist.bytes_written",
                                 io.bytes_written - io_before.bytes_written);
      metrics_registry.add_named("persist.writes", io.writes - io_before.writes);
      metrics_registry.add_named("persist.fsyncs", io.fsyncs - io_before.fsyncs);
      metrics_registry.add_named("persist.fflushes",
                                 io.fflushes - io_before.fflushes);
      metrics_sink->write(metrics_registry.snapshot());
    };
    if (!opt.metrics_path.empty()) {
      metrics_sink = std::make_unique<obs::JsonlSink>(opt.metrics_path);
      if (opt.metrics_every > 0) {
        observer = persist::chain_observers(
            std::move(observer),
            [&](const CongestionGame&, const State&,
                std::span<const Migration>, std::int64_t round, bool final) {
              // The final snapshot is written after the run instead, once
              // the event log has flushed its tail.
              if (!final && round % opt.metrics_every == 0) {
                write_metrics_snapshot();
              }
            });
      }
    }

    RunOptions run_options;
    run_options.max_rounds = opt.rounds;
    run_options.mode = engine;
    run_options.start_round = start_round;
    if (metrics_sink != nullptr) run_options.metrics = &engine_metrics;
    const WallTimer run_timer;
    const RunResult result =
        run_dynamics(
            *game, *x, *protocol, rng,
            {.options = run_options,
             .cached_stop = make_cached_stop(parse_stop(config.stop)),
             .observer = observer});
    const double run_seconds = run_timer.seconds();
    if (event_log.has_value()) event_log->close();

    telemetry.finish(result.converged);
    if (opt.telemetry_path.empty()) {
      obs::telemetry_table(telemetry.records())
          .print("telemetry (every " + std::to_string(every) + " rounds)");
    }
    std::printf(
        "\nstopped after %lld rounds (converged: %s, migrations this "
        "invocation %lld)\n",
        static_cast<long long>(result.rounds),
        result.converged ? "yes" : "no",
        static_cast<long long>(result.total_movers));
    // Kernel throughput for THIS invocation (a resumed run only executed
    // rounds [start_round, result.rounds)).
    const std::int64_t ran_rounds = result.rounds - start_round;
    if (ran_rounds > 0 && run_seconds > 0.0) {
      std::printf(
          "throughput: %.0f rounds/s; %lld latency evals (%.2f per round)\n",
          static_cast<double>(ran_rounds) / run_seconds,
          static_cast<long long>(result.latency_evals),
          static_cast<double>(result.latency_evals) /
              static_cast<double>(ran_rounds));
    }
    const auto report = check_delta_eps_nu(*game, *x, 0.1, 0.1, game->nu());
    std::printf(
        "final: L_av=%.4f  L+_av=%.4f  makespan=%.4f  nash_gap=%.4f\n"
        "imitation-stable=%s  nash=%s  (0.1,0.1,nu)-eq=%s\n",
        report.average_latency, report.plus_average_latency,
        makespan(*game, *x), nash_gap(*game, *x),
        is_imitation_stable(*game, *x, game->nu()) ? "yes" : "no",
        is_nash(*game, *x) ? "yes" : "no",
        report.at_equilibrium ? "yes" : "no");
    if (!opt.save_state_path.empty()) {
      save_state(*x, opt.save_state_path);
      std::printf("final state written to %s\n",
                  opt.save_state_path.c_str());
    }
    if (!opt.checkpoint_path.empty()) {
      if (opt.checkpoint_keep > 0) {
        std::printf("checkpoints written to %s.r<round> (newest: round "
                    "%lld, keeping last %lld)\n",
                    opt.checkpoint_path.c_str(),
                    static_cast<long long>(result.rounds),
                    static_cast<long long>(opt.checkpoint_keep));
      } else {
        std::printf("checkpoint written to %s (round %lld)\n",
                    opt.checkpoint_path.c_str(),
                    static_cast<long long>(result.rounds));
      }
    }
    if (event_log.has_value()) {
      // Compression observability: on-disk bytes vs the fixed-width v1
      // encoding of the same rounds (writer-maintained counters — no
      // re-read of a possibly multi-GB chain at shutdown).
      const std::uint64_t disk = event_log->disk_bytes();
      const std::uint64_t v1 = event_log->v1_equivalent_bytes();
      std::printf(
          "event log %s: %llu bytes on disk, %llu uncompressed-equivalent "
          "(%.1fx)\n",
          opt.event_log_path.c_str(), static_cast<unsigned long long>(disk),
          static_cast<unsigned long long>(v1),
          disk == 0 ? 0.0
                    : static_cast<double>(v1) / static_cast<double>(disk));
    }
    if (!opt.telemetry_path.empty()) {
      const std::uint64_t bytes =
          obs::write_telemetry_file(opt.telemetry_path, telemetry.records());
      std::printf("telemetry written to %s (%zu records, %llu bytes)\n",
                  opt.telemetry_path.c_str(), telemetry.records().size(),
                  static_cast<unsigned long long>(bytes));
    }
    if (metrics_sink != nullptr) {
      write_metrics_snapshot();
      obs::TableSink("engine metrics").write(metrics_registry.snapshot());
      metrics_sink->close();
      std::printf("metrics written to %s (%llu bytes)\n",
                  metrics_sink->path().c_str(),
                  static_cast<unsigned long long>(
                      metrics_sink->bytes_written()));
    }
    if (!opt.trace_path.empty()) {
      const std::size_t events = obs::stop_tracing_to(opt.trace_path);
      std::printf("trace written to %s (%zu events)\n",
                  opt.trace_path.c_str(), events);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cid_sim: %s\n", e.what());
    return 1;
  }
  return 0;
}
