// E13 — engine micro-benchmarks: rounds/sec of the batched round kernel on
// fixed workloads (fixed game, fixed round count, no stop predicate), so
// wall-clock is directly gateable by scripts/check_bench_regression.py.
//
//   cell 1  aggregate, NON-SINGLETON k=64 (4x3 layered network, n=1e5),
//           imitation — the ISSUE-4 acceptance cell. Pre-batching baseline
//           on the reference dev box: ~1.3e3 rounds/s.
//   cell 2  same game, combined protocol (two sub-protocols per row, one
//           shared ex-post merge). Pre-batching: ~7.3e2 rounds/s.
//   cell 3  aggregate, singleton m=64, n=1e6 — the Theorem-7 sweep regime.
//           Pre-batching: ~4.5e3 rounds/s.
//   cell 4  per-player, singleton m=64, n=2e4 — exercises the cumulative-
//           probability binary search. Pre-batching: ~9.1e2 rounds/s.
//   cell 5  equilibrium-check-dominated: the cell-3 singleton game with a
//           full imitation-gap stability scan EVERY round through the
//           cached predicates (dynamics/equilibrium.hpp overloads over
//           the kernel's latency cache). Uncached-predicate baseline on
//           the reference dev box: ~8.8e3 rounds/s vs ~3.6e4 cached
//           (4.1x).
//   cell 6  asymmetric batched kernel: 4 classes x 17 strategies sharing
//           a fast link, n=2e5, class-local imitation on the cached
//           per-class rows. Per-pair baseline: ~1.5e4 rounds/s vs
//           ~3.7e5 batched (25x).
//   cell 7  ROW-FILL-BOUND: per-player, singleton m=256, n=4e3,
//           exploration — wide rows that never prune and a cheap
//           cumulative-scan draw, so nearly all wall-clock is the
//           per-origin row fill. Prices the monomorphized ProtocolKernel
//           + SIMD select loop against the virtual frontend
//           (--baseline).
//   cell 8  ROW-FILL-BOUND: per-player, singleton m=512, n=2e3,
//           imitation — k² row entries per round against only n·log k
//           draw work, the most fill-dominated cell in the table.
//
// Flags: --quick (CI-sized round counts), --json PATH (see bench/common.hpp),
// --baseline (run cells 5/6 on the pre-PR paths — uncached stop
// predicates / per-pair asymmetric rounds — and cells 7/8 on the
// virtual-frontend batched path (EngineTuning::virtual_frontend), i.e.
// the pre-ProtocolKernel engine, to reproduce the speedup ratios quoted
// above; not used by CI).
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

using namespace cid;

CongestionGame network_k64(std::int64_t n) {
  // 4^3 = 64 s-t paths over 40 edges, mixed linear/quadratic latencies —
  // the same construction recipe as the network-routing sweep scenario.
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

AsymmetricGame asymmetric_k17x4(std::int64_t n) {
  // The asymmetric sweep scenario's construction at classes=4,
  // links_per_class=16: one shared fast link plus 16 private links per
  // class — 17 strategies per class, so the per-pair path pays
  // O(classes · 17²) uncached latency walks per round.
  std::vector<LatencyPtr> fns;
  fns.push_back(make_linear(0.5));
  std::vector<PlayerClass> classes(4);
  Resource next = 1;
  for (std::int32_t c = 0; c < 4; ++c) {
    auto& cls = classes[static_cast<std::size_t>(c)];
    cls.strategies.push_back({0});
    for (std::int32_t k = 0; k < 16; ++k) {
      fns.push_back(make_linear(1.0 + 0.5 * static_cast<double>(k)));
      cls.strategies.push_back({next});
      ++next;
    }
    cls.num_players = n / 4;
  }
  return AsymmetricGame(std::move(fns), std::move(classes));
}

struct CellResult {
  double wall_seconds = 0.0;
  double rounds_per_sec = 0.0;
  double evals_per_round = 0.0;
  std::int64_t movers = 0;
  /// Deterministic work counter from the metrics layer: the fraction of
  /// support rows the kernel proved zero and skipped (row fill AND draw).
  /// Gated by scripts/check_bench_regression.py — a drop means the engine
  /// started paying for rows it used to prune. 0 under CID_METRICS=0
  /// (and not emitted into the JSON, so the gate skips it).
  double rows_pruned_fraction = 0.0;
};

CellResult finish_cell(const WallTimer& timer, std::int64_t rounds,
                       std::int64_t latency_evals, std::int64_t movers,
                       const obs::EngineMetrics& metrics) {
  CellResult cell;
  cell.wall_seconds = timer.seconds();
  cell.rounds_per_sec =
      cell.wall_seconds > 0.0
          ? static_cast<double>(rounds) / cell.wall_seconds
          : 0.0;
  cell.evals_per_round = rounds > 0
                             ? static_cast<double>(latency_evals) /
                                   static_cast<double>(rounds)
                             : 0.0;
  cell.movers = movers;
  const std::int64_t considered = metrics.rows_filled + metrics.rows_pruned;
  cell.rows_pruned_fraction =
      considered > 0
          ? static_cast<double>(metrics.rows_pruned) /
                static_cast<double>(considered)
          : 0.0;
  return cell;
}

/// Every cell runs METERED (RunOptions::metrics attached): the checked-in
/// baseline therefore prices the instrumentation in, and the same-runner
/// CI gate catches a hot-path metrics regression as a wall-clock one.
CellResult run_cell(const CongestionGame& game, const Protocol& protocol,
                    EngineMode mode, std::int64_t rounds,
                    bool virtual_frontend = false) {
  Rng rng(1);
  State x = State::uniform_random(game, rng);
  obs::EngineMetrics metrics;
  EngineInvocation call;
  call.options.max_rounds = rounds;
  call.options.mode = mode;
  call.options.metrics = &metrics;
  // Pins the VirtualKernel adapter (virtual dispatch per row) instead of
  // the monomorphized kernel — the pre-ProtocolKernel batched path,
  // bitwise-identical output by contract, so only wall-clock moves.
  call.options.virtual_frontend = virtual_frontend;
  // β is computed on its first read (an O(m·n) instance cost, not engine
  // work); take it before the clock starts.
  game.beta_slope();
  const WallTimer timer;
  const RunResult rr = run_dynamics(game, x, protocol, rng, call);
  return finish_cell(timer, rr.rounds, rr.latency_evals, rr.total_movers,
                     metrics);
}

/// Cell 5: every round pays one full support-restricted stability scan —
/// "stop once the imitation gap closes", the all-pairs O(s²) ex-post
/// evaluation that dominates converged-phase workloads (imitation_gap
/// never short-circuits, so the check cost is state-independent and the
/// workload stays fixed; the gap stays positive for this game/budget).
/// --baseline swaps in the context-free predicate, i.e. the
/// pre-cached-predicates engine.
CellResult run_stopcheck_cell(const CongestionGame& game,
                              const Protocol& protocol, std::int64_t rounds,
                              bool baseline) {
  Rng rng(1);
  State x = State::uniform_random(game, rng);
  obs::EngineMetrics metrics;
  RunOptions options;
  options.max_rounds = rounds;
  options.mode = EngineMode::kAggregate;
  options.metrics = &metrics;
  const WallTimer timer;
  RunResult rr;
  if (baseline) {
    const StopPredicate stop = [](const CongestionGame& g, const State& s,
                                  std::int64_t) {
      return !(imitation_gap(g, s) > 0.0);
    };
    rr = run_dynamics(game, x, protocol, rng, options, stop);
  } else {
    const CachedStopPredicate stop = [](const LatencyContext& ctx,
                                        std::int64_t) {
      return !(imitation_gap(ctx) > 0.0);
    };
    rr = run_dynamics(game, x, protocol, rng, options, stop);
  }
  return finish_cell(timer, rr.rounds, rr.latency_evals, rr.total_movers,
                     metrics);
}

/// Cell 6: the class-local engine. --baseline drives the per-pair
/// reference path (pre-batching state of the asymmetric engine).
CellResult run_asymmetric_cell(const AsymmetricGame& game,
                               std::int64_t rounds, bool baseline) {
  Rng rng(1);
  AsymmetricState x = AsymmetricState::uniform_random(game, rng);
  const AsymmetricImitationParams params;
  obs::EngineMetrics metrics;
  const WallTimer timer;
  std::int64_t movers = 0;
  std::int64_t evals = 0;
  if (baseline) {
    for (std::int64_t r = 0; r < rounds; ++r) {
      movers += step_asymmetric_round(game, x, params, rng).movers;
    }
  } else {
    AsymmetricRoundWorkspace ws;
    AsymmetricRoundResult rr;
    for (std::int64_t r = 0; r < rounds; ++r) {
      draw_asymmetric_round(game, x, params, rng, ws, rr, /*row_threads=*/1,
                            &metrics);
      x.apply(game, rr.moves, ws.apply_scratch);
      ws.ctx.refresh(ws.apply_scratch.touched);
      movers += rr.movers;
    }
    evals = ws.ctx.latency_evals();
  }
  return finish_cell(timer, rounds, evals, movers, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  using cid::bench::JsonReport;
  bool quick = false;
  bool baseline = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--baseline") == 0) baseline = true;
  }

  const ImitationProtocol imitation;
  const CombinedProtocol combined{ImitationParams{}, ExplorationParams{},
                                  0.5};
  const auto net64 = network_k64(100000);
  const auto singleton_large = make_monomial_fan_game(64, 1.0, 1.0, 1000000);
  const auto singleton_small = make_monomial_fan_game(64, 1.0, 1.0, 20000);
  const auto asym = asymmetric_k17x4(200000);

  struct Spec {
    int id;
    const char* label;
    const CongestionGame* game;
    const Protocol* protocol;
    EngineMode mode;
    std::int64_t rounds;
    std::int64_t quick_rounds;
  };
  const Spec specs[] = {
      {1, "aggregate net k=64 imitation", &net64, &imitation,
       EngineMode::kAggregate, 2000, 400},
      {2, "aggregate net k=64 combined", &net64, &combined,
       EngineMode::kAggregate, 1000, 200},
      {3, "aggregate singleton m=64 n=1e6", &singleton_large, &imitation,
       EngineMode::kAggregate, 10000, 2000},
      {4, "perplayer singleton m=64 n=2e4", &singleton_small, &imitation,
       EngineMode::kPerPlayer, 400, 100},
  };

  JsonReport report("engine_micro");
  cid::Table table({"id", "cell", "rounds", "wall s", "rounds/s",
                    "evals/round", "pruned", "movers"});
  const auto record = [&](int id, const char* label, std::int64_t rounds,
                          const CellResult& cell) {
    table.row()
        .cell(static_cast<std::int64_t>(id))
        .cell(label)
        .cell(rounds)
        .cell(cell.wall_seconds, 3)
        .cell(cell.rounds_per_sec, 1)
        .cell(cell.evals_per_round, 2)
        .cell(cell.rows_pruned_fraction, 3)
        .cell(cell.movers);
    auto& json = report.cell();
    json.metric("id", static_cast<double>(id))
        .metric("rounds", static_cast<double>(rounds))
        .metric("wall_cell_seconds", cell.wall_seconds)
        .metric("rounds_per_sec", cell.rounds_per_sec)
        .metric("evals_per_round", cell.evals_per_round)
        .metric("movers", static_cast<double>(cell.movers));
    // Omitted (not zero) under CID_METRICS=0, so the regression gate
    // only compares it when both reports actually measured it.
    if (cid::obs::kMetricsCompiled) {
      json.metric("rows_pruned_fraction", cell.rows_pruned_fraction);
    }
  };
  for (const Spec& spec : specs) {
    const std::int64_t rounds = quick ? spec.quick_rounds : spec.rounds;
    record(spec.id, spec.label, rounds,
           run_cell(*spec.game, *spec.protocol, spec.mode, rounds));
  }
  {
    const std::int64_t rounds = quick ? 400 : 2000;
    record(5,
           baseline ? "stopcheck m=64 n=1e6 UNCACHED"
                    : "stopcheck m=64 n=1e6",
           rounds,
           run_stopcheck_cell(singleton_large, imitation, rounds, baseline));
  }
  {
    const std::int64_t rounds = quick ? 400 : 2000;
    record(6,
           baseline ? "asymmetric k=17x4 PER-PAIR" : "asymmetric k=17x4",
           rounds, run_asymmetric_cell(asym, rounds, baseline));
  }
  // Cells 7/8: row-fill-bound workloads pricing the monomorphized
  // ProtocolKernel + SIMD row against the virtual frontend (--baseline).
  const ExplorationProtocol exploration;
  const auto singleton_wide = make_monomial_fan_game(256, 1.0, 1.0, 4000);
  const auto singleton_pp_wide = make_monomial_fan_game(512, 1.0, 1.0, 2000);
  {
    const std::int64_t rounds = quick ? 160 : 800;
    record(7,
           baseline ? "perplayer singleton m=256 explore VIRTUAL"
                    : "perplayer singleton m=256 explore",
           rounds,
           run_cell(singleton_wide, exploration, EngineMode::kPerPlayer,
                    rounds, baseline));
  }
  {
    const std::int64_t rounds = quick ? 60 : 300;
    record(8,
           baseline ? "perplayer singleton m=512 VIRTUAL"
                    : "perplayer singleton m=512",
           rounds,
           run_cell(singleton_pp_wide, imitation, EngineMode::kPerPlayer,
                    rounds, baseline));
  }
  table.print(std::string("engine micro (fixed workloads") +
              (quick ? ", --quick" : "") + (baseline ? ", --baseline" : "") +
              ")");
  report.write_if_requested(argc, argv);
  return 0;
}
