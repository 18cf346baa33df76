// Tests for the parallel scenario-sweep runtime. The load-bearing contract
// is thread-count invariance: a sweep's per-trial results must be bitwise
// identical whether it runs on 1 thread or 8, because every trial's Rng
// stream is a pure function of (seed, cell, trial) (derive_trial_rng's
// keyed Rng::split), whichever thread derives it. Everything else
// — registry, grid parsing, writers, the retrofitted analysis harness —
// rides on that.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "sweep/output.hpp"
#include "sweep/pool.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "util/rng.hpp"

namespace cid::sweep {
namespace {

SweepGrid small_grid() {
  SweepGrid grid;
  grid.scenario.name = "load-balancing";
  grid.scenario.params = {{"m", 4.0}};
  grid.protocols = parse_protocol_list("imitation,combined");
  grid.ns = {200, 500};
  grid.trials = 6;
  grid.master_seed = 99;
  grid.dynamics.max_rounds = 2000;
  return grid;
}

/// SweepOptions with only the thread count set (the designated-init
/// shorthand would warn about the resumable-sweep fields added later).
SweepOptions with_threads(int threads) {
  SweepOptions options;
  options.threads = threads;
  return options;
}

void expect_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    const TrialRow& ta = a.trials[i];
    const TrialRow& tb = b.trials[i];
    EXPECT_EQ(ta.key.cell, tb.key.cell);
    EXPECT_EQ(ta.key.protocol, tb.key.protocol);
    EXPECT_EQ(ta.key.n, tb.key.n);
    EXPECT_EQ(ta.trial, tb.trial);
    // operator== compares every field exactly — bitwise for the doubles.
    EXPECT_EQ(ta.outcome, tb.outcome) << "trial " << i << " diverged";
  }
}

TEST(SweepDeterminism, ThreadCountInvariant) {
  const SweepGrid grid = small_grid();
  const SweepResult serial = run_sweep(grid, with_threads(1));
  const SweepResult four = run_sweep(grid, with_threads(4));
  const SweepResult eight = run_sweep(grid, with_threads(8));
  expect_identical(serial, four);
  expect_identical(serial, eight);
}

TEST(SweepDeterminism, RepeatedRunsIdentical) {
  const SweepGrid grid = small_grid();
  expect_identical(run_sweep(grid, with_threads(3)),
                   run_sweep(grid, with_threads(3)));
}

TEST(SweepDeterminism, AsymmetricAndThresholdScenarios) {
  for (const char* name : {"asymmetric", "multicommodity", "threshold-lb"}) {
    SweepGrid grid;
    grid.scenario.name = name;
    grid.protocols = parse_protocol_list("imitation");
    grid.ns = {60};
    grid.trials = 4;
    grid.master_seed = 7;
    grid.dynamics.max_rounds = 5000;
    grid.dynamics.stop = StopRule::kImitationStable;
    expect_identical(run_sweep(grid, with_threads(1)),
                     run_sweep(grid, with_threads(4)));
  }
}

TEST(SweepDeterminism, WrittenFilesIdenticalAcrossThreadCounts) {
  const SweepGrid grid = small_grid();
  const SweepResult serial = run_sweep(grid, with_threads(1));
  const SweepResult parallel = run_sweep(grid, with_threads(8));
  auto slurp_trials = [](const SweepResult& result, const std::string& path) {
    write_trials_jsonl(path, result);
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
  };
  const std::string dir = ::testing::TempDir();
  EXPECT_EQ(slurp_trials(serial, dir + "/sweep_t1.jsonl"),
            slurp_trials(parallel, dir + "/sweep_t8.jsonl"));
}

TEST(SweepRunner, CellAggregatesMatchTrials) {
  const SweepGrid grid = small_grid();
  const SweepResult result = run_sweep(grid, with_threads(2));
  ASSERT_EQ(result.cells.size(), grid.ns.size() * grid.protocols.size());
  ASSERT_EQ(result.trials.size(),
            result.cells.size() * static_cast<std::size_t>(grid.trials));
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const CellRow& cell = result.cells[c];
    double sum = 0.0;
    int converged = 0;
    for (int t = 0; t < grid.trials; ++t) {
      const TrialRow& trial =
          result.trials[c * static_cast<std::size_t>(grid.trials) +
                        static_cast<std::size_t>(t)];
      EXPECT_EQ(trial.key.cell, cell.key.cell);
      sum += trial.outcome.rounds;
      converged += trial.outcome.converged ? 1 : 0;
    }
    EXPECT_DOUBLE_EQ(cell.rounds.mean,
                     sum / static_cast<double>(grid.trials));
    EXPECT_DOUBLE_EQ(cell.fraction_converged,
                     static_cast<double>(converged) /
                         static_cast<double>(grid.trials));
  }
}

TEST(SweepPool, MapTrialsMatchesHistoricalSerialHarness) {
  // The analysis harness has always run: master.split(t) serially, one
  // value per child. map_trials must reproduce that exactly — for every
  // thread count.
  const auto fn = [](Rng& rng) { return rng.uniform() + rng.uniform(); };
  Rng master(0xABCDE);
  std::vector<double> expected;
  for (int t = 0; t < 17; ++t) {
    Rng child = master.split(static_cast<std::uint64_t>(t));
    expected.push_back(fn(child));
  }
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(map_trials(17, 0xABCDE, fn, threads), expected)
        << "threads=" << threads;
  }
}

TEST(SweepPool, RunTrialsThreadInvariant) {
  const auto fn = [](Rng& rng) {
    double acc = 0.0;
    for (int i = 0; i < 100; ++i) acc += rng.uniform();
    return acc;
  };
  const TrialSet serial = run_trials(23, 42, fn, 1);
  const TrialSet parallel = run_trials(23, 42, fn, 8);
  EXPECT_EQ(serial.values, parallel.values);
  EXPECT_DOUBLE_EQ(serial.summary.mean, parallel.summary.mean);
  EXPECT_DOUBLE_EQ(serial.sem, parallel.sem);
}

TEST(SweepPool, ParallelForCoversEveryIndexOnce) {
  // More indices than threads, more threads than indices, and none.
  for (const auto& [count, threads] :
       {std::pair{1000, 8}, std::pair{3, 8}, std::pair{0, 8}}) {
    SCOPED_TRACE(std::to_string(count) + " indices, " +
                 std::to_string(threads) + " threads");
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
    parallel_for(count, threads, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(SweepPool, ParallelForPropagatesExceptions) {
  EXPECT_THROW(parallel_for(64, 4,
                            [](std::int64_t i) {
                              if (i == 17) {
                                throw std::runtime_error("boom");
                              }
                            }),
               std::runtime_error);
  // Every job throws: the caller sees exactly one of them, and none
  // escapes a worker thread (that would end the process).
  int caught = 0;
  try {
    parallel_for(64, 4, [](std::int64_t i) {
      throw std::runtime_error("job " + std::to_string(i));
    });
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_EQ(std::string(e.what()).rfind("job ", 0), 0u);
  }
  EXPECT_EQ(caught, 1);
}

TEST(SweepPool, ResolveThreads) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_GE(resolve_threads(0), 1);
}

TEST(SweepGridParsing, LogDecades) {
  EXPECT_EQ(parse_grid_axis("n=1000:100000:log"),
            (std::vector<std::int64_t>{1000, 10000, 100000}));
  // A non-decade endpoint is still included.
  EXPECT_EQ(parse_grid_axis("100:5000:log"),
            (std::vector<std::int64_t>{100, 1000, 5000}));
}

TEST(SweepGridParsing, LogWithPointCountHitsEndpoints) {
  const auto values = parse_grid_axis("n=100:100000:log:4");
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values.front(), 100);
  EXPECT_EQ(values.back(), 100000);
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_GT(values[i], values[i - 1]);
  }
}

TEST(SweepGridParsing, LinearAndList) {
  EXPECT_EQ(parse_grid_axis("n=100:500:lin:5"),
            (std::vector<std::int64_t>{100, 200, 300, 400, 500}));
  EXPECT_EQ(parse_grid_axis("n=100,1000,5000"),
            (std::vector<std::int64_t>{100, 1000, 5000}));
  // Non-adjacent duplicates are dropped too (first occurrence wins): a
  // duplicated n would mint two cells with the same key.
  EXPECT_EQ(parse_grid_axis("n=1000,100,1000"),
            (std::vector<std::int64_t>{1000, 100}));
}

TEST(SweepGridParsing, Rejections) {
  EXPECT_THROW(parse_grid_axis(""), std::runtime_error);
  EXPECT_THROW(parse_grid_axis("n=10:5:log"), std::runtime_error);
  EXPECT_THROW(parse_grid_axis("n=10:100:cubic"), std::runtime_error);
  EXPECT_THROW(parse_grid_axis("n=0:10:lin"), std::runtime_error);
  EXPECT_THROW(parse_grid_axis("n=1:10:log:1"), std::runtime_error);
}

// Runs argv through the shared cid_sweep / cid_serve grid-flag parser;
// every argument must be a grid flag.
SweepGrid parse_grid_flags(std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  const int argc = static_cast<int>(argv.size());
  GridFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (!parse_grid_flag(argc, argv.data(), i, flags)) {
      throw std::logic_error("not a grid flag: " + args[i]);
    }
  }
  return finish_grid_flags(flags);
}

std::string grid_flag_error(std::vector<std::string> args) {
  try {
    parse_grid_flags(std::move(args));
  } catch (const UsageError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(SweepGridFlags, ParsesEverySharedFlag) {
  const SweepGrid grid = parse_grid_flags(
      {"--scenario", "load-balancing", "--grid", "200,400", "--protocols",
       "imitation,combined", "--trials", "3", "--seed", "9", "--rounds",
       "70", "--check-interval", "5", "--stop", "deltaeps:0.2,0.3",
       "--engine", "perplayer", "--param", "m=4", "--lambda", "0.5"});
  EXPECT_EQ(grid.scenario.name, "load-balancing");
  EXPECT_EQ(grid.scenario.param("m", 0.0), 4.0);
  EXPECT_EQ(grid.ns, (std::vector<std::int64_t>{200, 400}));
  ASSERT_EQ(grid.protocols.size(), 2u);
  for (const ProtocolSpec& protocol : grid.protocols) {
    EXPECT_EQ(protocol.lambda, 0.5);
  }
  EXPECT_EQ(grid.trials, 3);
  EXPECT_EQ(grid.master_seed, 9u);
  EXPECT_EQ(grid.dynamics.max_rounds, 70);
  EXPECT_EQ(grid.dynamics.check_interval, 5);
  EXPECT_EQ(grid.dynamics.stop, StopRule::kDeltaEps);
  EXPECT_EQ(grid.dynamics.delta, 0.2);
  EXPECT_EQ(grid.dynamics.eps, 0.3);
  EXPECT_EQ(grid.dynamics.mode, EngineMode::kPerPlayer);

  // Defaults, and a tool-specific flag left for the caller.
  const SweepGrid defaults = parse_grid_flags({"--scenario", "asymmetric"});
  EXPECT_EQ(defaults.ns, parse_grid_axis("1000:100000:log"));
  ASSERT_EQ(defaults.protocols.size(), 1u);
  EXPECT_EQ(defaults.protocols[0].name, "imitation");
  EXPECT_EQ(defaults.protocols[0].lambda, 0.25);
  EXPECT_THROW(parse_grid_flags({"--threads", "2"}), std::logic_error);
}

TEST(SweepGridFlags, DoubleFlagsAreStrictAndBounded) {
  const auto error = [](std::string_view value, double min, double max) {
    try {
      parse_double_flag("--x", value, min, max);
    } catch (const UsageError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(parse_double_flag("--x", "0.25"), 0.25);
  EXPECT_EQ(parse_double_flag("--x", "-3e2"), -300.0);
  EXPECT_EQ(error("1.5", 0.0, 2.0), "accepted");
  EXPECT_EQ(error("2.5", 0.0, 2.0), "--x must be <= 2");
  EXPECT_EQ(error("-0.5", 0.0, 2.0), "--x must be >= 0");
  for (const char* bad : {"0.2.5", "1,5", " 1", "1 ", "inf", "-inf", "nan",
                          "1e999", "0x1p3", ""}) {
    EXPECT_EQ(error(bad, -10.0, 10.0), "--x must be a number") << bad;
  }
}

TEST(SweepGridFlags, RejectsOutOfRangeAndMalformedValues) {
  const std::vector<std::string> base = {"--scenario", "load-balancing"};
  const auto with = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    return grid_flag_error(std::move(args));
  };
  EXPECT_EQ(with({}), "accepted");
  EXPECT_EQ(with({"--check-interval", "0"}), "--check-interval must be >= 1");
  EXPECT_EQ(with({"--rounds", "-1"}), "--rounds must be >= 0");
  EXPECT_EQ(with({"--trials", "0"}), "--trials must be >= 1");
  // Integer flags are read strictly: no float syntax, trailing junk or
  // silent wrap-around.
  EXPECT_EQ(with({"--rounds", "1e5"}), "--rounds must be a whole number");
  EXPECT_EQ(with({"--trials", "5x"}), "--trials must be a whole number");
  EXPECT_EQ(with({"--trials", ""}), "--trials must be a whole number");
  EXPECT_EQ(with({"--trials", "3000000000"}), "--trials must be <= 2147483647");
  EXPECT_EQ(with({"--seed", "-1"}), "--seed must be >= 0");
  EXPECT_EQ(with({"--seed", "99999999999999999999"}),
            "--seed must be <= 9223372036854775807");
  EXPECT_EQ(with({"--check-interval", "-99999999999999999999"}),
            "--check-interval must be >= 1");
  EXPECT_EQ(with({"--seed", "0", "--rounds", "0"}), "accepted");
  EXPECT_EQ(with({"--lambda", "0"}), "lambda out of (0,1]");
  EXPECT_EQ(with({"--lambda", "1.5"}), "lambda out of (0,1]");
  // So are real-valued ones: a second dot or trailing junk is refused,
  // not read up to where it stops parsing.
  EXPECT_EQ(with({"--lambda", "0.2.5"}), "--lambda must be a number");
  EXPECT_EQ(with({"--lambda", "0.2x"}), "--lambda must be a number");
  EXPECT_EQ(with({"--lambda", ""}), "--lambda must be a number");
  EXPECT_EQ(with({"--lambda", "nan"}), "--lambda must be a number");
  EXPECT_EQ(with({"--lambda", "1e-1"}), "accepted");
  EXPECT_EQ(with({"--stop", "sometimes"}), "unknown stop condition");
  EXPECT_EQ(with({"--stop", "deltaeps:0.1"}), "expected --stop deltaeps:D,E");
  EXPECT_EQ(with({"--stop", "deltaeps:0.1,0.1junk"}),
            "expected --stop deltaeps:D,E");
  EXPECT_EQ(with({"--stop", "deltaeps:,0.1"}), "expected --stop deltaeps:D,E");
  EXPECT_EQ(with({"--stop", "deltaeps:0.1,0.1,0.1"}),
            "expected --stop deltaeps:D,E");
  const std::string out_of_range = "deltaeps:D,E needs 0 <= D <= 1 and E >= 0";
  EXPECT_EQ(with({"--stop", "deltaeps:-1,0.1"}), out_of_range);
  EXPECT_EQ(with({"--stop", "deltaeps:1.5,0.1"}), out_of_range);
  EXPECT_EQ(with({"--stop", "deltaeps:0.1,-0.5"}), out_of_range);
  EXPECT_EQ(with({"--stop", "deltaeps:nan,0.1"}), out_of_range);
  EXPECT_EQ(with({"--stop", "deltaeps:0.1,inf"}), out_of_range);
  EXPECT_EQ(with({"--engine", "warp"}), "unknown engine");
  EXPECT_EQ(with({"--param", "=3"}), "expected --param K=V");
  EXPECT_EQ(with({"--param", "m=2x"}), "--param m must be a number");
  EXPECT_EQ(with({"--param", "m="}), "--param m must be a number");
  EXPECT_EQ(with({"--param", "m=4"}), "accepted");
  EXPECT_EQ(with({"--seed"}), "missing value for flag");
  EXPECT_EQ(grid_flag_error({"--trials", "2"}), "--scenario is required");
  // A protocol the scenario's family does not run is a usage error too.
  for (const char* scenario : {"asymmetric", "multicommodity"}) {
    const std::string expected =
        std::string("scenario '") + scenario +
        "' runs only the imitation protocol";
    EXPECT_EQ(grid_flag_error({"--scenario", scenario, "--protocols",
                               "exploration"}),
              expected);
    EXPECT_EQ(grid_flag_error({"--scenario", scenario, "--protocols",
                               "imitation,combined:0.5"}),
              expected);
    EXPECT_EQ(grid_flag_error({"--scenario", scenario}), "accepted");
  }
  EXPECT_EQ(with({"--protocols", "exploration"}), "accepted");
  // Bad axis and protocol values stay plain runtime errors.
  EXPECT_THROW(with({"--grid", "n=10:5:log"}), std::runtime_error);
  // Each grid number and the point count are read whole.
  EXPECT_THROW(with({"--grid", "100x:1000:lin:3"}), std::runtime_error);
  EXPECT_THROW(with({"--grid", "100:1000x:log"}), std::runtime_error);
  EXPECT_THROW(with({"--grid", "100:1000:lin:3y"}), std::runtime_error);
  EXPECT_THROW(with({"--grid", "100:1000:log:1e1"}), std::runtime_error);
  EXPECT_THROW(with({"--grid", "100:inf:lin"}), std::runtime_error);
  EXPECT_THROW(with({"--grid", "nan:1000:lin"}), std::runtime_error);
  EXPECT_EQ(with({"--grid", "100:1000:lin:3"}), "accepted");
  EXPECT_THROW(with({"--protocols", "mutation"}), std::runtime_error);
}

TEST(StopRuleSpelling, FormatRoundTripsEveryDoubleExactly) {
  EXPECT_EQ(parse_stop("stable"), StopSpec{StopRule::kImitationStable});
  EXPECT_EQ(parse_stop("nash"), StopSpec{StopRule::kNash});
  EXPECT_EQ(format_stop({StopRule::kNash}), "nash");
  EXPECT_EQ(format_stop({StopRule::kImitationStable}), "stable");
  EXPECT_EQ(format_stop({StopRule::kDeltaEps, 0.1, 0.1}), "deltaeps:0.1,0.1");
  const StopSpec edges[] = {{StopRule::kDeltaEps, 1e-7, 0.3},
                            {StopRule::kDeltaEps, 0.0, 0.0},
                            {StopRule::kDeltaEps, 1.0, 1e300},
                            {StopRule::kDeltaEps, 0.1 + 0.2, 5e-324},
                            {StopRule::kDeltaEps, 1.0 / 3.0, 2.0 / 3.0}};
  for (const StopSpec& spec : edges) {
    const std::string text = format_stop(spec);
    SCOPED_TRACE(text);
    EXPECT_EQ(parse_stop(text), spec);
  }
}

TEST(SweepProtocols, ParsingAndConstruction) {
  const auto specs = parse_protocol_list("imitation,exploration,combined:0.3");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "imitation");
  EXPECT_EQ(specs[1].name, "exploration");
  EXPECT_EQ(specs[2].name, "combined");
  EXPECT_DOUBLE_EQ(specs[2].p_explore, 0.3);
  for (const ProtocolSpec& spec : specs) {
    const auto protocol = make_protocol(spec);
    ASSERT_NE(protocol, nullptr);
    EXPECT_FALSE(protocol->name().empty());
  }
  EXPECT_EQ(make_protocol({.name = "mutation"}), nullptr);
  EXPECT_THROW(parse_protocol_list("imitation,,combined"),
               std::runtime_error);
  EXPECT_THROW(parse_protocol_spec("mutation"), std::runtime_error);
  EXPECT_THROW(parse_protocol_spec("imitation:0.5"), std::runtime_error);
  EXPECT_THROW(parse_protocol_spec("combined:1.5"), std::runtime_error);
}

TEST(SweepScenarios, RegistryIsComplete) {
  for (const char* name :
       {"singleton-uniform", "load-balancing", "network-routing",
        "asymmetric", "multicommodity", "threshold-lb"}) {
    const Scenario* scenario = find_scenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_EQ(scenario->name, name);
    ScenarioSpec spec;
    spec.name = name;
    const auto instance = make_scenario(spec, 64);
    EXPECT_FALSE(instance->describe().empty());
  }
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
  ScenarioSpec unknown;
  unknown.name = "no-such-scenario";
  EXPECT_THROW(make_scenario(unknown, 100), std::runtime_error);
}

TEST(SweepScenarios, AsymmetricRejectsNonImitation) {
  ScenarioSpec spec;
  spec.name = "multicommodity";
  const auto instance = make_scenario(spec, 100);
  ProtocolSpec exploration;
  exploration.name = "exploration";
  Rng rng(1);
  EXPECT_THROW(instance->run_trial(exploration, DynamicsConfig{}, rng),
               std::runtime_error);
}

TEST(SweepScenarios, AsymmetricIgnoresEngineModeAndVirtualAgents) {
  // Class-local imitation always runs the aggregate engine and has no
  // virtual agents: a per-player trial with virtual_agents=2 is the
  // default trial, outcome and RNG stream alike.
  for (const char* name : {"asymmetric", "multicommodity"}) {
    SCOPED_TRACE(name);
    ScenarioSpec spec;
    spec.name = name;
    const auto instance = make_scenario(spec, 500);
    DynamicsConfig dynamics;
    dynamics.max_rounds = 300;
    Rng default_rng(5);
    const TrialOutcome expected =
        instance->run_trial(ProtocolSpec{}, dynamics, default_rng);
    ProtocolSpec virtual_agents;
    virtual_agents.virtual_agents = 2;
    dynamics.mode = EngineMode::kPerPlayer;
    Rng per_player_rng(5);
    EXPECT_EQ(instance->run_trial(virtual_agents, dynamics, per_player_rng),
              expected);
    EXPECT_EQ(per_player_rng.state(), default_rng.state());
    EXPECT_GT(expected.movers, 0);
  }
}

TEST(SweepOutput, WritersProduceExpectedShape) {
  const SweepGrid grid = small_grid();
  const SweepResult result = run_sweep(grid, with_threads(2));
  const std::string prefix = ::testing::TempDir() + "/cid_sweep_out";
  const auto paths = write_sweep_outputs(prefix, result);
  ASSERT_EQ(paths.size(), 4u);
  auto count_lines = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) ++lines;
    return lines;
  };
  // CSV: header + one line per row. JSONL: one object per row.
  EXPECT_EQ(count_lines(paths[0].path), result.trials.size() + 1);
  EXPECT_EQ(count_lines(paths[1].path), result.cells.size() + 1);
  EXPECT_EQ(count_lines(paths[2].path), result.trials.size());
  EXPECT_EQ(count_lines(paths[3].path), result.cells.size());
  for (const auto& file : paths) {
    // The reported byte count is the real file size (the observability
    // summary in cid_sweep depends on it).
    EXPECT_EQ(file.bytes, std::filesystem::file_size(file.path));
    std::remove(file.path.c_str());
  }
}

}  // namespace
}  // namespace cid::sweep
