#include <gtest/gtest.h>

#include "analysis/experiment.hpp"
#include "analysis/trace.hpp"
#include "dynamics/engine.hpp"
#include "game/builders.hpp"
#include "game/potential.hpp"
#include "obs/metrics.hpp"
#include "protocols/imitation.hpp"
#include "util/assert.hpp"

namespace cid {
namespace {

TEST(Experiment, TrialsAreReproducible) {
  const TrialFn trial = [](Rng& rng) { return rng.uniform(); };
  const TrialSet a = run_trials(10, 42, trial);
  const TrialSet b = run_trials(10, 42, trial);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.summary.count, 10u);
  const TrialSet c = run_trials(10, 43, trial);
  EXPECT_NE(a.values, c.values);
}

TEST(Experiment, TrialsAreIndependentStreams) {
  // Identical trial bodies must see different randomness per trial.
  const TrialSet set =
      run_trials(20, 7, [](Rng& rng) { return rng.uniform(); });
  for (std::size_t i = 1; i < set.values.size(); ++i) {
    EXPECT_NE(set.values[i], set.values[0]);
  }
}

TEST(Experiment, EventFrequency) {
  EXPECT_DOUBLE_EQ(event_frequency(50, 1, [](Rng&) { return 1.0; }), 1.0);
  EXPECT_DOUBLE_EQ(event_frequency(50, 1, [](Rng&) { return 0.0; }), 0.0);
  const double freq = event_frequency(
      4000, 1, [](Rng& rng) { return rng.bernoulli(0.3) ? 1.0 : 0.0; });
  EXPECT_NEAR(freq, 0.3, 0.03);
}

TEST(Experiment, Validation) {
  EXPECT_THROW(run_trials(0, 1, [](Rng&) { return 0.0; }),
               invariant_violation);
  EXPECT_THROW(run_trials(1, 1, TrialFn{}), invariant_violation);
}

TEST(PotentialTracker, ResyncMatchesFullRebuildAndCountsIt) {
  const auto game = make_uniform_links_game(4, make_monomial(1.0, 2.0), 160);
  Rng rng(13);
  State x = State::uniform_random(game, rng);
  PotentialTracker tracker(game, x);

  auto& registry = obs::global_metrics();
  const auto resyncs = registry.counter("analysis.potential_resyncs");
  // Construction already resynced once (it IS a full recomputation).
  const std::int64_t before = registry.value(resyncs);

  // Drift the tracker through incremental apply() updates, then resync:
  // the result must be exactly the from-scratch potential — resync is a
  // full rebuild, not a correction of the incremental estimate.
  const ImitationProtocol protocol;
  RunOptions opts;
  opts.max_rounds = 30;
  const RoundObserver track = [&](const CongestionGame& g, const State& s,
                                  std::span<const Migration> moves,
                                  std::int64_t, bool final) {
    if (!final) tracker.apply(g, s, moves);
  };
  run_dynamics(game, x, protocol, rng, {.options = opts, .observer = track});
  EXPECT_NEAR(tracker.value(), game.potential(x),
              1e-7 * (1.0 + game.potential(x)));

  tracker.resync(game, x);
  EXPECT_EQ(tracker.value(), game.potential(x));
  EXPECT_EQ(registry.value(resyncs) - before, 1);
  EXPECT_GE(before, 1);
}

TEST(TraceRecorder, PotentialMatchesExactRecomputation) {
  const auto game = make_uniform_links_game(4, make_monomial(1.0, 2.0), 200);
  Rng rng(3);
  State x(game, {120, 40, 30, 10});
  TraceRecorder recorder(game, x);
  const ImitationProtocol protocol;
  RunOptions opts;
  opts.max_rounds = 25;
  run_dynamics(game, x, protocol, rng,
               {.options = opts, .observer = recorder.observer()});
  EXPECT_NEAR(recorder.current_potential(), game.potential(x),
              1e-7 * (1.0 + game.potential(x)));
  // Records: rounds 0..24 at interval 1, plus final flush.
  EXPECT_EQ(recorder.records().size(), 26u);
  EXPECT_EQ(recorder.records().front().round, 0);
  EXPECT_EQ(recorder.records().back().round, 25);
}

TEST(TraceRecorder, SamplingIntervalDownsamples) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 100);
  Rng rng(4);
  State x(game, {90, 10});
  TraceRecorder recorder(game, x, 10);
  const ImitationProtocol protocol;
  RunOptions opts;
  opts.max_rounds = 35;
  run_dynamics(game, x, protocol, rng,
               {.options = opts, .observer = recorder.observer()});
  // Rounds 0, 10, 20, 30 + final flush at 35.
  EXPECT_EQ(recorder.records().size(), 5u);
  // Potential tracker must remain exact despite downsampling.
  EXPECT_NEAR(recorder.current_potential(), game.potential(x), 1e-9);
}

TEST(TraceRecorder, TableHasExpectedShape) {
  const auto game = make_uniform_links_game(2, make_linear(1.0), 50);
  Rng rng(5);
  State x(game, {40, 10});
  TraceRecorder recorder(game, x);
  const ImitationProtocol protocol;
  RunOptions opts;
  opts.max_rounds = 3;
  run_dynamics(game, x, protocol, rng,
               {.options = opts, .observer = recorder.observer()});
  const Table t = recorder.to_table();
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_NE(t.to_string().find("potential"), std::string::npos);
}

}  // namespace
}  // namespace cid
