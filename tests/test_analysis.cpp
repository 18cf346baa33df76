#include <gtest/gtest.h>

#include "analysis/experiment.hpp"
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

}  // namespace
}  // namespace cid
