// Golden outcome bits for outcome semantics v2.
//
// A tiny fixed grid of three families — load-balancing, network-routing
// and asymmetric — runs through run_sweep, and every trial's (Φ, social
// cost, rounds) must equal the IEEE-754 bit patterns checked in under
// tests/fixtures/golden/outcomes_v2.txt. The byte-compare suites prove
// outcomes agree across threads, resumes, shards and builds; this fixture
// proves they agree with the outcomes recorded when v2 was defined, so a
// change to Φ, the trial streams or the stop predicates cannot land
// silently. A deliberate change bumps kOutcomeSemantics and checks in a
// new fixture (the failure message prints its full text).
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "persist/binio.hpp"
#include "sweep/runner.hpp"

#ifndef CID_GOLDEN_FIXTURE
#error "CID_GOLDEN_FIXTURE must point at tests/fixtures/golden/outcomes_v2.txt"
#endif

namespace cid::sweep {
namespace {

SweepGrid golden_grid(const std::string& scenario,
                      const std::string& protocols) {
  SweepGrid grid;
  grid.scenario.name = scenario;
  grid.protocols = parse_protocol_list(protocols);
  grid.ns = {200, 5000};
  grid.trials = 2;
  grid.master_seed = 7;
  grid.dynamics.max_rounds = 300;
  return grid;
}

std::string hex(double value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64,
                std::bit_cast<std::uint64_t>(value));
  return buf;
}

/// One line per trial: scenario cell trial Φ social_cost rounds.
std::string golden_lines() {
  std::ostringstream out;
  const std::pair<const char*, const char*> grids[] = {
      {"load-balancing", "imitation,exploration"},
      {"network-routing", "imitation,combined"},
      {"asymmetric", "imitation"},
  };
  for (const auto& [scenario, protocols] : grids) {
    const SweepResult result = run_sweep(golden_grid(scenario, protocols));
    for (const TrialRow& row : result.trials) {
      out << scenario << ' ' << row.key.cell << ' ' << row.trial << ' '
          << hex(row.outcome.potential) << ' '
          << hex(row.outcome.social_cost) << ' ' << hex(row.outcome.rounds)
          << '\n';
    }
  }
  return out.str();
}

TEST(GoldenBits, OutcomesMatchTheV2Fixture) {
  ASSERT_EQ(persist::kOutcomeSemantics, 2u)
      << "a new outcome semantics needs a new golden fixture";
  std::ifstream in(CID_GOLDEN_FIXTURE);
  ASSERT_TRUE(in) << "cannot read " << CID_GOLDEN_FIXTURE;
  std::string expected;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    expected += line + '\n';
  }
  const std::string actual = golden_lines();
  EXPECT_EQ(actual, expected) << "outcome bits drifted; the current bits "
                                 "are:\n"
                              << actual;
}

}  // namespace
}  // namespace cid::sweep
