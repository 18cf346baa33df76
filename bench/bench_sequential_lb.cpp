// E8 — Theorem 6: sequential imitation dynamics can require exponentially
// many steps. The paper's construction chains PLS reductions from MaxCut
// through (quadratic) threshold games, then triples every player so that
// the dynamics are pure *imitation* moves.
//
// What this bench reproduces (the substitution is noted at the end):
//   1. the reduction machinery given in §3.2 itself — quadratic threshold
//      games from MaxCut and the ×3 tripling — with its invariants checked
//      at runtime (improvement sets match MaxCut flips; copies never
//      coalesce; tripled imitation replays the base dynamics one-for-one);
//   2. exact certification of improvement-sequence lengths on the MaxCut
//      side: BFS-shortest and DP-longest paths through the improving-flip
//      DAG, plus pivot-rule runs, as instance size grows.
// The paper imports its exponential instance family from ARV [FOCS'06]
// (not restated in this paper); on random instances the *longest*
// (adversarial-pivot) sequences grow rapidly while shortest ones stay
// small — the gap the construction exploits.
#include <cmath>
#include <cstdio>

#include "common.hpp"

using namespace cid;

int main() {
  std::printf(
      "E8 / Theorem 6 — sequential imitation lower-bound machinery\n\n");

  // Part A: sequence-length statistics on random MaxCut instances.
  Table ta({"nodes", "BFS shortest", "DP longest", "first-improving run",
            "worst-pivot run"});
  std::vector<double> sizes, longest;
  Rng master(0xE8);
  for (int nodes : {6, 8, 10, 12, 14, 16}) {
    double sh = 0.0, lo = 0.0, fi = 0.0, wp = 0.0;
    const int kTrials = 8;
    for (int trial = 0; trial < kTrials; ++trial) {
      Rng rng = master.split(static_cast<std::uint64_t>(nodes * 100 + trial));
      const auto inst = MaxCutInstance::random(nodes, 0.7, 1000, rng);
      const std::uint32_t start = 0;
      sh += static_cast<double>(bfs_shortest_to_local_opt(inst, start));
      lo += static_cast<double>(dp_longest_improvement_path(inst, start));
      Rng r2 = rng.split(7);
      fi += static_cast<double>(
          run_flip_local_search(inst, start, PivotRule::kFirstImproving, r2,
                                1 << 22)
              .steps);
      wp += static_cast<double>(
          run_flip_local_search(inst, start, PivotRule::kWorstImproving, r2,
                                1 << 22)
              .steps);
    }
    ta.row()
        .cell(nodes)
        .cell(sh / kTrials, 1)
        .cell(lo / kTrials, 1)
        .cell(fi / kTrials, 1)
        .cell(wp / kTrials, 1);
    sizes.push_back(static_cast<double>(nodes));
    longest.push_back(lo / kTrials);
  }
  ta.print("Part A: improvement-sequence lengths, random MaxCut (8 trials)");
  const LinearFit fit = linear_fit(sizes, [&] {
    std::vector<double> logs;
    for (double v : longest) logs.push_back(std::log2(v));
    return logs;
  }());
  std::printf(
      "\nfit: log2(DP longest) ~ %.2f + %.3f*nodes (R^2=%.2f) — the\n"
      "adversarial-pivot sequence length grows exponentially with size,\n"
      "the raw material of the Theorem 6 construction. (The engineered\n"
      "ARV family forces even the *shortest* sequence to be exponential.)\n\n",
      fit.intercept, fit.slope, fit.r_squared);

  // Part B: the §3.2 tripling — imitation replays base-game dynamics.
  Table tb({"nodes", "base BR steps", "tripled imitation steps", "equal?",
            "copies coalesced?"});
  bool all_equal = true;
  for (int nodes : {4, 6, 8, 10, 12}) {
    Rng rng = master.split(static_cast<std::uint64_t>(nodes));
    const auto inst = MaxCutInstance::random(nodes, 0.7, 1000, rng);
    const auto cut = static_cast<std::uint32_t>(
        rng.uniform_int(1u << nodes));
    const auto qt = make_quadratic_threshold(inst);
    ThresholdState base_state = state_from_cut(qt.game, cut);
    const auto base_run =
        run_threshold_best_response(qt.game, base_state, 1 << 22);

    const auto tg = triple_quadratic_threshold(inst);
    ThresholdState ts = tripled_initial_state(tg, cut);
    bool coalesced = false;
    std::int64_t steps = 0;
    for (;; ++steps) {
      for (std::int32_t i = 0; i < tg.base_players && !coalesced; ++i) {
        const int in_count = static_cast<int>(ts.plays_in(tg.copy(i, 0))) +
                             static_cast<int>(ts.plays_in(tg.copy(i, 1))) +
                             static_cast<int>(ts.plays_in(tg.copy(i, 2)));
        coalesced = in_count == 0 || in_count == 3;
      }
      const auto one = run_tripled_imitation(tg, ts, 1);
      if (one.converged) break;
    }
    all_equal = all_equal && steps == base_run.steps;
    tb.row()
        .cell(nodes)
        .cell(base_run.steps)
        .cell(steps)
        .cell(steps == base_run.steps ? "yes" : "NO")
        .cell(coalesced ? "YES (bug)" : "no");
  }
  tb.print("Part B: tripled imitation == base best response, flip for flip");
  std::printf(
      "\nReading: the tripled game's *imitation-only* dynamics execute\n"
      "exactly the base game's improvement sequence (%s), and the three\n"
      "copies never coalesce, so no strategy is ever lost — §3.2's\n"
      "argument. Any exponential base sequence therefore yields an\n"
      "exponential imitation sequence: Theorem 6.\n",
      all_equal ? "verified on all rows" : "VIOLATED");
  return 0;
}
