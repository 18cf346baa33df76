// Load balancing on heterogeneous linear links (paper §5): the Price of
// Imitation in action. Players are placed uniformly at random, run the
// IMITATION PROTOCOL to an imitation-stable state, and the resulting social
// cost is compared to the fractional optimum n/A_Γ (Theorem 10 predicts a
// factor ≤ 3 + o(1); in practice it is very close to 1).
//
// Build & run:  ./build/examples/load_balancing
#include <cstdio>

#include "cid/cid.hpp"

int main() {
  const std::int64_t n = 10000;
  // Heterogeneous machines: speed ratios 1..5 (a_e = 1/speed-like).
  std::vector<cid::LatencyPtr> latencies;
  for (double a : {1.0, 1.5, 2.0, 3.0, 5.0}) {
    latencies.push_back(cid::make_linear(a));
  }
  const auto game = cid::make_singleton_game(std::move(latencies), n);
  const auto analysis = cid::analyze_linear_singleton(game);
  std::printf("game: %s\n", game.describe().c_str());
  std::printf("A_Gamma = %.4f, fractional optimum cost n/A = %.3f\n",
              analysis.a_gamma, analysis.fractional_cost);
  for (std::size_t e = 0; e < analysis.fractional_opt.size(); ++e) {
    std::printf("  link %zu: a=%.1f  x~=%.1f%s\n", e,
                analysis.coefficients[e], analysis.fractional_opt[e],
                analysis.useless[e] ? "  (useless)" : "");
  }

  cid::Table table({"trial", "rounds", "social cost", "ratio vs opt",
                    "makespan", "extinction?"});
  cid::Rng master(31337);
  double worst_ratio = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    cid::Rng rng = master.split(static_cast<std::uint64_t>(trial));
    cid::State x = cid::State::uniform_random(game, rng);
    const cid::State initial = x;
    const cid::ImitationProtocol protocol;
    cid::RunOptions options;
    options.max_rounds = 100000;
    options.check_interval = 8;
    const auto result = cid::run_dynamics(
        game, x, protocol, rng,
        {.options = options,
         .stop = [](const cid::CongestionGame& g, const cid::State& s,
                    std::int64_t) {
           return cid::is_imitation_stable(g, s, g.nu());
         }});
    const double sc = cid::social_cost(game, x);
    const double ratio = sc / analysis.fractional_cost;
    worst_ratio = std::max(worst_ratio, ratio);
    table.row()
        .cell(static_cast<std::int64_t>(trial))
        .cell(result.rounds)
        .cell(sc, 3)
        .cell(ratio, 4)
        .cell(cid::makespan(game, x), 3)
        .cell(cid::any_resource_extinct(initial, x) ? "yes" : "no");
  }
  table.print("price of imitation, 5 linear links, n=10000, 10 trials");
  std::printf("\nworst ratio %.4f — Theorem 10 bound is 3 + o(1)\n",
              worst_ratio);
  return 0;
}
