// The §6 story in one run: pure imitation can stabilize in a bad state when
// good strategies are unused ("strategies are lost"); adding exploration
// (Protocol 2 / the 50-50 combined protocol) recovers convergence to a Nash
// equilibrium, at the price of slower convergence.
//
// Build & run:  ./build/examples/exploration_vs_imitation
#include <cstdio>

#include "cid/cid.hpp"

namespace {

struct Outcome {
  std::int64_t rounds = 0;
  bool nash = false;
  double social_cost = 0.0;
  std::int64_t fast_link_load = 0;
};

Outcome run(const cid::CongestionGame& game, const cid::Protocol& protocol,
            std::uint64_t seed, std::int64_t max_rounds) {
  cid::Rng rng(seed);
  // Everyone piles onto the two slow links; the fast link (id 2) is unused.
  cid::State x(game, {game.num_players() / 2,
                      game.num_players() - game.num_players() / 2, 0});
  cid::RunOptions options;
  options.max_rounds = max_rounds;
  options.check_interval = 32;
  const auto result = cid::run_dynamics(
      game, x, protocol, rng,
      {.options = options,
       .stop = [](const cid::CongestionGame& g, const cid::State& s,
                  std::int64_t) { return cid::is_nash(g, s); }});
  return Outcome{result.rounds, cid::is_nash(game, x),
                 cid::social_cost(game, x), x.count(2)};
}

}  // namespace

int main() {
  // Two slow links (a=2) and one fast link (a=0.5) that nobody uses.
  std::vector<cid::LatencyPtr> latencies{
      cid::make_linear(2.0), cid::make_linear(2.0), cid::make_linear(0.5)};
  const auto game = cid::make_singleton_game(std::move(latencies), 300);
  std::printf("game: %s — link 2 is fast but initially unused\n\n",
              game.describe().c_str());

  const cid::ImitationProtocol imitation;
  const cid::ExplorationProtocol exploration;
  const cid::CombinedProtocol combined(cid::ImitationParams{},
                                       cid::ExplorationParams{}, 0.5);

  cid::Table table(
      {"protocol", "rounds (cap 2e5)", "Nash?", "social cost", "load on fast"});
  for (const auto& entry :
       std::initializer_list<std::pair<const char*, const cid::Protocol*>>{
           {"imitation", &imitation},
           {"exploration", &exploration},
           {"combined 50/50", &combined}}) {
    const Outcome o = run(game, *entry.second, 99, 200000);
    table.row()
        .cell(entry.first)
        .cell(o.rounds)
        .cell(o.nash ? "yes" : "no")
        .cell(o.social_cost, 3)
        .cell(o.fast_link_load);
  }
  table.print("reaching Nash from a state with the best link unused");
  std::printf(
      "\nImitation alone never discovers link 2 (it is not innovative);\n"
      "exploration and the combined protocol both converge to Nash, and\n"
      "the combined protocol keeps imitation's fast equilibration.\n");
  return 0;
}
