// Quickstart: run the IMITATION PROTOCOL on a small load-balancing game and
// watch the potential decrease to an imitation-stable state.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "cid/cid.hpp"

int main() {
  // 4 parallel links with latency ℓ_e(x) = a_e·x, 400 players, all of whom
  // start on the slowest link (plus one scout on each other link so that
  // imitation has something to copy).
  std::vector<cid::LatencyPtr> latencies{
      cid::make_linear(4.0), cid::make_linear(2.0), cid::make_linear(1.0),
      cid::make_linear(1.0)};
  const auto game = cid::make_singleton_game(std::move(latencies), 400);
  std::printf("game: %s\n", game.describe().c_str());

  cid::Rng rng(2024);
  cid::State x(game, {397, 1, 1, 1});

  const cid::ImitationProtocol protocol;  // Protocol 1, default λ = 1/4
  cid::obs::TelemetryRecorder telemetry(/*every=*/10);

  cid::RunOptions options;
  options.max_rounds = 5000;
  const auto stop = [](const cid::CongestionGame& g, const cid::State& s,
                       std::int64_t) {
    return cid::is_imitation_stable(g, s, g.nu());
  };
  const cid::RunResult result = cid::run_dynamics(
      game, x, protocol, rng,
      {.options = options, .stop = stop, .observer = telemetry.observer()});

  telemetry.finish(result.converged);
  cid::obs::telemetry_table(telemetry.records())
      .print("imitation dynamics telemetry (every 10th round)");
  std::printf("\nconverged: %s after %lld rounds (%lld migrations)\n",
              result.converged ? "yes" : "no",
              static_cast<long long>(result.rounds),
              static_cast<long long>(result.total_movers));
  std::printf("final loads:");
  for (cid::StrategyId p = 0; p < game.num_strategies(); ++p) {
    std::printf(" %lld", static_cast<long long>(x.count(p)));
  }
  std::printf("\nimitation-stable: %s, exact Nash: %s\n",
              cid::is_imitation_stable(game, x, game.nu()) ? "yes" : "no",
              cid::is_nash(game, x) ? "yes" : "no");
  return 0;
}
