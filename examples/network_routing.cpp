// Network routing: the paper's headline setting (§2.1). Players route
// traffic through a layered network with polynomial edge latencies; we track
// how fast the concurrent imitation dynamics reach a (δ,ε,ν)-equilibrium
// (Definition 1), then keep running to an imitation-stable state, and
// compare against the sequential best-response baseline.
//
// Note a subtlety of Definition 1 this example surfaces: a state with all
// players on one path satisfies it *trivially* (everyone sits at the
// average), which is why we start from the paper's random initialization.
//
// Build & run:  ./build/examples/network_routing
#include <cstdio>

#include "cid/cid.hpp"

int main() {
  // 2-deep, 3-wide layered network: 9 s-t paths, 15 edges; mixed linear /
  // quadratic edge latencies (elasticity d = 2).
  const auto net = cid::make_layered_network(3, 2);
  cid::Rng latency_rng(7);
  std::vector<cid::LatencyPtr> fns;
  for (cid::EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    const double a = 0.5 + latency_rng.uniform();
    if (latency_rng.bernoulli(0.5)) {
      fns.push_back(cid::make_linear(a));
    } else {
      fns.push_back(cid::make_monomial(0.05 * a, 2.0));
    }
  }
  const std::int64_t n = 5000;
  const auto game = cid::make_network_game(net, std::move(fns), n);
  std::printf("network game: %s\n", game.describe().c_str());

  cid::Rng rng(11);
  cid::State x = cid::State::uniform_random(game, rng);

  const double delta = 0.02, eps = 0.05;
  std::int64_t first_approx_round = -1;
  const cid::ImitationProtocol protocol;
  cid::obs::TelemetryRecorder telemetry(25);
  cid::RunOptions options;
  options.max_rounds = 100000;
  const auto result = cid::run_dynamics(
      game, x, protocol, rng,
      {.options = options,
       .stop = [&](const cid::CongestionGame& g, const cid::State& s,
                   std::int64_t round) {
         if (first_approx_round < 0 &&
             cid::is_delta_eps_equilibrium(g, s, delta, eps)) {
           first_approx_round = round;
         }
         return cid::is_imitation_stable(g, s, g.nu());
       },
       .observer = telemetry.observer()});

  telemetry.finish(result.converged);
  cid::obs::telemetry_table(telemetry.records())
      .print("imitation on a 3x2 layered network (n=5000)");
  const auto report = cid::check_delta_eps_nu(game, x, delta, eps, game.nu());
  std::printf(
      "\nfirst (delta=%.2f, eps=%.2f, nu=%.2f)-equilibrium at round %lld\n"
      "imitation-stable after %lld rounds (converged: %s)\n"
      "final unsatisfied player mass: %.4f (expensive %.4f, cheap %.4f)\n"
      "L_av = %.3f, L+_av = %.3f, makespan = %.3f, Nash gap = %.3f\n",
      delta, eps, game.nu(), static_cast<long long>(first_approx_round),
      static_cast<long long>(result.rounds),
      result.converged ? "yes" : "no", report.unsatisfied_mass,
      report.expensive_mass, report.cheap_mass, report.average_latency,
      report.plus_average_latency, cid::makespan(game, x),
      cid::nash_gap(game, x));

  // Sequential baseline from the same kind of start: one player moves per
  // step — concurrency is the whole point of the paper's protocol.
  cid::Rng rng2(12);
  cid::State y = cid::State::uniform_random(game, rng2);
  const auto br = cid::run_best_response(game, y, 10 * n);
  std::printf(
      "\nbaseline: sequential best response needed %lld single-player steps "
      "to exact Nash\n(vs %lld concurrent rounds to imitation-stability).\n",
      static_cast<long long>(br.steps), static_cast<long long>(result.rounds));
  return 0;
}
