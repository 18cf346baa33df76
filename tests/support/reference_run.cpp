#include "support/reference_run.hpp"

#include <stdexcept>

#include "dynamics/equilibrium.hpp"
#include "game/latency_context.hpp"
#include "util/assert.hpp"

namespace cid::test {

StopPredicate make_stop(const sweep::DynamicsConfig& dynamics) {
  switch (dynamics.stop) {
    case sweep::StopRule::kImitationStable:
      return [](const CongestionGame& g, const State& s, std::int64_t) {
        return is_imitation_stable(g, s, g.nu());
      };
    case sweep::StopRule::kNash:
      return [](const CongestionGame& g, const State& s, std::int64_t) {
        return is_nash(g, s);
      };
    case sweep::StopRule::kDeltaEps: {
      const double delta = dynamics.delta, eps = dynamics.eps;
      return [delta, eps](const CongestionGame& g, const State& s,
                          std::int64_t) {
        return is_delta_eps_equilibrium(g, s, delta, eps);
      };
    }
  }
  throw std::runtime_error("unhandled stop rule");
}

RunResult run_reference(const CongestionGame& game, State& x,
                        const Protocol& protocol, Rng& rng,
                        const EngineInvocation& call) {
  const RunOptions& options = call.options;
  CID_ENSURE(options.check_interval >= 1, "check_interval must be >= 1");
  CID_ENSURE(!(static_cast<bool>(call.stop) &&
               static_cast<bool>(call.cached_stop)),
             "EngineInvocation: at most one stop predicate may be set");
  const bool has_stop = static_cast<bool>(call.stop) ||
                        static_cast<bool>(call.cached_stop);
  LatencyContext ctx;  // rebuilt per check: no incremental-cache state
  const auto stop_now = [&](std::int64_t round) {
    if (static_cast<bool>(call.cached_stop)) {
      ctx.reset(game, x);
      return call.cached_stop(ctx);
    }
    return call.stop(game, x, round);
  };
  RunResult result;
  result.rounds = options.start_round;
  for (; result.rounds < options.max_rounds; ++result.rounds) {
    if (has_stop && result.rounds % options.check_interval == 0 &&
        stop_now(result.rounds)) {
      result.converged = true;
      break;
    }
    const RoundResult rr =
        draw_round_reference(game, x, protocol, rng, options.mode);
    if (call.observer) call.observer(game, x, rr.moves, result.rounds, false);
    x.apply(game, rr.moves);
    result.total_movers += rr.movers;
  }
  if (!result.converged && has_stop && stop_now(result.rounds)) {
    result.converged = true;
  }
  if (call.observer) call.observer(game, x, {}, result.rounds, true);
  return result;
}

AsymmetricReferenceRun run_asymmetric_reference(
    const AsymmetricGame& game, AsymmetricState& x,
    const AsymmetricImitationParams& params, Rng& rng,
    const sweep::DynamicsConfig& dynamics, std::int64_t start_round,
    const ClassRoundObserver& observer) {
  CID_ENSURE(dynamics.check_interval >= 1, "check_interval must be >= 1");
  const auto stopped = [&] {
    return dynamics.stop == sweep::StopRule::kNash
               ? is_asymmetric_nash(game, x)
               : is_asymmetric_imitation_stable(game, x, game.nu());
  };
  AsymmetricReferenceRun run;
  run.rounds = start_round;
  for (; run.rounds < dynamics.max_rounds; ++run.rounds) {
    if (run.rounds % dynamics.check_interval == 0 && stopped()) {
      run.converged = true;
      break;
    }
    const AsymmetricRoundResult rr =
        draw_asymmetric_round_reference(game, x, params, rng);
    if (observer) observer(game, x, rr.moves, run.rounds, false);
    x.apply(game, rr.moves);
    run.total_movers += rr.movers;
  }
  if (!run.converged && stopped()) run.converged = true;
  if (observer) observer(game, x, {}, run.rounds, true);
  return run;
}

}  // namespace cid::test
