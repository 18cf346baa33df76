// Tests-only whole-run reference loops over the per-pair oracles.
//
// The production engine has one round path: the batched kernel
// (dynamics/engine_kernel.hpp run_dynamics<K>), which the asymmetric
// scenarios drive with ClassImitationKernel on their flat game. These
// loops run the same process — stop check at `check_interval` in absolute round numbers,
// draw against the pre-round state, observe, apply — but every round goes
// through the per-pair reference oracle (draw_round_reference in
// support/reference_round.hpp / draw_asymmetric_round_reference) and every stop check through the
// context-free predicates, with no latency cache anywhere. The oracle
// suites compare whole runs, trials, and resumed trials against them bit
// for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "dynamics/engine.hpp"
#include "game/asymmetric.hpp"
#include "support/reference_round.hpp"
#include "sweep/scenario.hpp"
#include "util/rng.hpp"

namespace cid::test {

/// Context-free stop predicates for a scenario stop rule: the verdicts the
/// symmetric trials' cached predicates must reproduce.
StopPredicate make_stop(const sweep::DynamicsConfig& dynamics);

/// Symmetric reference run, a drop-in for run_dynamics: same options,
/// stop predicates, observer protocol, and round numbering, but every
/// round is draw_round_reference over VirtualKernel(protocol) and every
/// call.cached_stop check gets a freshly rebuilt LatencyContext.
/// `latency_evals` stays 0 (the oracle does not meter), and
/// options.metrics is ignored.
RunResult run_reference(const CongestionGame& game, State& x,
                        const Protocol& protocol, Rng& rng,
                        const EngineInvocation& call);

/// The class-wise observer of run_asymmetric_reference, with
/// RoundObserver's call protocol.
using ClassRoundObserver = std::function<void(
    const AsymmetricGame&, const AsymmetricState& x,
    std::span<const ClassMigration> moves, std::int64_t round, bool final)>;

struct AsymmetricReferenceRun {
  std::int64_t rounds = 0;        // completed rounds (absolute index)
  bool converged = false;
  std::int64_t total_movers = 0;  // migrations summed over this call
};

/// Asymmetric reference run over [start_round, dynamics.max_rounds): the
/// scenario loop's semantics with draw_asymmetric_round_reference rounds
/// and the context-free class-wise predicates (kNash checks exact
/// class-wise Nash; every other rule checks class-wise nu-stability). The
/// optional observer sees each pre-round state with its moves, then the
/// final state with `final = true`.
AsymmetricReferenceRun run_asymmetric_reference(
    const AsymmetricGame& game, AsymmetricState& x,
    const AsymmetricImitationParams& params, Rng& rng,
    const sweep::DynamicsConfig& dynamics, std::int64_t start_round = 0,
    const ClassRoundObserver& observer = {});

}  // namespace cid::test
