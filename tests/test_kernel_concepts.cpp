// ProtocolKernel / LatencyKernel concept suite.
//
// The engine redesign (protocols/kernel.hpp, dynamics/engine_kernel.hpp,
// latency/kernel.hpp) must be invisible at the bit level. This suite pins:
//
//   1. concept level — every paper protocol's kernel models ProtocolKernel
//      (and the virtual classes do NOT — the concept really separates the
//      two interfaces); LatencyTable models LatencyKernel; the class-local
//      imitation kernel models ProtocolKernel, and a kernel without
//      row_block does not;
//   2. dispatch level — dispatch_protocol_kernel resolves each concrete
//      protocol to its monomorphized kernel and falls back to
//      VirtualKernel for unrecognized protocols;
//   3. latency level — LatencyTable::value reproduces every registered
//      latency-function shape (constant, linear, affine, monomial,
//      polynomial, scaled, and the opaque exponential fallback) bitwise at
//      the integer loads the engines evaluate and at fractional and huge
//      arguments (LatencyTable::potential, the closed-form Φ, has its own
//      suite: tests/test_closed_form.cpp);
//   4. row level — each monomorphized kernel's fill_row (the SIMD select
//      loop on singleton games) is bitwise-identical to the virtual
//      fill_move_probabilities row, sustained across incremental cache
//      refreshes;
//   5. round/run level — the templated draw_round<K> / run_dynamics<K>
//      over the monomorphized kernel, the same templates over
//      VirtualKernel, the type-erased Protocol frontend, and the per-pair
//      reference oracle all produce identical Migration lists AND consume
//      the RNG stream identically, including under row_threads ∈ {1,2,4};
//   6. API level — EngineInvocation's two stop-predicate forms are
//      consulted on the same rounds, and setting both is rejected.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "dynamics/engine.hpp"
#include "dynamics/engine_kernel.hpp"
#include "game/builders.hpp"
#include "game/latency_context.hpp"
#include "latency/kernel.hpp"
#include "latency/latency.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"
#include "protocols/kernel.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

// ---- 1. Concept membership --------------------------------------------------

static_assert(ProtocolKernel<VirtualKernel>);
static_assert(ProtocolKernel<ImitationKernel>);
static_assert(ProtocolKernel<ExplorationKernel>);
static_assert(ProtocolKernel<CombinedKernel>);
// The virtual classes expose fill_move_probabilities, not fill_row: the
// concept genuinely separates the two interfaces instead of accepting
// anything protocol-shaped.
static_assert(!ProtocolKernel<ImitationProtocol>);
static_assert(!ProtocolKernel<ExplorationProtocol>);
static_assert(!ProtocolKernel<CombinedProtocol>);

static_assert(LatencyKernel<LatencyTable>);
// LatencyFunction::value takes one argument (no resource index) — not a
// table.
static_assert(!LatencyKernel<LatencyFunction>);

static_assert(ProtocolKernel<ClassImitationKernel>);

/// Every ProtocolKernel member but row_block: the destination block is
/// part of the concept, not an optional extra.
struct NoRowBlockKernel {
  void fill_row(const CongestionGame&, const LatencyContext&, StrategyId,
                std::span<double>) const {}
  bool row_provably_zero(const CongestionGame&, const LatencyContext&,
                         StrategyId, const RowBounds&) const {
    return false;
  }
  double move_probability(const CongestionGame&, const State&, StrategyId,
                          StrategyId) const {
    return 0.0;
  }
  std::string name() const { return "no-row-block"; }
};
static_assert(!ProtocolKernel<NoRowBlockKernel>);

// ---- 2. Kernel dispatch -----------------------------------------------------

template <typename Expected>
bool dispatches_to(const Protocol& protocol) {
  return dispatch_protocol_kernel(protocol, [](const auto& kernel) {
    return std::is_same_v<std::decay_t<decltype(kernel)>, Expected>;
  });
}

TEST(KernelDispatch, ConcreteProtocolsGetMonomorphizedKernels) {
  const ImitationProtocol imitation;
  const ExplorationProtocol exploration;
  const CombinedProtocol combined{ImitationParams{}, ExplorationParams{},
                                  0.5};
  EXPECT_TRUE(dispatches_to<ImitationKernel>(imitation));
  EXPECT_TRUE(dispatches_to<ExplorationKernel>(exploration));
  EXPECT_TRUE(dispatches_to<CombinedKernel>(combined));
}

TEST(KernelDispatch, UnrecognizedProtocolFallsBackToVirtualKernel) {
  // A protocol type the dispatch chain has never heard of must still run —
  // correct immediately via the VirtualKernel adapter, no engine changes.
  // (Wrapping rather than deriving: a subclass of ImitationProtocol would
  // still be caught by the dynamic_cast chain.)
  class OpaqueProtocol final : public Protocol {
   public:
    double move_probability(const CongestionGame& game, const State& x,
                            StrategyId from, StrategyId to) const override {
      return inner_.move_probability(game, x, from, to);
    }
    std::string name() const override { return "opaque"; }

   private:
    ImitationProtocol inner_;
  };
  const OpaqueProtocol opaque;
  EXPECT_TRUE(dispatches_to<VirtualKernel>(opaque));
  EXPECT_EQ(VirtualKernel(opaque).name(), opaque.name());

  // And the fallback actually runs: one round on a real game.
  const auto game = make_monomial_fan_game(8, 1.0, 1.0, 500);
  Rng rng(3);
  State x = State::uniform_random(game, rng);
  const RoundResult rr =
      draw_round(game, x, opaque, rng, EngineMode::kAggregate);
  EXPECT_GE(rr.movers, 0);
}

// ---- 3. LatencyTable vs virtual latency functions ---------------------------

TEST(LatencyTableKernel, BitwiseMatchesEveryFunctionShape) {
  // One of each registered shape, including nesting that exercises the
  // ScaledLatency divisor and the opaque virtual fallback.
  std::vector<LatencyPtr> fns;
  fns.push_back(make_constant(2.5));
  fns.push_back(make_linear(1.5));
  fns.push_back(make_affine(0.5, 2.0));
  fns.push_back(make_monomial(0.7, 2.0));
  fns.push_back(make_monomial(3.0, 0.0));  // degree-0 monomial special case
  fns.push_back(make_polynomial({1.0, 0.0, 3.0, 0.5}));
  fns.push_back(make_polynomial({4.0}));
  fns.push_back(make_scaled(make_monomial(0.9, 3.0), 50));
  fns.push_back(make_scaled(make_polynomial({0.0, 2.0, 1.0}), 10));
  fns.push_back(make_exponential(1.1, 0.2));  // opaque fallback entry

  LatencyTable table;
  table.reserve(fns.size());
  for (const auto& fn : fns) table.add(*fn);
  ASSERT_EQ(table.size(), fns.size());

  // Whole loads, then the monomial helper's other branches: fractional
  // arguments and whole numbers past its exact-square range.
  std::vector<double> xs;
  for (std::int64_t load = 0; load <= 200; ++load) {
    xs.push_back(static_cast<double>(load));
  }
  for (const double x : {0.5, 2.25, 12345.678, 9e7, 9e7 + 1.0, 1.5e8}) {
    xs.push_back(x);
  }
  for (std::size_t e = 0; e < fns.size(); ++e) {
    SCOPED_TRACE("entry " + std::to_string(e));
    for (const double x : xs) {
      // Bitwise: EXPECT_EQ on doubles, never EXPECT_NEAR.
      ASSERT_EQ(table.value(e, x), fns[e]->value(x)) << "x " << x;
    }
  }
}

// ---- 4. Row-level kernel identity -------------------------------------------

CongestionGame network_game_k8(std::int64_t n) {
  const auto net = make_layered_network(2, 3);
  Rng latency_rng(11);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    fns.push_back(make_monomial(0.5 + latency_rng.uniform(),
                                latency_rng.bernoulli(0.5) ? 1.0 : 2.0));
  }
  return make_network_game(net, std::move(fns), n);
}

template <typename KernelT, typename ProtocolT>
void expect_rows_match_protocol(const CongestionGame& game,
                                const ProtocolT& protocol) {
  const KernelT kernel(protocol);
  const auto k = static_cast<std::size_t>(game.num_strategies());
  Rng rng(41);
  State x = State::uniform_random(game, rng);
  RoundWorkspace ws;
  RoundResult rr;
  LatencyContext ctx;
  ctx.reset(game, x);
  ApplyScratch scratch;
  std::vector<double> kernel_row(k);
  std::vector<double> virtual_row(k);
  for (int round = 0; round < 20; ++round) {
    for (StrategyId from = 0; from < game.num_strategies(); ++from) {
      kernel.fill_row(game, ctx, from, kernel_row);
      protocol.fill_move_probabilities(game, ctx, from, virtual_row);
      for (std::size_t to = 0; to < k; ++to) {
        ASSERT_EQ(kernel_row[to], virtual_row[to])
            << "round " << round << " pair " << from << "->" << to;
      }
    }
    // Mutate through a real draw so later iterations audit refreshed
    // cache entries (and, on singleton games, the SIMD select loop over
    // non-initial ell/ell_plus values).
    draw_round(game, x, kernel, rng, EngineMode::kAggregate, ws, rr);
    x.apply(game, rr.moves, scratch);
    ctx.refresh(scratch.touched);
    ws.ctx.refresh(scratch.touched);
  }
}

TEST(KernelRows, SingletonFastPathsMatchVirtualRows) {
  // Singleton game: under CID_SIMD=ON this drives the vectorizable select
  // loops; under =OFF the same assertions audit the delegating path.
  const auto game = make_monomial_fan_game(16, 1.0, 2.0, 4000);
  ImitationParams virtual_params;
  virtual_params.virtual_agents = 2;
  expect_rows_match_protocol<ImitationKernel>(game, ImitationProtocol());
  expect_rows_match_protocol<ImitationKernel>(
      game, ImitationProtocol(virtual_params));
  expect_rows_match_protocol<ExplorationKernel>(game, ExplorationProtocol());
  expect_rows_match_protocol<CombinedKernel>(
      game,
      CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5});
}

TEST(KernelRows, NetworkGamesDelegateBitwise) {
  const auto game = network_game_k8(1500);
  expect_rows_match_protocol<ImitationKernel>(game, ImitationProtocol());
  expect_rows_match_protocol<ExplorationKernel>(game, ExplorationProtocol());
  expect_rows_match_protocol<CombinedKernel>(
      game,
      CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5});
}

// ---- 5. Round- and run-level identity across all four paths -----------------

template <typename KernelT, typename ProtocolT>
void expect_four_paths_identical(const CongestionGame& game,
                                 const ProtocolT& protocol, EngineMode mode,
                                 std::int64_t rounds, std::uint64_t seed) {
  const KernelT mono(protocol);
  const VirtualKernel virt(protocol);
  // Four independent (rng, state, workspace) tuples; only the path differs.
  Rng mono_rng(seed), virt_rng(seed), front_rng(seed), oracle_rng(seed);
  State mono_x = State::uniform_random(game, mono_rng);
  State virt_x = State::uniform_random(game, virt_rng);
  State front_x = State::uniform_random(game, front_rng);
  State oracle_x = State::uniform_random(game, oracle_rng);
  RoundWorkspace mono_ws, virt_ws, front_ws;
  RoundResult mono_rr, virt_rr, front_rr;
  for (std::int64_t round = 0; round < rounds; ++round) {
    draw_round(game, mono_x, mono, mono_rng, mode, mono_ws, mono_rr);
    draw_round(game, virt_x, virt, virt_rng, mode, virt_ws, virt_rr);
    draw_round(game, front_x, protocol, front_rng, mode, front_ws, front_rr);
    const RoundResult oracle =
        draw_round_reference(game, oracle_x, virt, oracle_rng, mode);
    ASSERT_EQ(mono_rr.moves, virt_rr.moves) << "round " << round;
    ASSERT_EQ(mono_rr.moves, front_rr.moves) << "round " << round;
    ASSERT_EQ(mono_rr.moves, oracle.moves) << "round " << round;
    ASSERT_EQ(mono_rr.movers, oracle.movers) << "round " << round;
    ASSERT_EQ(mono_rng.state(), virt_rng.state()) << "round " << round;
    ASSERT_EQ(mono_rng.state(), front_rng.state()) << "round " << round;
    ASSERT_EQ(mono_rng.state(), oracle_rng.state()) << "round " << round;
    mono_x.apply(game, mono_rr.moves, mono_ws.apply_scratch);
    mono_ws.ctx.refresh(mono_ws.apply_scratch.touched);
    virt_x.apply(game, virt_rr.moves, virt_ws.apply_scratch);
    virt_ws.ctx.refresh(virt_ws.apply_scratch.touched);
    front_x.apply(game, front_rr.moves, front_ws.apply_scratch);
    front_ws.ctx.refresh(front_ws.apply_scratch.touched);
    oracle_x.apply(game, oracle.moves);
    ASSERT_TRUE(mono_x == oracle_x) << "round " << round;
  }
}

TEST(KernelRounds, MonoVirtualFrontendOracleIdenticalSingleton) {
  const auto game = make_monomial_fan_game(12, 1.0, 1.0, 5000);
  for (EngineMode mode :
       {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    const std::int64_t rounds = mode == EngineMode::kAggregate ? 50 : 20;
    expect_four_paths_identical<ImitationKernel>(game, ImitationProtocol(),
                                                 mode, rounds, 91);
    expect_four_paths_identical<ExplorationKernel>(
        game, ExplorationProtocol(), mode, rounds, 92);
    expect_four_paths_identical<CombinedKernel>(
        game, CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5},
        mode, rounds, 93);
  }
}

TEST(KernelRounds, MonoVirtualFrontendOracleIdenticalNetwork) {
  const auto game = network_game_k8(3000);
  expect_four_paths_identical<ImitationKernel>(
      game, ImitationProtocol(), EngineMode::kAggregate, 40, 94);
  expect_four_paths_identical<CombinedKernel>(
      game, CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5},
      EngineMode::kAggregate, 40, 95);
}

TEST(KernelRounds, TemplatedRowThreadsBitwiseInvariant) {
  // Direct templated-API thread invariance (the frontends are covered by
  // the oracle suite): the persistent-pool fan-out must be invisible.
  const auto game = network_game_k8(2000);
  const ImitationProtocol protocol;
  const ImitationKernel kernel(protocol);
  std::vector<State> finals;
  std::vector<std::array<std::uint64_t, 4>> rng_states;
  for (const int row_threads : {1, 2, 4}) {
    Rng rng(71);
    State x = State::uniform_random(game, rng);
    RoundWorkspace ws;
    RoundResult rr;
    for (int round = 0; round < 30; ++round) {
      draw_round(game, x, kernel, rng, EngineMode::kAggregate, ws, rr,
                 row_threads);
      x.apply(game, rr.moves, ws.apply_scratch);
      ws.ctx.refresh(ws.apply_scratch.touched);
    }
    finals.push_back(std::move(x));
    rng_states.push_back(rng.state());
  }
  EXPECT_TRUE(finals[0] == finals[1]);
  EXPECT_TRUE(finals[0] == finals[2]);
  EXPECT_EQ(rng_states[0], rng_states[1]);
  EXPECT_EQ(rng_states[0], rng_states[2]);
}

TEST(KernelRuns, TemplatedRunMatchesFrontendRun) {
  // Whole runs through run_dynamics<K> over the monomorphized kernel and
  // over VirtualKernel (the virtual frontend, pinned by passing the
  // adapter directly) must match the type-erased entrypoint bit for bit.
  const auto game = make_monomial_fan_game(10, 2.0, 1.0, 20000);
  const ImitationProtocol protocol;
  EngineInvocation call;
  call.options.max_rounds = 120;

  Rng front_rng(13);
  State front_x = State::uniform_random(game, front_rng);
  const RunResult via_frontend =
      run_dynamics(game, front_x, protocol, front_rng, call);

  const auto expect_same_run = [&](const auto& kernel) {
    Rng rng(13);
    State x = State::uniform_random(game, rng);
    const RunResult via_kernel = run_dynamics(game, x, kernel, rng, call);
    EXPECT_EQ(via_kernel.rounds, via_frontend.rounds);
    EXPECT_EQ(via_kernel.total_movers, via_frontend.total_movers);
    EXPECT_EQ(via_kernel.latency_evals, via_frontend.latency_evals);
    EXPECT_TRUE(x == front_x);
    EXPECT_EQ(rng.state(), front_rng.state());
  };
  expect_same_run(ImitationKernel(protocol));
  expect_same_run(VirtualKernel(protocol));
}

// ---- 6. EngineInvocation ----------------------------------------------------

TEST(EngineInvocationApi, StopAndCachedStopFireAtTheSameRound) {
  // The two predicate forms are consulted on the same rounds, so equal
  // predicates end bitwise-identical runs.
  const auto game = make_monomial_fan_game(10, 1.0, 1.0, 8000);
  const ImitationProtocol protocol;
  RunOptions options;
  options.max_rounds = 500;
  options.check_interval = 5;

  Rng stop_rng(17);
  State stop_x = State::uniform_random(game, stop_rng);
  const RunResult via_stop = run_dynamics(
      game, stop_x, protocol, stop_rng,
      {.options = options,
       .stop = [](const CongestionGame&, const State&,
                  std::int64_t round) { return round >= 85; }});

  Rng cached_rng(17);
  State cached_x = State::uniform_random(game, cached_rng);
  const RunResult via_cached = run_dynamics(
      game, cached_x, protocol, cached_rng,
      {.options = options,
       .cached_stop = [](const LatencyContext&, std::int64_t round) {
         return round >= 85;
       }});

  EXPECT_EQ(via_cached.rounds, via_stop.rounds);
  EXPECT_EQ(via_cached.converged, via_stop.converged);
  EXPECT_EQ(via_cached.total_movers, via_stop.total_movers);
  EXPECT_TRUE(cached_x == stop_x);
  EXPECT_EQ(cached_rng.state(), stop_rng.state());
  EXPECT_TRUE(via_stop.converged);  // the predicate actually fired
}

TEST(EngineInvocationApi, RejectsTwoStopPredicates) {
  const auto game = make_monomial_fan_game(4, 1.0, 1.0, 100);
  const ImitationProtocol protocol;
  EngineInvocation call;
  call.options.max_rounds = 1;
  call.stop = [](const CongestionGame&, const State&, std::int64_t) {
    return true;
  };
  call.cached_stop = [](const LatencyContext&, std::int64_t) {
    return true;
  };
  Rng rng(1);
  State x = State::uniform_random(game, rng);
  EXPECT_THROW(run_dynamics(game, x, protocol, rng, call),
               invariant_violation);
}

}  // namespace
}  // namespace cid
