// ProtocolKernel concept suite.
//
// The engine redesign (protocols/kernel.hpp, dynamics/engine_kernel.hpp,
// latency/kernel.hpp) must be invisible at the bit level. This suite pins:
//
//   1. concept level — every paper protocol's kernel models ProtocolKernel
//      (and the virtual classes do NOT — the concept really separates the
//      two interfaces); the class-local imitation kernel and the tests-only
//      VirtualKernel model ProtocolKernel, and a kernel without row_block
//      does not;
//   2. dispatch level — dispatch_protocol_kernel resolves each concrete
//      protocol to its monomorphized kernel and refuses any other protocol
//      by name;
//   3. latency level — LatencyTable::value reproduces every latency kind
//      (constant, linear, affine, monomial, polynomial, exponential,
//      scaled, and scaled-of-scaled) bitwise at
//      the integer loads the engines evaluate and at fractional and huge
//      arguments (LatencyTable::potential, the closed-form Φ, has its own
//      suite: tests/test_closed_form.cpp);
//   4. row level — each symmetric kernel's fill_row (the gather, then the
//      select pass of every ISA the host runs) is bit-identical to
//      move_probability on singleton and network games, with empty
//      strategies, exact gain-test ties, n = 1 and counts above 2^53, and
//      sustained across incremental cache refreshes;
//   5. round/run level — the templated draw_round<K> / run_dynamics<K>
//      over the monomorphized kernel, the same templates over the
//      tests-only VirtualKernel (per-pair rows, never pruned), the
//      type-erased Protocol frontend, and the per-pair reference oracle
//      all produce identical Migration lists AND consume the RNG stream
//      identically — so every pruned row is audited against its
//      unpruned per-pair row;
//   6. API level — EngineInvocation's two stop-predicate forms are
//      consulted on the same rounds, and setting both is rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "dynamics/engine.hpp"
#include "dynamics/engine_kernel.hpp"
#include "dynamics/stop_rule.hpp"
#include "game/builders.hpp"
#include "game/expost_table.hpp"
#include "game/latency_context.hpp"
#include "latency/kernel.hpp"
#include "latency/latency.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"
#include "protocols/kernel.hpp"
#include "support/reference_round.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

// ---- 1. Concept membership --------------------------------------------------

static_assert(ProtocolKernel<test::VirtualKernel>);
static_assert(ProtocolKernel<ImitationKernel>);
static_assert(ProtocolKernel<ExplorationKernel>);
static_assert(ProtocolKernel<CombinedKernel>);
// The virtual classes have no fill_row: the concept genuinely separates
// the two interfaces instead of accepting anything protocol-shaped.
static_assert(!ProtocolKernel<ImitationProtocol>);
static_assert(!ProtocolKernel<ExplorationProtocol>);
static_assert(!ProtocolKernel<CombinedProtocol>);

static_assert(ProtocolKernel<ClassImitationKernel>);

/// Every ProtocolKernel member but row_block: the destination block is
/// part of the concept, not an optional extra.
struct NoRowBlockKernel {
  void fill_row(const CongestionGame&, const OriginView&,
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

TEST(KernelDispatch, UnknownProtocolIsRefused) {
  // make_protocol builds only the three final classes, so a protocol type
  // the dispatch chain has never heard of has no round kernel: both
  // frontends refuse it with its name instead of running it. (Wrapping
  // rather than deriving: a subclass of ImitationProtocol would still be
  // caught by the dynamic_cast chain.)
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
  const auto game = make_monomial_fan_game(8, 1.0, 1.0, 500);
  Rng rng(3);
  State x = State::uniform_random(game, rng);
  const auto expect_refused = [](const auto& call) {
    try {
      call();
      FAIL() << "expected the unknown protocol to be refused";
    } catch (const invariant_violation& e) {
      EXPECT_NE(std::string(e.what()).find("'opaque'"), std::string::npos)
          << e.what();
    }
  };
  expect_refused(
      [&] { draw_round(game, x, opaque, rng, EngineMode::kAggregate); });
  EngineInvocation call;
  call.options.max_rounds = 5;
  expect_refused([&] { run_dynamics(game, x, opaque, rng, call); });

  // The templated engine still runs it through the tests-only adapter.
  const test::VirtualKernel virt(opaque);
  EXPECT_EQ(virt.name(), opaque.name());
  RoundWorkspace ws;
  RoundResult rr;
  draw_round(game, x, virt, rng, EngineMode::kAggregate, ws, rr);
  EXPECT_GE(rr.movers, 0);
}

// ---- 3. LatencyTable vs LatencyFunction::value ------------------------------

TEST(LatencyTableKernel, BitwiseMatchesEveryFunctionShape) {
  // One of each kind, including nesting that exercises the scaled divisor
  // and the scaled-of-scaled entries that evaluate through the function.
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
  fns.push_back(make_exponential(1.1, 0.2));
  fns.push_back(make_scaled(make_exponential(3.0, 0.1), 40));
  fns.push_back(make_scaled(make_constant(1.5), 7));
  fns.push_back(make_scaled(make_scaled(make_monomial(0.3, 2.0), 3), 5));

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

/// Every ISA this host runs the row select on, the portable path first.
std::vector<LaneIsa> host_isas() {
  std::vector<LaneIsa> isas;
  for (LaneIsa isa : {LaneIsa::kPortable, LaneIsa::kAvx2, LaneIsa::kAvx512}) {
    if (lane_isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every row the engines fill at x (origins with x_P > 0) through the
/// protocol's kernel on every host ISA, against move_probability by bit
/// pattern — +0.0 and −0.0 differ, and a NaN matches only the same NaN —
/// with 0.0 on the diagonal. ctx must be current for (game, x).
template <typename ProtocolT>
void expect_rows_bitwise(const CongestionGame& game, const ProtocolT& protocol,
                         const State& x, const LatencyContext& ctx) {
  const auto k = static_cast<std::size_t>(game.num_strategies());
  std::vector<double> want(k);
  std::vector<double> row(k);
  ExpostTable table;
  table.sync(ctx);
  for (StrategyId from = 0; from < game.num_strategies(); ++from) {
    if (x.count(from) == 0) continue;
    for (std::size_t to = 0; to < k; ++to) {
      const auto to_id = static_cast<StrategyId>(to);
      want[to] = to_id == from
                     ? 0.0
                     : protocol.move_probability(game, x, from, to_id);
    }
    for (const LaneIsa isa : host_isas()) {
      const SymmetricKernel<ProtocolT> kernel(protocol, isa);
      const OriginView origin(table, from);
      kernel.fill_row(game, origin, row);
      for (std::size_t to = 0; to < k; ++to) {
        ASSERT_EQ(bits(row[to]), bits(want[to]))
            << protocol.name() << " isa " << static_cast<int>(isa)
            << " pair " << from << "->" << to << ": " << row[to] << " vs "
            << want[to];
      }
    }
  }
}

/// The imitation settings the audit runs: the default, λ = 0.3 (so λ/d is
/// no power of two and a reassociated μ rounds differently), virtual
/// agents, no ν cutoff, no damping, and include-self sampling.
std::vector<ImitationParams> imitation_variants() {
  std::vector<ImitationParams> variants(6);
  variants[1].lambda = 0.3;
  variants[2].virtual_agents = 2;
  variants[3].nu_cutoff = false;
  variants[4].damping = false;
  variants[5].convention = SamplingConvention::kIncludeSelf;
  return variants;
}

/// Every audited protocol on every state, exploration from `exploration`
/// and with λ = 0.3. Combined runs p_explore 0, 1/2 and 1 — and 0.3, since
/// at those three both products p·e and (1−p)·i are exact and an FMA
/// contraction of their sum could not show.
void expect_every_protocol_row(const CongestionGame& game,
                               const std::vector<State>& states,
                               const ExplorationParams& exploration = {}) {
  ExplorationParams lambda_03 = exploration;
  lambda_03.lambda = 0.3;
  for (const State& x : states) {
    LatencyContext ctx;
    ctx.reset(game, x);
    for (const ImitationParams& params : imitation_variants()) {
      expect_rows_bitwise(game, ImitationProtocol(params), x, ctx);
    }
    for (const ExplorationParams& params : {exploration, lambda_03}) {
      expect_rows_bitwise(game, ExplorationProtocol(params), x, ctx);
    }
    for (const double p : {0.0, 0.3, 0.5, 1.0}) {
      for (const ImitationParams& params : imitation_variants()) {
        expect_rows_bitwise(game, CombinedProtocol{params, lambda_03, p}, x,
                            ctx);
      }
    }
  }
}

/// Random states, and states with empty strategies: everybody on the last
/// strategy, and the odd strategies emptied onto the even ones.
std::vector<State> random_and_sparse_states(const CongestionGame& game,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<State> states;
  for (int i = 0; i < 3; ++i) states.push_back(State::uniform_random(game, rng));
  states.push_back(State::all_on(game, game.num_strategies() - 1));
  std::vector<std::int64_t> even(states[0].counts().begin(),
                                 states[0].counts().end());
  for (std::size_t p = 1; p < even.size(); p += 2) {
    even[p - 1] += even[p];
    even[p] = 0;
  }
  states.emplace_back(game, std::move(even));
  return states;
}

/// ℓ_e(x) = x on 8 identical links: ℓ_P = x_P against ℓ_Q(x + 1_Q − 1_P)
/// = x_Q + 1, so x_P − x_Q = 1 is an exact tie of every strict-improvement
/// test, and = 1 + ν of the ν-cutoff one when ν is a whole number.
TEST(KernelRows, SingletonFanBitwiseOnEveryIsa) {
  const auto fan = make_monomial_fan_game(16, 1.0, 2.0, 4000);
  expect_every_protocol_row(fan, random_and_sparse_states(fan, 41));

  const auto links = make_monomial_fan_game(8, 1.0, 0.0, 40);
  const auto nu = static_cast<std::int64_t>(links.nu());
  ASSERT_EQ(static_cast<double>(nu), links.nu());
  ASSERT_LE(nu, 8);
  expect_every_protocol_row(
      links, {State(links, {6, 5, 5, 4, 6, 5, 4, 5}),
              State(links, {4 + nu, 3, 5, 5, 5, 5, 5, 8 - nu}),
              State(links, {8, 7, 6, 5, 5, 4, 3, 2})});
}

TEST(KernelRows, NetworkGamesBitwiseOnEveryIsa) {
  // Engine-bound's 64-path game, the 8-path layered game, and a random
  // series-parallel network whose paths have unequal lengths.
  const auto net = make_layered_network(4, 3);
  Rng latency_rng(7);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    const double a = 0.5 + latency_rng.uniform();
    fns.push_back(latency_rng.bernoulli(0.5) ? make_linear(a)
                                             : make_monomial(0.05 * a, 2.0));
  }
  const auto engine_bound = make_network_game(net, std::move(fns), 10000);
  ASSERT_EQ(engine_bound.num_strategies(), 64);
  expect_every_protocol_row(engine_bound,
                            random_and_sparse_states(engine_bound, 43));

  const auto layered = network_game_k8(1500);
  expect_every_protocol_row(layered, random_and_sparse_states(layered, 45));

  Rng shape_rng(5);  // 18 paths of 3 to 8 edges
  const auto sp_net = make_series_parallel(12, shape_rng);
  std::vector<LatencyPtr> sp_fns;
  for (EdgeId e = 0; e < sp_net.graph.num_edges(); ++e) {
    sp_fns.push_back(make_monomial(0.5 + shape_rng.uniform(), 1.0));
  }
  const auto series_parallel =
      make_network_game(sp_net, std::move(sp_fns), 900);
  std::size_t shortest = SIZE_MAX;
  std::size_t longest = 0;
  for (const Strategy& path : series_parallel.strategies()) {
    shortest = std::min(shortest, path.size());
    longest = std::max(longest, path.size());
  }
  ASSERT_LT(shortest, longest);
  expect_every_protocol_row(series_parallel,
                            random_and_sparse_states(series_parallel, 47));
}

TEST(KernelRows, ExtremePopulationsBitwiseOnEveryIsa) {
  // n = 1 excluding the sampler: the pool is 0, so an empty target's
  // sample probability is 0/0 and only the targets != 0 mask zeroes it
  // (ν off, so the gain test passes toward the cheaper links).
  const auto single = make_monomial_fan_game(6, 1.0, 2.0, 1);
  ImitationParams no_nu;
  no_nu.nu_cutoff = false;
  const State alone = State::all_on(single, 5);
  LatencyContext ctx;
  ctx.reset(single, alone);
  expect_rows_bitwise(single, ImitationProtocol(no_nu), alone, ctx);
  expect_every_protocol_row(single, {alone});
  // Counts above 2^53: their conversion to double rounds. (β is given:
  // the game derives it by scanning every load up to n.)
  const auto huge = make_monomial_fan_game(5, 1.0, 2.0, (1LL << 60) + 12345);
  ExplorationParams given_beta;
  given_beta.beta_override = 1.0;
  Rng rng(49);
  expect_every_protocol_row(
      huge, {State::uniform_random(huge, rng), State::uniform_random(huge, rng)},
      given_beta);
}

TEST(KernelRows, RowsStayBitwiseAcrossIncrementalRefreshes) {
  // States reached by real draws, against a context refreshed round by
  // round (never reset) — the cache the engines actually read.
  const auto expect_run = [](const CongestionGame& game,
                             const auto& protocol) {
    Rng rng(41);
    State x = State::uniform_random(game, rng);
    RoundWorkspace ws;
    RoundResult rr;
    LatencyContext ctx;
    ctx.reset(game, x);
    ApplyScratch scratch;
    for (int round = 0; round < 20; ++round) {
      expect_rows_bitwise(game, protocol, x, ctx);
      draw_round(game, x, protocol, rng, EngineMode::kAggregate, ws, rr);
      x.apply(game, rr.moves, scratch);
      ctx.refresh(scratch.touched);
      ws.ctx.refresh(scratch.touched);
    }
  };
  for (const auto& game :
       {make_monomial_fan_game(16, 1.0, 2.0, 4000), network_game_k8(1500)}) {
    expect_run(game, ImitationProtocol());
    expect_run(game, ExplorationProtocol());
    expect_run(game,
               CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.3});
  }
}

// ---- 5. Round- and run-level identity across all four paths -----------------

template <typename KernelT, typename ProtocolT>
void expect_four_paths_identical(const CongestionGame& game,
                                 const ProtocolT& protocol, EngineMode mode,
                                 std::int64_t rounds, std::uint64_t seed) {
  const KernelT mono(protocol);
  const test::VirtualKernel virt(protocol);
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
        test::draw_round_reference(game, oracle_x, virt, oracle_rng, mode);
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

TEST(KernelRuns, TemplatedRunMatchesFrontendRun) {
  // Whole runs through run_dynamics<K> over the monomorphized kernel and
  // over the tests-only VirtualKernel (per-pair rows, no pruning) must
  // match the type-erased entrypoint bit for bit.
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
  expect_same_run(test::VirtualKernel(protocol));
}

// ---- 6. EngineInvocation ----------------------------------------------------

TEST(EngineInvocationApi, StopAndCachedStopFireAtTheSameRound) {
  // The two predicate forms are consulted on the same rounds, so equal
  // predicates end bitwise-identical runs. (A cached predicate sees the
  // context alone; a false verdict may be reused while nobody moves.)
  const auto game = make_monomial_fan_game(10, 1.0, 1.0, 8000);
  const ImitationProtocol protocol;
  RunOptions options;
  options.max_rounds = 500;
  options.check_interval = 5;
  const StopSpec spec{.rule = StopRule::kDeltaEps, .delta = 0.05, .eps = 0.05};

  Rng stop_rng(17);
  State stop_x = State::uniform_random(game, stop_rng);
  const RunResult via_stop =
      run_dynamics(game, stop_x, protocol, stop_rng,
                   {.options = options, .stop = make_stop(spec)});

  Rng cached_rng(17);
  State cached_x = State::uniform_random(game, cached_rng);
  const RunResult via_cached =
      run_dynamics(game, cached_x, protocol, cached_rng,
                   {.options = options, .cached_stop = make_cached_stop(spec)});

  EXPECT_EQ(via_cached.rounds, via_stop.rounds);
  EXPECT_EQ(via_cached.converged, via_stop.converged);
  EXPECT_EQ(via_cached.total_movers, via_stop.total_movers);
  EXPECT_TRUE(cached_x == stop_x);
  EXPECT_EQ(cached_rng.state(), stop_rng.state());
  EXPECT_TRUE(via_stop.converged);  // the predicate actually fired
  EXPECT_GT(via_stop.rounds, 0);
}

TEST(EngineInvocationApi, RejectsTwoStopPredicates) {
  const auto game = make_monomial_fan_game(4, 1.0, 1.0, 100);
  const ImitationProtocol protocol;
  EngineInvocation call;
  call.options.max_rounds = 1;
  call.stop = [](const CongestionGame&, const State&, std::int64_t) {
    return true;
  };
  call.cached_stop = [](const LatencyContext&) { return true; };
  Rng rng(1);
  State x = State::uniform_random(game, rng);
  EXPECT_THROW(run_dynamics(game, x, protocol, rng, call),
               invariant_violation);
}

}  // namespace
}  // namespace cid
