// Property/fuzz tests for the incremental latency caches and the
// provably-zero-row pruning they enable.
//
//   1. Incremental == from-scratch: after arbitrary random State::apply
//      move sequences, a LatencyContext maintained through refresh()
//      equals a freshly reset one EXACTLY (double ==), entry for entry —
//      the invariant the whole batched kernel leans on. Same property for
//      the context on an asymmetric game's flat game, against the
//      class-wise game methods.
//   2. Pruning soundness: every origin the protocols declare provably
//      zero is re-verified nonzero-free by the per-pair reference
//      move_probability oracle, across random states and all protocols
//      (and the class-local rows against asymmetric_move_probability).
//   3. Monotonicity gate: with a DECREASING latency function in the game,
//      plus_dominates() reports false and every row_provably_zero
//      conservatively declines to prune.
//   4. Origin-table ex-post latencies: one ExpostTable gathered for every
//      (from, to) pair, from == to included, pair by pair and as whole
//      interleaved rows, equals the uncached
//      CongestionGame::expost_latency merge bitwise — on layered networks,
//      the multicommodity game and an asymmetric flat game.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "dynamics/engine.hpp"
#include "game/asymmetric.hpp"
#include "game/builders.hpp"
#include "game/expost_table.hpp"
#include "game/latency_context.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"
#include "protocols/kernel.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

CongestionGame fuzz_network_game(std::int64_t n, std::uint64_t seed) {
  const auto net = make_layered_network(3, 3);
  Rng rng(seed);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    const double a = 0.25 + rng.uniform();
    fns.push_back(rng.bernoulli(0.5)
                      ? make_linear(a)
                      : make_monomial(0.1 * a, rng.bernoulli(0.5) ? 2.0 : 3.0));
  }
  return make_network_game(net, std::move(fns), n);
}

/// A random feasible migration batch: a handful of (from, to, count)
/// moves whose per-origin outflow respects the current counts.
std::vector<Migration> random_moves(const CongestionGame& game,
                                    const State& x, Rng& rng) {
  std::vector<Migration> moves;
  std::vector<std::int64_t> left(x.counts().begin(), x.counts().end());
  const auto k = static_cast<std::uint64_t>(game.num_strategies());
  const int batch = 1 + static_cast<int>(rng.uniform_int(4));
  for (int i = 0; i < batch; ++i) {
    const auto from = static_cast<StrategyId>(rng.uniform_int(k));
    auto to = static_cast<StrategyId>(rng.uniform_int(k));
    if (to == from) to = static_cast<StrategyId>((to + 1) % k);
    const std::int64_t avail = left[static_cast<std::size_t>(from)];
    if (avail <= 0) continue;
    const auto count = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(avail)) + 1);
    left[static_cast<std::size_t>(from)] -= count;
    moves.push_back(Migration{from, to, count});
  }
  return moves;
}

/// Every (from, to) pair through one table synced to `ctx`, pair by pair
/// and as one interleaved row (expost_row), against the uncached merge
/// walk — bit for bit.
void expect_origin_table_matches_oracle(const CongestionGame& game,
                                        const State& x,
                                        const LatencyContext& ctx,
                                        ExpostTable& table) {
  table.sync(ctx);
  std::vector<double> row(static_cast<std::size_t>(game.num_strategies()));
  for (StrategyId p = 0; p < game.num_strategies(); ++p) {
    const OriginView origin(table, p);
    origin.expost_row(row);
    for (StrategyId q = 0; q < game.num_strategies(); ++q) {
      const double want = game.expost_latency(x, p, q);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(origin.expost_latency(q)),
                std::bit_cast<std::uint64_t>(want))
          << p << "->" << q;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(
                    row[static_cast<std::size_t>(q)]),
                std::bit_cast<std::uint64_t>(want))
          << p << "->" << q << " in the row";
    }
  }
}

void expect_context_equals_rebuild(const CongestionGame& game, const State& x,
                                   const LatencyContext& incremental) {
  LatencyContext fresh;
  fresh.reset(game, x);
  for (Resource e = 0; e < game.num_resources(); ++e) {
    ASSERT_EQ(incremental.resource_latency(e), fresh.resource_latency(e))
        << "resource " << e;
    ASSERT_EQ(incremental.resource_latency_plus(e),
              fresh.resource_latency_plus(e))
        << "resource " << e;
  }
  for (StrategyId p = 0; p < game.num_strategies(); ++p) {
    ASSERT_EQ(incremental.strategy_latency(p), fresh.strategy_latency(p))
        << "strategy " << p;
    ASSERT_EQ(incremental.plus_latency(p), fresh.plus_latency(p))
        << "strategy " << p;
    // And both agree with the uncached game methods (the bitwise
    // contract the cached predicates and protocol rows rely on).
    ASSERT_EQ(incremental.strategy_latency(p), game.strategy_latency(x, p));
    ASSERT_EQ(incremental.plus_latency(p), game.plus_latency(x, p));
  }
  ExpostTable table;
  expect_origin_table_matches_oracle(game, x, incremental, table);
  ASSERT_EQ(incremental.plus_dominates(), fresh.plus_dominates());
}

TEST(LatencyContext, IncrementalRefreshEqualsRebuildUnderRandomApplies) {
  for (const std::uint64_t seed : {7u, 21u, 99u}) {
    const auto game = fuzz_network_game(3000, seed);
    Rng rng(seed * 13 + 1);
    State x = State::uniform_random(game, rng);
    LatencyContext ctx;
    ctx.reset(game, x);
    ApplyScratch scratch;
    for (int step = 0; step < 40; ++step) {
      const auto moves = random_moves(game, x, rng);
      x.apply(game, moves, scratch);
      ctx.refresh(scratch.touched);
      expect_context_equals_rebuild(game, x, ctx);
    }
  }
}

TEST(LatencyContext, SingletonIncrementalRefreshEqualsRebuild) {
  const auto game = make_monomial_fan_game(12, 2.0, 1.0, 500);
  Rng rng(3);
  State x = State::uniform_random(game, rng);
  LatencyContext ctx;
  ctx.reset(game, x);
  ApplyScratch scratch;
  for (int step = 0; step < 60; ++step) {
    const auto moves = random_moves(game, x, rng);
    x.apply(game, moves, scratch);
    ctx.refresh(scratch.touched);
    expect_context_equals_rebuild(game, x, ctx);
  }
}

// ---- Pruning soundness ------------------------------------------------------

/// The protocol's own prune verdict, reached through its kernel.
bool provably_zero(const Protocol& protocol, const CongestionGame& game,
                   const LatencyContext& ctx, StrategyId from,
                   const RowBounds& bounds) {
  return dispatch_protocol_kernel(protocol, [&](const auto& kernel) {
    return kernel.row_provably_zero(game, ctx, from, bounds);
  });
}

std::vector<std::unique_ptr<Protocol>> pruning_protocols() {
  std::vector<std::unique_ptr<Protocol>> protocols;
  protocols.push_back(std::make_unique<ImitationProtocol>());
  ImitationParams virtual_params;
  virtual_params.virtual_agents = 2;
  protocols.push_back(std::make_unique<ImitationProtocol>(virtual_params));
  ImitationParams no_nu;
  no_nu.nu_cutoff = false;
  protocols.push_back(std::make_unique<ImitationProtocol>(no_nu));
  protocols.push_back(std::make_unique<ExplorationProtocol>());
  protocols.push_back(std::make_unique<CombinedProtocol>(
      ImitationParams{}, ExplorationParams{}, 0.5));
  return protocols;
}

TEST(LatencyContext, PrunedRowsVerifiedZeroByReferenceOracle) {
  const auto protocols = pruning_protocols();
  int pruned_total = 0;
  for (const std::uint64_t seed : {5u, 17u}) {
    const auto game = fuzz_network_game(2000, seed);
    Rng rng(seed + 100);
    State x = State::uniform_random(game, rng);
    LatencyContext ctx;
    ctx.reset(game, x);
    ApplyScratch scratch;
    for (int step = 0; step < 20; ++step) {
      const RowBounds bounds =
          compute_row_bounds(x, ctx, {0, game.num_strategies()});
      for (const auto& protocol : protocols) {
        SCOPED_TRACE(protocol->name());
        for (StrategyId from = 0; from < game.num_strategies(); ++from) {
          if (!provably_zero(*protocol, game, ctx, from, bounds)) {
            continue;
          }
          ++pruned_total;
          for (StrategyId to = 0; to < game.num_strategies(); ++to) {
            if (to == from) continue;
            ASSERT_EQ(protocol->move_probability(game, x, from, to), 0.0)
                << "pruned origin " << from << " has nonzero entry to "
                << to;
          }
        }
      }
      const auto moves = random_moves(game, x, rng);
      x.apply(game, moves, scratch);
      ctx.refresh(scratch.touched);
    }
  }
  // The fuzz states must actually exercise pruning, or this test is vacuous.
  EXPECT_GT(pruned_total, 0);
}

TEST(LatencyContext, SingletonConvergedStatePrunesMinimalOrigins) {
  // Identical links, perfectly balanced state: EVERY origin's row is zero
  // (nobody can improve), so pruning must fire for all of them.
  const auto game = make_uniform_links_game(8, make_linear(1.0), 800);
  const State x(game, std::vector<std::int64_t>(8, 100));
  LatencyContext ctx;
  ctx.reset(game, x);
  const RowBounds bounds =
      compute_row_bounds(x, ctx, {0, game.num_strategies()});
  ASSERT_TRUE(bounds.plus_dominates);
  const ImitationProtocol imitation;
  for (StrategyId p = 0; p < game.num_strategies(); ++p) {
    EXPECT_TRUE(imitation.row_provably_zero(game, ctx, p, bounds));
  }
}

TEST(LatencyContext, NoPlusDominanceDisablesPruning) {
  // Without plus-dominance (ℓ_e(x_e+1) < ℓ_e(x_e) somewhere, which only
  // non-monotone rounding can bring about) the sufficient condition
  // ℓ_Q(x+1..) >= ℓ_Q(x) is gone, and every protocol must decline to
  // prune — even on the balanced state where every row is provably zero.
  const auto game = make_uniform_links_game(8, make_linear(1.0), 800);
  const State x(game, std::vector<std::int64_t>(8, 100));
  LatencyContext ctx;
  ctx.reset(game, x);
  ASSERT_TRUE(ctx.plus_dominates());
  RowBounds bounds = compute_row_bounds(x, ctx, {0, game.num_strategies()});
  std::int64_t pruned_with_dominance = 0;
  for (const auto& protocol : pruning_protocols()) {
    for (StrategyId p = 0; p < game.num_strategies(); ++p) {
      pruned_with_dominance += provably_zero(*protocol, game, ctx, p, bounds);
    }
  }
  EXPECT_GT(pruned_with_dominance, 0);
  bounds.plus_dominates = false;
  for (const auto& protocol : pruning_protocols()) {
    SCOPED_TRACE(protocol->name());
    for (StrategyId p = 0; p < game.num_strategies(); ++p) {
      EXPECT_FALSE(provably_zero(*protocol, game, ctx, p, bounds));
    }
  }
}

// ---- Asymmetric games on their flat game ------------------------------------

AsymmetricGame fuzz_asymmetric_game() {
  // Three classes over overlapping multi-resource strategies, so refresh
  // pass 2 crosses class boundaries through shared resources.
  std::vector<LatencyPtr> fns;
  for (int e = 0; e < 6; ++e) {
    fns.push_back(e % 2 == 0 ? make_linear(0.5 + 0.25 * e)
                             : make_monomial(0.05 * (e + 1), 2.0));
  }
  std::vector<PlayerClass> classes(3);
  classes[0].strategies = {{0, 1}, {2}, {0, 3}};
  classes[0].num_players = 400;
  classes[1].strategies = {{1, 2}, {3, 4}, {2}};
  classes[1].num_players = 300;
  classes[2].strategies = {{4, 5}, {0, 5}, {1, 3, 5}};
  classes[2].num_players = 500;
  return AsymmetricGame(std::move(fns), std::move(classes));
}

std::vector<ClassMigration> random_class_moves(const AsymmetricGame& game,
                                               const AsymmetricState& x,
                                               Rng& rng) {
  std::vector<ClassMigration> moves;
  const int batch = 1 + static_cast<int>(rng.uniform_int(4));
  for (int i = 0; i < batch; ++i) {
    const auto c = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(game.num_classes())));
    const auto k = static_cast<std::uint64_t>(
        game.player_class(c).strategies.size());
    const auto from = static_cast<StrategyId>(rng.uniform_int(k));
    auto to = static_cast<StrategyId>(rng.uniform_int(k));
    if (to == from) to = static_cast<StrategyId>((to + 1) % k);
    const std::int64_t avail = x.count(c, from);
    if (avail <= 0) continue;
    // One move per origin per batch keeps the outflow trivially feasible.
    moves.push_back(ClassMigration{
        c, from, to,
        static_cast<std::int64_t>(
            rng.uniform_int(static_cast<std::uint64_t>(avail)) + 1)});
    break;
  }
  return moves;
}

std::vector<Migration> flat_moves(const AsymmetricGame& game,
                                  const std::vector<ClassMigration>& moves) {
  std::vector<Migration> flat;
  for (const ClassMigration& mv : moves) {
    const StrategyId base = game.class_offset(mv.player_class);
    flat.push_back(Migration{base + mv.from, base + mv.to, mv.count});
  }
  return flat;
}

TEST(AsymmetricFlatContext, IncrementalRefreshEqualsRebuild) {
  const auto game = fuzz_asymmetric_game();
  const CongestionGame& flat = game.flat();
  Rng rng(11);
  AsymmetricState x = AsymmetricState::uniform_random(game, rng);
  State flat_x = game.flat_state(x);
  LatencyContext ctx;
  ctx.reset(flat, flat_x);
  ApplyScratch scratch;
  ExpostTable table;
  for (int step = 0; step < 50; ++step) {
    const auto moves = random_class_moves(game, x, rng);
    x.apply(game, moves);
    flat_x.apply(flat, flat_moves(game, moves), scratch);
    ctx.refresh(scratch.touched);
    LatencyContext fresh;
    fresh.reset(flat, flat_x);
    for (Resource e = 0; e < game.num_resources(); ++e) {
      ASSERT_EQ(ctx.resource_latency(e), fresh.resource_latency(e));
      ASSERT_EQ(ctx.resource_latency_plus(e),
                fresh.resource_latency_plus(e));
    }
    table.sync(ctx);
    for (std::int32_t c = 0; c < game.num_classes(); ++c) {
      const StrategyId base = game.class_offset(c);
      const auto k = static_cast<StrategyId>(
          game.player_class(c).strategies.size());
      for (StrategyId p = 0; p < k; ++p) {
        ASSERT_EQ(ctx.strategy_latency(base + p),
                  fresh.strategy_latency(base + p));
        ASSERT_EQ(ctx.strategy_latency(base + p),
                  game.strategy_latency(x, c, p));
        const OriginView origin(table, base + p);
        for (StrategyId q = 0; q < k; ++q) {
          ASSERT_EQ(origin.expost_latency(base + q),
                    game.expost_latency(x, c, p, q));
        }
      }
    }
  }
}

TEST(AsymmetricFlatContext, ClassRowMatchesPerPairOracle) {
  const auto game = fuzz_asymmetric_game();
  Rng rng(23);
  const AsymmetricState x = AsymmetricState::uniform_random(game, rng);
  const State flat_x = game.flat_state(x);
  LatencyContext ctx;
  ctx.reset(game.flat(), flat_x);
  const AsymmetricImitationParams params;
  const ClassImitationKernel kernel(game, params);
  ExpostTable table;
  table.sync(ctx);
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const StrategyId base = game.class_offset(c);
    for (StrategyId from : x.support(c)) {
      const RowBlock block = kernel.row_block(game.flat(), base + from);
      ASSERT_EQ(block.begin, base);
      ASSERT_EQ(block.end, game.class_offset(c + 1));
      std::vector<double> row(block.size());
      kernel.fill_row(game.flat(), OriginView(table, base + from), row);
      for (std::size_t j = 0; j < row.size(); ++j) {
        const auto to = static_cast<StrategyId>(j);
        const double oracle =
            to == from
                ? 0.0
                : asymmetric_move_probability(game, x, params, c, from, to);
        ASSERT_EQ(row[j], oracle)
            << "class " << c << " pair " << from << "->" << to;
        if (to != from) {
          ASSERT_EQ(kernel.move_probability(game.flat(), flat_x, base + from,
                                            base + to),
                    oracle);
        }
      }
    }
  }
}

// ---- Origin-table ex-post latencies -----------------------------------------

/// The multicommodity scenario's game: two classes contending for a cheap
/// shared middle link.
AsymmetricGame multicommodity_game(std::int64_t n) {
  std::vector<LatencyPtr> fns{make_linear(1.5), make_linear(3.0),
                              make_linear(0.75), make_linear(3.0),
                              make_linear(1.5)};
  std::vector<PlayerClass> classes(2);
  classes[0].strategies = {{0}, {1}, {2}};
  classes[0].num_players = n * 3 / 5;
  classes[1].strategies = {{2}, {3}, {4}};
  classes[1].num_players = n - classes[0].num_players;
  return AsymmetricGame(std::move(fns), std::move(classes));
}

/// One table reused across every origin and every refresh: a missed
/// unpatch or a stale sync would show up in a later pair.
void expect_origin_table_under_random_applies(const CongestionGame& game,
                                              std::uint64_t seed) {
  Rng rng(seed);
  State x = State::uniform_random(game, rng);
  LatencyContext ctx;
  ctx.reset(game, x);
  ApplyScratch scratch;
  ExpostTable table;
  for (int step = 0; step < 12; ++step) {
    expect_origin_table_matches_oracle(game, x, ctx, table);
    x.apply(game, random_moves(game, x, rng), scratch);
    ctx.refresh(scratch.touched);
  }
}

TEST(ExpostTable, LayeredNetworkGatherEqualsUncachedOracle) {
  // The random 3x3 networks go through the table in
  // IncrementalRefreshEqualsRebuildUnderRandomApplies; this is the 64-path
  // shape the engine-bound workload runs.
  const auto net = make_layered_network(4, 3);
  Rng rng(5);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    fns.push_back(make_monomial(0.5 + rng.uniform(), 2.0));
  }
  expect_origin_table_under_random_applies(
      make_network_game(net, std::move(fns), 10000), 9);
}

TEST(ExpostTable, MulticommodityGatherEqualsUncachedOracle) {
  expect_origin_table_under_random_applies(multicommodity_game(900).flat(),
                                           13);
}

TEST(ExpostTable, AsymmetricFlatGatherEqualsUncachedOracle) {
  expect_origin_table_under_random_applies(fuzz_asymmetric_game().flat(), 29);
}

}  // namespace
}  // namespace cid
