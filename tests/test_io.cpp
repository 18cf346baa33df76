#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "game/builders.hpp"
#include "game/io.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

void expect_games_equal(const CongestionGame& a, const CongestionGame& b) {
  ASSERT_EQ(a.num_players(), b.num_players());
  ASSERT_EQ(a.num_resources(), b.num_resources());
  ASSERT_EQ(a.num_strategies(), b.num_strategies());
  for (StrategyId s = 0; s < a.num_strategies(); ++s) {
    EXPECT_EQ(a.strategy(s), b.strategy(s));
  }
  // Latency equality via sampled values, bit for bit.
  for (Resource e = 0; e < a.num_resources(); ++e) {
    EXPECT_EQ(a.latency(e).kind(), b.latency(e).kind()) << "resource " << e;
    for (double x : {0.0, 1.0, 2.5, 7.0, 100.0}) {
      EXPECT_EQ(a.latency(e).value(x), b.latency(e).value(x))
          << "resource " << e << " at x=" << x;
    }
  }
  EXPECT_EQ(a.elasticity(), b.elasticity());
  EXPECT_EQ(a.nu(), b.nu());
}

TEST(GameIo, RoundTripsAllLatencyClasses) {
  std::vector<LatencyPtr> fns{
      make_constant(3.5),
      make_monomial(2.0, 3.0),
      make_polynomial({1.0, 0.0, 0.25}),
      make_exponential(2.0, 0.125),
      make_scaled(make_monomial(1.5, 2.0), 100),
      // A rate that ℓ'(0)/ℓ(0) does not reproduce: 0.10000000000000002.
      make_exponential(3.0, 0.1),
      // A divisor that double(n) does not hold exactly.
      make_scaled(make_linear(1.0), std::numeric_limits<std::int64_t>::max()),
  };
  CongestionGame game(std::move(fns), {{0, 1}, {1, 2, 3}, {4}, {5}, {6}}, 42);
  const std::string text = serialize_game(game);
  const CongestionGame parsed = parse_game(text);
  expect_games_equal(game, parsed);
  // Serialization is stable (idempotent round trip).
  EXPECT_EQ(serialize_game(parsed), text);
}

TEST(GameIo, RoundTripsTheDeepestScaledNesting) {
  // The deepest function make_scaled builds is one the parser reads back.
  LatencyPtr fn = make_monomial(1.5, 2.0);
  for (int level = 0; level < kMaxScaledNesting; ++level) {
    fn = make_scaled(fn, 3);
  }
  const CongestionGame game({fn, make_linear(2.0)}, {{0}, {1}}, 20);
  expect_games_equal(game, parse_game(serialize_game(game)));
}

TEST(GameIo, RoundTripsNetworkGame) {
  const auto game = make_uniform_links_game(6, make_linear(1.25), 1000);
  expect_games_equal(game, parse_game(serialize_game(game)));
}

TEST(GameIo, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_game(""), invariant_violation);
  EXPECT_THROW(parse_game("not-a-game v1\n"), invariant_violation);
  EXPECT_THROW(parse_game("cid-game v2\n"), invariant_violation);
  EXPECT_THROW(parse_game("cid-game v1\nplayers 5\n"), invariant_violation);
  EXPECT_THROW(parse_game("cid-game v1\nplayers 5\nresources 1\n"
                          "latency bogus 1\n"),
               invariant_violation);
  EXPECT_THROW(parse_game("cid-game v1\nplayers 5\nresources 1\n"
                          "latency constant 1\nstrategies 1\n"
                          "strategy 1 0\n"),  // missing 'end'
               invariant_violation);
  // Semantic validation still applies (resource out of range).
  EXPECT_THROW(parse_game("cid-game v1\nplayers 5\nresources 1\n"
                          "latency constant 1\nstrategies 1\n"
                          "strategy 1 3\nend\n"),
               invariant_violation);
}

TEST(GameIo, ParseErrorsMentionLineNumbers) {
  try {
    parse_game("cid-game v1\nplayers 5\nresources 1\nlatency bogus 1\n");
    FAIL() << "expected parse error";
  } catch (const invariant_violation& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(StateIo, RoundTrips) {
  const auto game = make_uniform_links_game(4, make_linear(1.0), 10);
  const State x(game, {4, 3, 2, 1});
  const State parsed = parse_state(game, serialize_state(x));
  EXPECT_TRUE(x == parsed);
}

TEST(StateIo, ValidatesDimensionAndMass) {
  const auto game = make_uniform_links_game(3, make_linear(1.0), 10);
  EXPECT_THROW(parse_state(game, "cid-state v1\ncounts 2 5 5\n"),
               invariant_violation);
  EXPECT_THROW(parse_state(game, "cid-state v1\ncounts 3 5 5 5\n"),
               invariant_violation);  // sums to 15 != 10
}

TEST(GameIo, FileRoundTrip) {
  const auto game = make_uniform_links_game(3, make_monomial(2.0, 2.0), 64);
  const std::string path = "/tmp/cid_io_test_game.txt";
  save_game(game, path);
  const CongestionGame loaded = load_game(path);
  expect_games_equal(game, loaded);
  std::remove(path.c_str());
  EXPECT_THROW(load_game("/nonexistent/dir/game.txt"), invariant_violation);
}

/// One game of each cid_gen family, built as cid_gen builds them.
std::vector<CongestionGame> cid_gen_families() {
  std::vector<CongestionGame> games;
  std::vector<LatencyPtr> links;
  for (int e = 0; e < 4; ++e) links.push_back(make_monomial(1.0 + e / 4.0, 2.0));
  games.push_back(make_singleton_game(std::move(links), 50));
  games.push_back(make_uniform_links_game(3, make_monomial(1.0, 1.0), 50));
  games.push_back(make_network_game(
      make_braess_network(),
      {make_linear(1.0), make_constant(10.0), make_constant(10.0),
       make_linear(1.0), make_constant(1.0)},
      50));
  const auto net = make_layered_network(2, 2);
  Rng rng(1);
  std::vector<LatencyPtr> edges;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    const double a = 0.5 + rng.uniform();
    edges.push_back(rng.bernoulli(0.5) ? make_linear(a)
                                       : make_monomial(0.1 * a, 2.0));
  }
  games.push_back(make_network_game(net, std::move(edges), 50));
  games.push_back(make_overshoot_example(156.25, 1.0, 2.0, 50));
  return games;
}

/// One text mutation: bit flips, a truncation, a token replaced by a
/// hostile number, or a line dropped or doubled.
std::string mutate_text(std::string text, Rng& rng) {
  const auto at = [&] {
    return static_cast<std::size_t>(rng.uniform_int(text.size()));
  };
  switch (rng.uniform_int(4)) {
    case 0: {
      const auto flips = 1 + rng.uniform_int(4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        text[at()] ^= static_cast<char>(1 << rng.uniform_int(8));
      }
      return text;
    }
    case 1:
      text.resize(at());
      return text;
    case 2: {
      static const char* const kHostile[] = {
          "4000000000", "18446744073709551615", "-1", "0", "2147483647",
          "100000000", "1048576", "4194304", "1e308", "-1e308", "nan",
          "inf", "1e-320", "scaled"};
      std::size_t begin = at();
      while (begin > 0 && text[begin - 1] != ' ' && text[begin - 1] != '\n') {
        --begin;
      }
      std::size_t end = begin;
      while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
      text.replace(begin, end - begin,
                   kHostile[rng.uniform_int(std::size(kHostile))]);
      return text;
    }
    default: {
      std::size_t begin = at();
      while (begin > 0 && text[begin - 1] != '\n') --begin;
      const std::size_t end = text.find('\n', begin);
      const std::string line =
          text.substr(begin, end == std::string::npos ? end : end - begin + 1);
      if (rng.bernoulli(0.5)) {
        text.erase(begin, line.size());
      } else {
        text.insert(begin, line);
      }
      return text;
    }
  }
}

TEST(GameIo, HostileBytesOnlyEverThrowParseError) {
  // Every outcome of parsing a mutated cid_gen game is a game or a
  // parse_error naming a line of the input. CI runs this under a capped
  // address space, where an unbounded allocation throws std::bad_alloc.
  constexpr int kCasesPerGame = 1000;
  Rng rng(0x6a3e);
  int parsed = 0;
  int refused = 0;
  for (const CongestionGame& game : cid_gen_families()) {
    const std::string text = serialize_game(game);
    SCOPED_TRACE(text);
    for (int i = 0; i < kCasesPerGame; ++i) {
      const std::string bytes = mutate_text(text, rng);
      try {
        parse_game(bytes);
        ++parsed;
      } catch (const parse_error& e) {
        ++refused;
        const auto lines = std::count(bytes.begin(), bytes.end(), '\n') + 1;
        EXPECT_GE(e.line(), 0) << "case " << i;
        EXPECT_LE(e.line(), lines) << "case " << i;
        EXPECT_EQ(std::string(e.what()).rfind(
                      "parse error at line " + std::to_string(e.line()) + ": ",
                      0),
                  0u)
            << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "case " << i << ": " << e.what() << "\n" << bytes;
      }
    }
  }
  EXPECT_GT(parsed, 0);  // some mutations keep a valid game
  EXPECT_GT(refused, 0);
}

TEST(GameIo, SizesAreBoundedBeforeBuilding) {
  const auto expect_refused = [](const std::string& text, int line,
                                 const std::string& reason) {
    try {
      parse_game(text);
      ADD_FAILURE() << "parsed:\n" << text;
    } catch (const parse_error& e) {
      EXPECT_EQ(e.line(), line) << e.what();
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
          << e.what();
    }
  };
  // A strategy lists distinct resources: its length is checked against
  // the resource count before the strategy is allocated.
  const std::string head =
      "cid-game v1\nplayers 5\nresources 2\nlatency constant 1\n"
      "latency constant 2\nstrategies 1\n";
  for (const char* len : {"3", "4000000000", "18446744073709551615", "0"}) {
    expect_refused(head + "strategy " + len + " 0 1\nend\n", 7,
                   "bad strategy length");
  }
  // The binary codec's caps: scaled nesting and the elasticity bound
  // (building a game scans loads 1..d).
  std::string nested = "latency";
  for (int depth = 0; depth < 17; ++depth) nested += " scaled 2";
  expect_refused("cid-game v1\nplayers 5\nresources 1\n" + nested +
                     " constant 1\n",
                 4, "nested too deep");
  expect_refused("cid-game v1\nplayers 5\nresources 1\n"
                 "latency monomial 1 4000000\n",
                 4, "elasticity too large");
  // The latency factories' own checks are parse errors at their line.
  expect_refused("cid-game v1\nplayers 5\nresources 1\n"
                 "latency monomial -1 1\n",
                 4, "monomial coefficient must be positive");
}

}  // namespace
}  // namespace cid
