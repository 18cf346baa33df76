#include "persist/codec.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "latency/latency.hpp"

namespace cid::persist {

namespace {

// Latency class tags. Appending new classes is a compatible change (old
// readers reject unknown tags loudly); renumbering is not.
enum LatencyTag : std::uint8_t {
  kConstant = 1,
  kMonomial = 2,
  kPolynomial = 3,
  kExponential = 4,
  kScaled = 5,
};

// Structural limits, enforced on encode AND decode: a limit the writer
// does not enforce would let a valid in-memory game produce a snapshot that
// can never be loaded back — the exact failure this subsystem exists to
// prevent. The latency caps (kMaxScaledNesting, kMaxPolynomialCoefficients,
// kMaxElasticity) live beside the type in latency/latency.hpp.
constexpr std::uint32_t kMaxResources = 1u << 20;
constexpr std::uint32_t kMaxStrategies = 1u << 22;

void encode_latency(BinWriter& out, const LatencyFunction& fn) {
  switch (fn.kind()) {
    case LatencyFunction::Kind::kConstant:
      out.u8(kConstant);
      out.f64(fn.constant());
      return;
    case LatencyFunction::Kind::kMonomial:
      out.u8(kMonomial);
      out.f64(fn.coefficient());
      out.f64(fn.degree());
      return;
    case LatencyFunction::Kind::kPolynomial:
      out.u8(kPolynomial);
      out.u32(static_cast<std::uint32_t>(fn.coefficients().size()));
      for (double a : fn.coefficients()) out.f64(a);
      return;
    case LatencyFunction::Kind::kExponential:
      out.u8(kExponential);
      out.f64(fn.scale());
      out.f64(fn.rate());
      return;
    case LatencyFunction::Kind::kScaled:
      out.u8(kScaled);
      out.i64(fn.divisor());
      encode_latency(out, fn.base());
      return;
  }
}

LatencyPtr decode_latency(BinReader& in, int depth = 0) {
  const std::uint8_t tag = in.u8();
  switch (tag) {
    case kConstant:
      return make_constant(in.f64());
    case kMonomial: {
      const double a = in.f64();
      const double d = in.f64();
      return make_monomial(a, d);
    }
    case kPolynomial: {
      const std::uint32_t k = in.u32();
      if (k > kMaxPolynomialCoefficients) {
        in.fail("polynomial degree too large");
      }
      std::vector<double> coef(k);
      for (auto& c : coef) c = in.f64();
      return make_polynomial(std::move(coef));
    }
    case kExponential: {
      const double a = in.f64();
      const double b = in.f64();
      return make_exponential(a, b);
    }
    case kScaled: {
      // Depth cap: without it a crafted file of nested kScaled tags (CRC-32
      // is integrity, not authentication) would overflow the stack instead
      // of throwing persist_error.
      if (depth >= kMaxScaledNesting) in.fail("scaled latency nested too deep");
      const std::int64_t n = in.i64();
      LatencyPtr base = decode_latency(in, depth + 1);
      return make_scaled(std::move(base), n);
    }
    default:
      in.fail("unknown latency tag " + std::to_string(tag));
  }
}

/// Refuses, before any game is built, latencies whose elasticity bound
/// over `players` (computed as the CongestionGame constructor does)
/// exceeds kMaxElasticity.
void check_elasticity(BinReader& in, const std::vector<LatencyPtr>& latencies,
                      std::int64_t players) {
  if (players < 1) in.fail("bad player count");
  double d = 1.0;
  for (const LatencyPtr& fn : latencies) {
    d = std::max(d, fn->elasticity_upper(static_cast<double>(players)));
  }
  if (d > kMaxElasticity) in.fail("latency elasticity too large");
}

}  // namespace

void encode_game(BinWriter& out, const CongestionGame& game) {
  if (static_cast<std::uint32_t>(game.num_resources()) > kMaxResources ||
      static_cast<std::uint32_t>(game.num_strategies()) > kMaxStrategies ||
      game.elasticity() > kMaxElasticity) {
    throw persist_error("game too large for the snapshot format");
  }
  out.i64(game.num_players());
  out.u32(static_cast<std::uint32_t>(game.num_resources()));
  for (Resource e = 0; e < game.num_resources(); ++e) {
    encode_latency(out, game.latency(e));
  }
  out.u32(static_cast<std::uint32_t>(game.num_strategies()));
  for (StrategyId s = 0; s < game.num_strategies(); ++s) {
    const Strategy& st = game.strategy(s);
    out.u32(static_cast<std::uint32_t>(st.size()));
    for (Resource e : st) out.i32(e);
  }
}

CongestionGame decode_game(BinReader& in) {
  const std::int64_t players = in.i64();
  const std::uint32_t resources = in.u32();
  if (resources < 1 || resources > kMaxResources) {
    in.fail("bad resource count");
  }
  std::vector<LatencyPtr> latencies;
  latencies.reserve(resources);
  for (std::uint32_t e = 0; e < resources; ++e) {
    latencies.push_back(decode_latency(in));
  }
  check_elasticity(in, latencies, players);
  const std::uint32_t num_strategies = in.u32();
  // Each strategy takes at least its u32 length: a count the remaining
  // bytes cannot hold fails before the reserve.
  if (num_strategies < 1 || num_strategies > kMaxStrategies ||
      num_strategies > in.remaining() / 4) {
    in.fail("bad strategy count");
  }
  std::vector<Strategy> strategies;
  strategies.reserve(num_strategies);
  for (std::uint32_t s = 0; s < num_strategies; ++s) {
    const std::uint32_t len = in.u32();
    if (len > resources) in.fail("strategy longer than the resource set");
    Strategy st(len);
    for (auto& e : st) e = in.i32();
    strategies.push_back(std::move(st));
  }
  return CongestionGame(std::move(latencies), std::move(strategies), players);
}

void encode_state(BinWriter& out, const State& x) {
  out.u32(static_cast<std::uint32_t>(x.counts().size()));
  for (std::int64_t c : x.counts()) out.i64(c);
}

State decode_state(BinReader& in, const CongestionGame& game) {
  const std::uint32_t k = in.u32();
  if (k != static_cast<std::uint32_t>(game.num_strategies())) {
    in.fail("state dimension does not match game");
  }
  std::vector<std::int64_t> counts(k);
  for (auto& c : counts) c = in.i64();
  return State(game, std::move(counts));
}

// ---- Asymmetric games -------------------------------------------------------

namespace {
constexpr std::uint32_t kMaxClasses = 1u << 16;
}

void encode_asymmetric_game(BinWriter& out, const AsymmetricGame& game) {
  if (static_cast<std::uint32_t>(game.num_resources()) > kMaxResources ||
      static_cast<std::uint32_t>(game.num_classes()) > kMaxClasses ||
      game.elasticity() > kMaxElasticity) {
    throw persist_error("asymmetric game too large for the snapshot format");
  }
  out.u32(static_cast<std::uint32_t>(game.num_resources()));
  for (Resource e = 0; e < game.num_resources(); ++e) {
    encode_latency(out, game.latency(e));
  }
  out.u32(static_cast<std::uint32_t>(game.num_classes()));
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const PlayerClass& cls = game.player_class(c);
    if (cls.strategies.size() > kMaxStrategies) {
      throw persist_error("asymmetric class too large for the snapshot format");
    }
    out.i64(cls.num_players);
    out.u32(static_cast<std::uint32_t>(cls.strategies.size()));
    for (const Strategy& st : cls.strategies) {
      out.u32(static_cast<std::uint32_t>(st.size()));
      for (Resource e : st) out.i32(e);
    }
  }
}

AsymmetricGame decode_asymmetric_game(BinReader& in) {
  const std::uint32_t resources = in.u32();
  if (resources < 1 || resources > kMaxResources) {
    in.fail("bad resource count");
  }
  std::vector<LatencyPtr> latencies;
  latencies.reserve(resources);
  for (std::uint32_t e = 0; e < resources; ++e) {
    latencies.push_back(decode_latency(in));
  }
  const std::uint32_t num_classes = in.u32();
  if (num_classes < 1 || num_classes > kMaxClasses) {
    in.fail("bad class count");
  }
  std::vector<PlayerClass> classes;
  classes.reserve(num_classes);
  std::int64_t players = 0;
  for (std::uint32_t c = 0; c < num_classes; ++c) {
    PlayerClass cls;
    cls.num_players = in.i64();
    if (cls.num_players < 1 ||
        cls.num_players > std::numeric_limits<std::int64_t>::max() - players) {
      in.fail("bad class player count");
    }
    players += cls.num_players;
    const std::uint32_t num_strategies = in.u32();
    if (num_strategies < 1 || num_strategies > kMaxStrategies ||
        num_strategies > in.remaining() / 4) {
      in.fail("bad class strategy count");
    }
    cls.strategies.reserve(num_strategies);
    for (std::uint32_t s = 0; s < num_strategies; ++s) {
      const std::uint32_t len = in.u32();
      if (len > resources) in.fail("strategy longer than the resource set");
      Strategy st(len);
      for (auto& e : st) e = in.i32();
      cls.strategies.push_back(std::move(st));
    }
    classes.push_back(std::move(cls));
  }
  check_elasticity(in, latencies, players);
  return AsymmetricGame(std::move(latencies), std::move(classes));
}

void encode_asymmetric_state(BinWriter& out, const AsymmetricState& x) {
  const auto& counts = x.counts();
  out.u32(static_cast<std::uint32_t>(counts.size()));
  for (const auto& cls : counts) {
    out.u32(static_cast<std::uint32_t>(cls.size()));
    for (std::int64_t c : cls) out.i64(c);
  }
}

AsymmetricState decode_asymmetric_state(BinReader& in,
                                        const AsymmetricGame& game) {
  const std::uint32_t num_classes = in.u32();
  if (num_classes != static_cast<std::uint32_t>(game.num_classes())) {
    in.fail("state class count does not match game");
  }
  std::vector<std::vector<std::int64_t>> counts(num_classes);
  for (std::uint32_t c = 0; c < num_classes; ++c) {
    const std::uint32_t k = in.u32();
    const auto& cls = game.player_class(static_cast<std::int32_t>(c));
    if (k != static_cast<std::uint32_t>(cls.strategies.size())) {
      in.fail("state dimension does not match class strategy space");
    }
    counts[c].resize(k);
    // Bounded by the players still unplaced, so no sum can overflow.
    std::int64_t unplaced = cls.num_players;
    for (auto& v : counts[c]) {
      v = in.i64();
      if (v < 0 || v > unplaced) in.fail("class counts exceed the class");
      unplaced -= v;
    }
  }
  // The AsymmetricState constructor re-validates per-class totals.
  return AsymmetricState(game, std::move(counts));
}

// ---- Threshold lower-bound games --------------------------------------------

namespace {
constexpr std::uint32_t kMaxMaxCutNodes = 1024;
}

void encode_maxcut(BinWriter& out, const MaxCutInstance& inst) {
  if (static_cast<std::uint32_t>(inst.num_nodes()) > kMaxMaxCutNodes) {
    throw persist_error("MaxCut instance too large for the snapshot format");
  }
  const int n = inst.num_nodes();
  out.u32(static_cast<std::uint32_t>(n));
  // Upper triangle only: the matrix is symmetric with a zero diagonal
  // (constructor-enforced), so the rest is redundant.
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) out.f64(inst.weight(i, j));
  }
}

MaxCutInstance decode_maxcut(BinReader& in) {
  const std::uint32_t n = in.u32();
  if (n < 1 || n > kMaxMaxCutNodes) in.fail("bad MaxCut node count");
  std::vector<std::vector<double>> w(n, std::vector<double>(n, 0.0));
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      w[i][j] = w[j][i] = in.f64();
    }
  }
  return MaxCutInstance(std::move(w));
}

void encode_packed_bits(BinWriter& out, const std::vector<bool>& bits) {
  out.u32(static_cast<std::uint32_t>(bits.size()));
  // Bit-packed: tripled games have 3n players, still tiny, but packing
  // keeps the encoding byte-stable however vector<bool> is implemented.
  std::uint8_t byte = 0;
  int filled = 0;
  for (bool b : bits) {
    byte = static_cast<std::uint8_t>(byte | ((b ? 1 : 0) << filled));
    if (++filled == 8) {
      out.u8(byte);
      byte = 0;
      filled = 0;
    }
  }
  if (filled > 0) out.u8(byte);
}

std::vector<bool> decode_packed_bits(BinReader& in, std::uint32_t max_bits) {
  const std::uint32_t n = in.u32();
  if (n > max_bits) in.fail("bit vector longer than its bound");
  std::vector<bool> bits(n);
  std::uint8_t byte = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i % 8 == 0) byte = in.u8();
    bits[i] = ((byte >> (i % 8)) & 1) != 0;
  }
  return bits;
}

void encode_threshold_state(BinWriter& out, const ThresholdState& s) {
  encode_packed_bits(out, s.in_bits());
}

ThresholdState decode_threshold_state(BinReader& in,
                                      const ThresholdGame& game) {
  std::vector<bool> bits = decode_packed_bits(
      in, static_cast<std::uint32_t>(game.num_players()));
  if (bits.size() != static_cast<std::size_t>(game.num_players())) {
    in.fail("state player count does not match threshold game");
  }
  return ThresholdState(game, std::move(bits));
}

}  // namespace cid::persist
