#include "game/io.hpp"

#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace cid {

namespace {

/// Emits one latency function as a single line body (without the leading
/// "latency " keyword). Scaled functions recurse.
void emit_latency(std::ostringstream& os, const LatencyFunction& fn) {
  switch (fn.kind()) {
    case LatencyFunction::Kind::kConstant:
      os << "constant " << fn.constant();
      return;
    case LatencyFunction::Kind::kMonomial:
      os << "monomial " << fn.coefficient() << ' ' << fn.degree();
      return;
    case LatencyFunction::Kind::kPolynomial:
      os << "polynomial " << fn.coefficients().size();
      for (double a : fn.coefficients()) os << ' ' << a;
      return;
    case LatencyFunction::Kind::kExponential:
      os << "exponential " << fn.scale() << ' ' << fn.rate();
      return;
    case LatencyFunction::Kind::kScaled:
      os << "scaled " << fn.divisor() << ' ';
      emit_latency(os, fn.base());
      return;
  }
}

class LineParser {
 public:
  explicit LineParser(const std::string& text) : in_(text) {}

  /// Next non-empty line as a token stream; false at end of input.
  bool next(std::istringstream& line) {
    std::string raw;
    while (std::getline(in_, raw)) {
      ++line_number_;
      if (raw.empty()) continue;
      line.clear();
      line.str(raw);
      return true;
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw parse_error(line_number_, message);
  }

  /// The next line, which must exist.
  void expect_line(std::istringstream& line) {
    if (!next(line)) fail("truncated input");
  }

  template <typename T>
  T read(std::istringstream& line, const char* what) {
    T value;
    if (!(line >> value)) fail(std::string("expected ") + what);
    return value;
  }

 private:
  std::istringstream in_;
  int line_number_ = 0;
};

LatencyPtr parse_latency_body(LineParser& p, std::istringstream& line,
                              int depth = 0) {
  std::string kind;
  if (!(line >> kind)) p.fail("expected latency kind");
  if (kind == "constant") {
    return make_constant(p.read<double>(line, "constant value"));
  }
  if (kind == "monomial") {
    const double a = p.read<double>(line, "coefficient");
    const double d = p.read<double>(line, "degree");
    return make_monomial(a, d);
  }
  if (kind == "polynomial") {
    const auto k = p.read<std::size_t>(line, "coefficient count");
    if (k > kMaxPolynomialCoefficients) p.fail("polynomial degree too large");
    std::vector<double> coef(k);
    for (auto& c : coef) c = p.read<double>(line, "coefficient");
    return make_polynomial(std::move(coef));
  }
  if (kind == "exponential") {
    const double a = p.read<double>(line, "scale");
    const double b = p.read<double>(line, "rate");
    return make_exponential(a, b);
  }
  if (kind == "scaled") {
    const auto n = p.read<std::int64_t>(line, "scale divisor");
    if (depth >= kMaxScaledNesting) p.fail("scaled latency nested too deep");
    LatencyPtr base = parse_latency_body(p, line, depth + 1);
    return make_scaled(std::move(base), n);
  }
  p.fail("unknown latency kind '" + kind + "'");
}

}  // namespace

std::string serialize_game(const CongestionGame& game) {
  std::ostringstream os;
  os.precision(17);
  os << "cid-game v1\n";
  os << "players " << game.num_players() << '\n';
  os << "resources " << game.num_resources() << '\n';
  for (Resource e = 0; e < game.num_resources(); ++e) {
    os << "latency ";
    std::ostringstream body;
    body.precision(17);
    emit_latency(body, game.latency(e));
    os << body.str() << '\n';
  }
  os << "strategies " << game.num_strategies() << '\n';
  for (StrategyId s = 0; s < game.num_strategies(); ++s) {
    const Strategy& st = game.strategy(s);
    os << "strategy " << st.size();
    for (Resource e : st) os << ' ' << e;
    os << '\n';
  }
  os << "end\n";
  return os.str();
}

namespace {

/// parse_game's line walk. The latency factories' own argument checks
/// throw invariant_violation; parse_game reports those at their line too.
CongestionGame parse_game_lines(LineParser& p) {
  std::istringstream line;
  p.expect_line(line);
  std::string magic, version;
  line >> magic >> version;
  if (magic != "cid-game" || version != "v1") p.fail("bad header");

  p.expect_line(line);
  std::string key;
  line >> key;
  if (key != "players") p.fail("expected 'players'");
  const auto players = p.read<std::int64_t>(line, "player count");
  if (players < 1) p.fail("bad player count");

  p.expect_line(line);
  line >> key;
  if (key != "resources") p.fail("expected 'resources'");
  const auto resources = p.read<std::int32_t>(line, "resource count");
  if (resources < 1 || resources > 1 << 20) p.fail("bad resource count");

  std::vector<LatencyPtr> latencies;
  latencies.reserve(static_cast<std::size_t>(resources));
  for (std::int32_t e = 0; e < resources; ++e) {
    p.expect_line(line);
    line >> key;
    if (key != "latency") p.fail("expected 'latency'");
    latencies.push_back(parse_latency_body(p, line));
    if (latencies.back()->elasticity_upper(static_cast<double>(players)) >
        kMaxElasticity) {
      p.fail("latency elasticity too large");
    }
  }

  p.expect_line(line);
  line >> key;
  if (key != "strategies") p.fail("expected 'strategies'");
  const auto num_strategies = p.read<std::int32_t>(line, "strategy count");
  if (num_strategies < 1 || num_strategies > 1 << 22) {
    p.fail("bad strategy count");
  }
  std::vector<Strategy> strategies;
  for (std::int32_t s = 0; s < num_strategies; ++s) {
    p.expect_line(line);
    line >> key;
    if (key != "strategy") p.fail("expected 'strategy'");
    // Resources are sorted and distinct, so a strategy has at most one
    // entry per resource; check before allocating.
    const auto len = p.read<std::size_t>(line, "strategy length");
    if (len < 1 || len > static_cast<std::size_t>(resources)) {
      p.fail("bad strategy length");
    }
    Strategy st(len);
    for (std::size_t i = 0; i < len; ++i) {
      st[i] = p.read<Resource>(line, "resource id");
      if (st[i] < 0 || st[i] >= resources) p.fail("resource id out of range");
      if (i > 0 && st[i - 1] >= st[i]) {
        p.fail("strategy resources must be sorted and duplicate-free");
      }
    }
    strategies.push_back(std::move(st));
  }

  p.expect_line(line);
  line >> key;
  if (key != "end") p.fail("expected 'end'");

  return CongestionGame(std::move(latencies), std::move(strategies),
                        players);
}

}  // namespace

CongestionGame parse_game(const std::string& text) {
  LineParser p(text);
  try {
    return parse_game_lines(p);
  } catch (const parse_error&) {
    throw;
  } catch (const invariant_violation& e) {
    p.fail(e.what());
  }
}

std::string serialize_state(const State& x) {
  std::ostringstream os;
  os << "cid-state v1\ncounts " << x.counts().size();
  for (std::int64_t c : x.counts()) os << ' ' << c;
  os << '\n';
  return os.str();
}

State parse_state(const CongestionGame& game, const std::string& text) {
  LineParser p(text);
  std::istringstream line;
  p.expect_line(line);
  std::string magic, version;
  line >> magic >> version;
  if (magic != "cid-state" || version != "v1") p.fail("bad header");
  p.expect_line(line);
  std::string key;
  line >> key;
  if (key != "counts") p.fail("expected 'counts'");
  const auto k = p.read<std::size_t>(line, "count of counts");
  if (k != static_cast<std::size_t>(game.num_strategies())) {
    p.fail("state dimension does not match game");
  }
  std::vector<std::int64_t> counts(k);
  for (auto& c : counts) c = p.read<std::int64_t>(line, "count");
  return State(game, std::move(counts));
}

namespace {

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  CID_ENSURE(out.good(), "cannot open path for writing: " + path);
  out << text;
  out.flush();
  CID_ENSURE(out.good(), "write failed (disk full?) for: " + path);
  obs::record_persist_write(text.size(), /*fsyncs=*/0);
  obs::record_persist_flush();
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  CID_ENSURE(in.good(), "cannot open path for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  CID_ENSURE(!in.bad(), "read failed for: " + path);
  return buffer.str();
}

}  // namespace

void save_game(const CongestionGame& game, const std::string& path) {
  write_text_file(path, serialize_game(game));
}

CongestionGame load_game(const std::string& path) {
  return parse_game(read_text_file(path));
}

void save_state(const State& x, const std::string& path) {
  write_text_file(path, serialize_state(x));
}

State load_state(const CongestionGame& game, const std::string& path) {
  return parse_state(game, read_text_file(path));
}

}  // namespace cid
