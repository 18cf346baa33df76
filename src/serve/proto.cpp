#include "serve/proto.hpp"

#include <cstring>
#include <limits>

#include "sweep/runner.hpp"

namespace cid::serve {
namespace {

void append_u32le(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
  out.push_back(static_cast<char>((value >> 16) & 0xFF));
  out.push_back(static_cast<char>((value >> 24) & 0xFF));
}

std::uint32_t read_u32le(const char* bytes) {
  const auto* u = reinterpret_cast<const unsigned char*>(bytes);
  return static_cast<std::uint32_t>(u[0]) |
         (static_cast<std::uint32_t>(u[1]) << 8) |
         (static_cast<std::uint32_t>(u[2]) << 16) |
         (static_cast<std::uint32_t>(u[3]) << 24);
}

}  // namespace

std::string encode_frame(std::string_view payload) {
  if (payload.empty()) throw proto_error("encode_frame: empty payload");
  if (payload.size() > kMaxFrameBytes) {
    throw proto_error("encode_frame: payload exceeds " +
                      std::to_string(kMaxFrameBytes) + " bytes");
  }
  std::string out;
  out.reserve(4 + payload.size());
  append_u32le(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

void FrameReader::feed(std::string_view bytes) {
  // Compact once consumed bytes dominate, so a long-lived connection does
  // not grow the buffer without bound.
  if (pos_ > 4096 && pos_ > buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes);
}

std::optional<std::string> FrameReader::next() {
  if (buffer_.size() - pos_ < 4) return std::nullopt;
  const std::uint32_t len = read_u32le(buffer_.data() + pos_);
  if (len == 0) throw proto_error("frame: zero-length payload");
  if (len > kMaxFrameBytes) {
    throw proto_error("frame: length " + std::to_string(len) + " exceeds " +
                      std::to_string(kMaxFrameBytes));
  }
  if (buffer_.size() - pos_ - 4 < len) return std::nullopt;
  std::string payload = buffer_.substr(pos_ + 4, len);
  pos_ += 4 + static_cast<std::size_t>(len);
  return payload;
}

// ---- JSON parser ------------------------------------------------------------

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    if (peek() != '{') throw proto_error("json: expected object");
    JsonValue value = parse_object();
    skip_ws();
    if (pos_ != text_.size()) throw proto_error("json: trailing garbage");
    return value;
  }

 private:
  char peek() const {
    if (pos_ >= text_.size()) throw proto_error("json: unexpected end");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      throw proto_error(std::string("json: expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  JsonValue parse_value(int depth) {
    if (depth > 8) throw proto_error("json: nesting too deep");
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object(depth);
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') {
      parse_literal("null");
      return JsonValue{};
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    if (c == '[') throw proto_error("json: arrays not supported");
    throw proto_error("json: unexpected character");
  }

  JsonValue parse_object(int depth = 0) {
    expect('{');
    JsonValue obj;
    obj.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      if (!obj.object.emplace(std::move(key), parse_value(depth + 1)).second) {
        throw proto_error("json: duplicate key");
      }
      skip_ws();
      const char c = take();
      if (c == '}') return obj;
      if (c != ',') throw proto_error("json: expected ',' or '}'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        throw proto_error("json: control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          // Protocol strings are ASCII; accept \u00XX and reject the rest
          // rather than carrying a full UTF-16 decoder.
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else throw proto_error("json: bad \\u escape");
          }
          if (value > 0x7F) throw proto_error("json: non-ASCII \\u escape");
          out.push_back(static_cast<char>(value));
          break;
        }
        default: throw proto_error("json: bad escape");
      }
    }
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (peek() == 't') {
      parse_literal("true");
      v.boolean = true;
    } else {
      parse_literal("false");
      v.boolean = false;
    }
    return v;
  }

  void parse_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      throw proto_error("json: bad literal");
    }
    pos_ += word.size();
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') { ++pos_; continue; }
      if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
        continue;
      }
      break;
    }
    const std::string token(text_.substr(start, pos_ - start));
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    try {
      std::size_t used = 0;
      v.number = std::stod(token, &used);
      if (used != token.size()) throw proto_error("json: bad number");
      if (integral) {
        v.integer = std::stoll(token, &used);
        v.is_integer = used == token.size();
      }
    } catch (const proto_error&) {
      throw;
    } catch (const std::exception&) {
      throw proto_error("json: bad number");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

// ---- Message ----------------------------------------------------------------

Message Message::parse(std::string_view payload) {
  Message m;
  m.root_ = parse_json(payload);
  m.type_ = [&] {
    const auto it = m.root_.object.find("type");
    if (it == m.root_.object.end() ||
        it->second.kind != JsonValue::Kind::kString) {
      throw proto_error("message: missing string field \"type\"");
    }
    return it->second.string;
  }();
  return m;
}

const JsonValue& Message::field(const std::string& key) const {
  const auto it = root_.object.find(key);
  if (it == root_.object.end()) {
    throw proto_error("message " + type_ + ": missing field \"" + key + "\"");
  }
  return it->second;
}

bool Message::has(const std::string& key) const {
  return root_.object.count(key) != 0;
}

std::string Message::get_string(const std::string& key) const {
  const JsonValue& v = field(key);
  if (v.kind != JsonValue::Kind::kString) {
    throw proto_error("message " + type_ + ": field \"" + key +
                      "\" is not a string");
  }
  return v.string;
}

std::int64_t Message::get_int(const std::string& key) const {
  const JsonValue& v = field(key);
  if (v.kind != JsonValue::Kind::kNumber || !v.is_integer) {
    throw proto_error("message " + type_ + ": field \"" + key +
                      "\" is not an integer");
  }
  return v.integer;
}

std::uint64_t Message::get_uint(const std::string& key,
                                std::uint64_t max) const {
  const std::int64_t value = get_int(key);
  if (value < 0 || static_cast<std::uint64_t>(value) > max) {
    throw proto_error("message " + type_ + ": field \"" + key +
                      "\" is outside [0, " + std::to_string(max) + "]");
  }
  return static_cast<std::uint64_t>(value);
}

std::map<std::string, std::int64_t> Message::get_counters(
    const std::string& key) const {
  const JsonValue& v = field(key);
  if (v.kind != JsonValue::Kind::kObject) {
    throw proto_error("message " + type_ + ": field \"" + key +
                      "\" is not an object");
  }
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : v.object) {
    if (value.kind != JsonValue::Kind::kNumber || !value.is_integer) {
      throw proto_error("message " + type_ + ": counter \"" + name +
                        "\" is not an integer");
    }
    out.emplace(name, value.integer);
  }
  return out;
}

// ---- Fixed-width hex --------------------------------------------------------

namespace {

constexpr std::size_t kOutcomeHex = 66;
constexpr std::size_t kRecordHex = 8 + kOutcomeHex;

void append_hex(std::string& out, std::uint64_t value, int digits) {
  for (int i = digits - 1; i >= 0; --i) {
    out.push_back("0123456789abcdef"[(value >> (4 * i)) & 0xF]);
  }
}

/// Every character of `hex` as one hex digit (at most 16 of them).
std::uint64_t parse_hex(std::string_view hex, const char* what) {
  std::uint64_t bits = 0;
  for (const char c : hex) {
    bits <<= 4;
    if (c >= '0' && c <= '9') bits |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') bits |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') bits |= static_cast<std::uint64_t>(c - 'A' + 10);
    else throw proto_error(std::string(what) + ": invalid hex digit");
  }
  return bits;
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double double_of(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace

std::string outcome_hex(const sweep::TrialOutcome& outcome) {
  std::string out;
  out.reserve(kOutcomeHex);
  append_hex(out, bits_of(outcome.rounds), 16);
  append_hex(out, outcome.converged ? 1 : 0, 2);
  append_hex(out, static_cast<std::uint64_t>(outcome.movers), 16);
  append_hex(out, bits_of(outcome.potential), 16);
  append_hex(out, bits_of(outcome.social_cost), 16);
  return out;
}

sweep::TrialOutcome outcome_from_hex(std::string_view hex) {
  if (hex.size() != kOutcomeHex) {
    throw proto_error("outcome: expected " + std::to_string(kOutcomeHex) +
                      " hex digits");
  }
  sweep::TrialOutcome outcome;
  outcome.rounds = double_of(parse_hex(hex.substr(0, 16), "outcome"));
  const std::uint64_t converged = parse_hex(hex.substr(16, 2), "outcome");
  if (converged > 1) throw proto_error("outcome: converged is not 00/01");
  outcome.converged = converged == 1;
  outcome.movers =
      static_cast<std::int64_t>(parse_hex(hex.substr(18, 16), "outcome"));
  outcome.potential = double_of(parse_hex(hex.substr(34, 16), "outcome"));
  outcome.social_cost = double_of(parse_hex(hex.substr(50, 16), "outcome"));
  return outcome;
}

// ---- Builders ---------------------------------------------------------------

std::string fingerprint_hex(std::uint64_t fingerprint) {
  std::string out;
  append_hex(out, fingerprint, 16);
  return out;
}

std::string msg_hello(std::uint64_t fingerprint, std::string_view worker,
                      std::string_view canary) {
  obs::JsonObject o;
  o.str("type", "hello");
  o.num("v", std::int64_t{kServeProtoVersion});
  o.str("fingerprint", fingerprint_hex(fingerprint));
  o.str("worker", worker);
  o.str("canary", canary);
  return o.take();
}

std::string msg_welcome(std::int64_t worker_id, std::int64_t trials_total,
                        std::int64_t trials_done) {
  obs::JsonObject o;
  o.str("type", "welcome");
  o.num("v", std::int64_t{kServeProtoVersion});
  o.num("worker_id", worker_id);
  o.num("trials_total", trials_total);
  o.num("trials_done", trials_done);
  return o.take();
}

std::string msg_error(std::string_view message) {
  obs::JsonObject o;
  o.str("type", "error");
  o.str("message", message);
  return o.take();
}

std::string msg_lease(std::int64_t budget) {
  obs::JsonObject o;
  o.str("type", "lease");
  o.num("budget", budget);
  return o.take();
}

std::string msg_grant(std::uint64_t lease_id, std::uint32_t cell,
                      std::uint32_t trial, std::uint32_t count,
                      std::int64_t ttl_ms) {
  obs::JsonObject o;
  o.str("type", "grant");
  o.num("lease_id", static_cast<std::int64_t>(lease_id));
  o.num("cell", static_cast<std::int64_t>(cell));
  o.num("trial", static_cast<std::int64_t>(trial));
  o.num("count", static_cast<std::int64_t>(count));
  o.num("ttl_ms", ttl_ms);
  return o.take();
}

std::string msg_wait(std::int64_t backoff_ms) {
  obs::JsonObject o;
  o.str("type", "wait");
  o.num("backoff_ms", backoff_ms);
  return o.take();
}

std::string msg_drained() {
  obs::JsonObject o;
  o.str("type", "drained");
  return o.take();
}

std::string msg_renew(std::uint64_t lease_id) {
  obs::JsonObject o;
  o.str("type", "renew");
  o.num("lease_id", static_cast<std::int64_t>(lease_id));
  return o.take();
}

std::string msg_renewed(std::uint64_t lease_id) {
  obs::JsonObject o;
  o.str("type", "renewed");
  o.num("lease_id", static_cast<std::int64_t>(lease_id));
  return o.take();
}

std::string msg_lease_lost(std::uint64_t lease_id) {
  obs::JsonObject o;
  o.str("type", "lease_lost");
  o.num("lease_id", static_cast<std::int64_t>(lease_id));
  return o.take();
}

std::string msg_complete(std::uint64_t lease_id, std::uint32_t cell,
                         const std::vector<TrialRecord>& records) {
  std::string outcomes;
  outcomes.reserve(records.size() * kRecordHex);
  for (const TrialRecord& record : records) {
    append_hex(outcomes, record.trial, 8);
    outcomes += outcome_hex(record.outcome);
  }
  obs::JsonObject o;
  o.str("type", "complete");
  o.num("lease_id", static_cast<std::int64_t>(lease_id));
  o.num("cell", static_cast<std::int64_t>(cell));
  o.num("count", static_cast<std::int64_t>(records.size()));
  o.str("outcomes", outcomes);
  return o.take();
}

std::string msg_requeue(std::uint64_t lease_id, std::string_view reason) {
  obs::JsonObject o;
  o.str("type", "requeue");
  o.num("lease_id", static_cast<std::int64_t>(lease_id));
  o.str("reason", reason);
  return o.take();
}

std::string msg_metrics(const std::map<std::string, std::int64_t>& counters) {
  obs::JsonObject inner;
  for (const auto& [name, value] : counters) inner.num(name, value);
  obs::JsonObject o;
  o.str("type", "metrics");
  o.num("metrics_version", std::int64_t{obs::kMetricsVersion});
  o.raw("counters", inner.take());
  return o.take();
}

std::string msg_bye() {
  obs::JsonObject o;
  o.str("type", "bye");
  return o.take();
}

std::string msg_ack() {
  obs::JsonObject o;
  o.str("type", "ack");
  return o.take();
}

// ---- Typed decoders ---------------------------------------------------------

namespace {

constexpr std::uint64_t kMaxId =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

}  // namespace

Grant decode_grant(const Message& message) {
  Grant grant;
  grant.lease_id = message.get_uint("lease_id", kMaxId);
  grant.cell = static_cast<std::uint32_t>(message.get_uint("cell", kMaxU32));
  grant.trial = static_cast<std::uint32_t>(message.get_uint("trial", kMaxU32));
  grant.count =
      static_cast<std::uint32_t>(message.get_uint("count", kMaxLeaseTrials));
  if (grant.count == 0) throw proto_error("grant: empty run");
  grant.ttl_ms = static_cast<std::int64_t>(message.get_uint("ttl_ms", kMaxId));
  return grant;
}

std::int64_t decode_budget(const Message& message) {
  const std::int64_t budget = message.get_int("budget");
  if (budget < 1 && budget != -1) {
    throw proto_error("lease: budget must be -1 or >= 1");
  }
  return budget;
}

Batch decode_complete(const Message& message, std::size_t max_records) {
  Batch batch;
  batch.lease_id = message.get_uint("lease_id", kMaxId);
  batch.cell = static_cast<std::uint32_t>(message.get_uint("cell", kMaxU32));
  // Both bounds hold before the records vector is sized: the count may
  // not exceed the lease, and the hex must hold exactly that many records.
  const std::uint64_t count = message.get_uint("count", max_records);
  if (count == 0) throw proto_error("complete: empty batch");
  const std::string hex = message.get_string("outcomes");
  if (hex.size() != count * kRecordHex) {
    throw proto_error("complete: " + std::to_string(count) +
                      " records need " + std::to_string(count * kRecordHex) +
                      " hex digits, got " + std::to_string(hex.size()));
  }
  batch.records.reserve(count);
  const std::string_view view(hex);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string_view record = view.substr(i * kRecordHex, kRecordHex);
    TrialRecord r;
    r.trial = static_cast<std::uint32_t>(parse_hex(record.substr(0, 8),
                                                   "complete"));
    if (i > 0 && r.trial <= batch.records.back().trial) {
      throw proto_error("complete: trials not in ascending order");
    }
    r.outcome = outcome_from_hex(record.substr(8));
    batch.records.push_back(r);
  }
  return batch;
}

std::uint64_t decode_fingerprint(const Message& message) {
  const std::string hex = message.get_string("fingerprint");
  if (hex.size() != 16) throw proto_error("hello: bad fingerprint");
  return parse_hex(hex, "hello: fingerprint");
}

const std::string& canary_bits() {
  static const std::string bits = [] {
    sweep::ScenarioSpec spec;
    spec.name = "network-routing";
    spec.params = {{"width", 2.0}, {"depth", 2.0}};
    const auto instance = sweep::make_scenario(spec, 64);
    const sweep::ProtocolSpec protocol =
        sweep::parse_protocol_list("imitation").front();
    sweep::DynamicsConfig dynamics;
    dynamics.max_rounds = 64;
    const sweep::TrialAttempts attempts = sweep::run_trial_attempts(
        *instance, protocol, dynamics, sweep::derive_trial_rng(0x5eed, 0, 0),
        nullptr, /*max_attempts=*/3, /*backoff_ms=*/0.0,
        /*backoff_max_ms=*/0.0, [](int, const std::string&) {});
    if (!attempts.outcome) {
      throw std::runtime_error("canary trial failed: " + attempts.error);
    }
    return outcome_hex(*attempts.outcome);
  }();
  return bits;
}

}  // namespace cid::serve
