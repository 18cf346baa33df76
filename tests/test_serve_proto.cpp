// Wire-protocol guarantees for distributed sweeps (src/serve/proto.hpp).
//
// The codec is the trust boundary of cid_serve: every frame a worker or a
// port scanner sends crosses it. The contract under test: well-formed
// frames round-trip under any chunking, malformed input (zero/oversized
// length prefixes, truncated frames, garbage JSON, mistyped fields) is
// rejected with proto_error — never buffered, never a hang — and outcome
// doubles cross the wire bit-exactly (NaN and -0.0 included), because the
// fleet-vs-local manifest byte-identity claim rides on them. A seeded
// hostile-bytes pass mutates a frame of every message builder and feeds
// it through the decoders. The Handshake tests drive a live loopback
// coordinator with a raw socket: version, grid and canary mismatches and a
// garbage frame each get a clean close before any grant.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "persist/binio.hpp"
#include "persist/manifest.hpp"
#include "serve/coordinator.hpp"
#include "serve/net.hpp"
#include "serve/proto.hpp"
#include "serve/worker.hpp"
#include "sweep/runner.hpp"
#include "util/rng.hpp"

namespace cid::serve {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---- Frame codec ------------------------------------------------------------

TEST(Frames, RoundTripUnderAnyChunking) {
  const std::vector<std::string> payloads = {
      "{\"type\":\"lease\"}",
      "{\"type\":\"grant\",\"lease_id\":7}",
      std::string("{\"type\":\"pad\",\"s\":\"") + std::string(5000, 'x') +
          "\"}",
  };
  std::string stream;
  for (const std::string& p : payloads) stream += encode_frame(p);

  // Feed in every chunk size from pathological (1 byte) to all-at-once;
  // the reader must yield the same payloads in order regardless.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{4096}, stream.size()}) {
    SCOPED_TRACE(chunk);
    FrameReader reader;
    std::vector<std::string> out;
    for (std::size_t i = 0; i < stream.size(); i += chunk) {
      reader.feed(std::string_view(stream).substr(i, chunk));
      while (auto frame = reader.next()) out.push_back(*frame);
    }
    EXPECT_EQ(out, payloads);
    EXPECT_EQ(reader.buffered(), 0u);  // nothing half-read left behind
  }
}

TEST(Frames, WriterEnforcesTheSameLimitsTheReaderDoes) {
  EXPECT_THROW(encode_frame(""), proto_error);
  EXPECT_THROW(encode_frame(std::string(kMaxFrameBytes + 1, 'x')),
               proto_error);
  // The boundary itself is legal.
  EXPECT_NO_THROW(encode_frame(std::string(kMaxFrameBytes, 'x')));
}

TEST(Frames, ZeroAndOversizedLengthPrefixesRejectedImmediately) {
  const auto prefix = [](std::uint32_t length) {
    std::string out(4, '\0');
    for (int i = 0; i < 4; ++i) {
      out[static_cast<std::size_t>(i)] =
          static_cast<char>((length >> (8 * i)) & 0xFF);
    }
    return out;
  };
  {
    FrameReader reader;
    reader.feed(prefix(0));
    EXPECT_THROW(reader.next(), proto_error);
  }
  {
    // The oversized prefix is rejected from the four length bytes alone —
    // before any payload arrives — so garbage cannot demand a 4 GiB
    // buffer before being found out.
    FrameReader reader;
    reader.feed(prefix(kMaxFrameBytes + 1));
    EXPECT_THROW(reader.next(), proto_error);
  }
  {
    // "GET " as a length prefix (an HTTP client on the lease port) is
    // 0x20544547 bytes — far past the cap.
    FrameReader reader;
    reader.feed("GET / HTTP/1.1\r\n");
    EXPECT_THROW(reader.next(), proto_error);
  }
}

TEST(Frames, TruncatedFrameStaysPendingNotDelivered) {
  const std::string frame = encode_frame("{\"type\":\"bye\"}");
  FrameReader reader;
  reader.feed(std::string_view(frame).substr(0, frame.size() - 3));
  EXPECT_FALSE(reader.next().has_value());
  // EOF now would leave buffered() > 0 — the "peer died mid-frame"
  // signal connection teardown keys off.
  EXPECT_GT(reader.buffered(), 0u);
  reader.feed(std::string_view(frame).substr(frame.size() - 3));
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"type\":\"bye\"}");
  EXPECT_EQ(reader.buffered(), 0u);
}

// ---- JSON grammar -----------------------------------------------------------

TEST(Json, GarbageIsRejectedNotGuessedAt) {
  const std::vector<std::string> bad = {
      "",
      "not json",
      "42",                        // top level must be an object
      "\"string\"",                //
      "[1,2,3]",                   // arrays are outside the grammar
      "{\"a\":[1]}",               //
      "{",                         // truncated
      "{\"a\":}",                  //
      "{\"a\":1,}",                // trailing comma
      "{\"a\":1} trailing",        // trailing garbage
      "{\"a\":1,\"a\":2}",         // duplicate keys
      "{\"a\":\"\x01\"}",          // raw control char in string
      "{\"a\":\"\\u20ac\"}",       // non-ASCII escape (outside grammar)
      "{\"a\":nulll}",             //
      std::string(9, '{'),         // nesting past the depth cap
  };
  for (const std::string& text : bad) {
    SCOPED_TRACE(text);
    EXPECT_THROW(parse_json(text), proto_error);
  }
}

TEST(Json, IntegersStayExactDoublesStayDoubles) {
  const JsonValue v = parse_json(
      "{\"big\":9007199254740993,\"neg\":-5,\"frac\":1.5,\"exp\":1e3,"
      "\"yes\":true,\"none\":null,\"s\":\"a\\\\b\\\"c\\u0041\"}");
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  // 2^53+1 is not representable as a double; the integer lane keeps it.
  EXPECT_TRUE(v.object.at("big").is_integer);
  EXPECT_EQ(v.object.at("big").integer, 9007199254740993LL);
  EXPECT_EQ(v.object.at("neg").integer, -5);
  EXPECT_FALSE(v.object.at("frac").is_integer);
  EXPECT_EQ(v.object.at("frac").number, 1.5);
  EXPECT_FALSE(v.object.at("exp").is_integer);
  EXPECT_EQ(v.object.at("exp").number, 1000.0);
  EXPECT_TRUE(v.object.at("yes").boolean);
  EXPECT_EQ(v.object.at("none").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.object.at("s").string, "a\\b\"cA");
}

// ---- Bit-exact outcome records ---------------------------------------------

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

TEST(OutcomeHex, EveryBitPatternRoundTrips) {
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      3.141592653589793,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  for (const double value : values) {
    sweep::TrialOutcome outcome;
    outcome.rounds = value;
    outcome.potential = -value;
    outcome.social_cost = value;
    const std::string hex = outcome_hex(outcome);
    SCOPED_TRACE(hex);
    EXPECT_EQ(hex.size(), 66u);
    const sweep::TrialOutcome back = outcome_from_hex(hex);
    // Bitwise identity, not ==: NaN != NaN and -0.0 == 0.0 would both
    // let a lossy codec slip through a value comparison.
    EXPECT_EQ(bits(back.rounds), bits(outcome.rounds));
    EXPECT_EQ(bits(back.potential), bits(outcome.potential));
    EXPECT_EQ(bits(back.social_cost), bits(outcome.social_cost));
  }
  sweep::TrialOutcome one;
  one.rounds = 1.0;
  one.converged = true;
  one.movers = -1;
  EXPECT_EQ(outcome_hex(one),
            "3ff0000000000000" "01" "ffffffffffffffff"
            "0000000000000000" "0000000000000000");
}

TEST(OutcomeHex, MalformedHexRejected) {
  const std::string good = outcome_hex(sweep::TrialOutcome{});
  EXPECT_THROW(outcome_from_hex(""), proto_error);
  EXPECT_THROW(outcome_from_hex(good.substr(1)), proto_error);  // 65
  EXPECT_THROW(outcome_from_hex(good + "0"), proto_error);      // 67
  std::string bad_digit = good;
  bad_digit[3] = 'g';
  EXPECT_THROW(outcome_from_hex(bad_digit), proto_error);
  std::string bad_converged = good;
  bad_converged[17] = '2';
  EXPECT_THROW(outcome_from_hex(bad_converged), proto_error);
}

// ---- Messages ---------------------------------------------------------------

TEST(Messages, BatchCompleteRoundTripsOutcomesBitExactly) {
  std::vector<TrialRecord> records(3);
  records[0].trial = 7;
  records[0].outcome.rounds = 123456.0;
  records[0].outcome.converged = true;
  records[0].outcome.movers = 987654321;
  records[0].outcome.potential = -0.0;  // the classic decimal victims
  records[0].outcome.social_cost = std::numeric_limits<double>::quiet_NaN();
  records[1].trial = 8;
  records[1].outcome.movers = -1;  // two's complement crosses intact
  records[1].outcome.potential = std::numeric_limits<double>::infinity();
  records[1].outcome.social_cost = std::numeric_limits<double>::denorm_min();
  records[2].trial = 4000000000u;
  records[2].outcome.rounds = -std::numeric_limits<double>::quiet_NaN();

  const Message message = Message::parse(msg_complete(42, 3, records));
  EXPECT_EQ(message.type(), "complete");
  const Batch batch = decode_complete(message, records.size());
  EXPECT_EQ(batch.lease_id, 42u);
  EXPECT_EQ(batch.cell, 3u);
  ASSERT_EQ(batch.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    const sweep::TrialOutcome& a = records[i].outcome;
    const sweep::TrialOutcome& b = batch.records[i].outcome;
    EXPECT_EQ(batch.records[i].trial, records[i].trial);
    EXPECT_EQ(bits(b.rounds), bits(a.rounds));
    EXPECT_EQ(b.converged, a.converged);
    EXPECT_EQ(b.movers, a.movers);
    EXPECT_EQ(bits(b.potential), bits(a.potential));
    EXPECT_EQ(bits(b.social_cost), bits(a.social_cost));
  }
}

TEST(Messages, BatchCountIsCheckedAgainstLeaseAndBytes) {
  std::vector<TrialRecord> records(4);
  for (std::uint32_t i = 0; i < 4; ++i) records[i].trial = i;
  const std::string payload = msg_complete(1, 0, records);
  // More records than the lease has unfinished trials.
  EXPECT_THROW(decode_complete(Message::parse(payload), 3), proto_error);
  EXPECT_NO_THROW(decode_complete(Message::parse(payload), 4));

  const auto with = [&](const std::string& from, const std::string& to) {
    std::string out = payload;
    out.replace(out.find(from), from.size(), to);
    return Message::parse(out);
  };
  // A count past its bytes, a count of zero, a huge count: all refused by
  // the count/length check, before the records vector is sized.
  EXPECT_THROW(decode_complete(with("\"count\":4", "\"count\":5"), 256),
               proto_error);
  EXPECT_THROW(decode_complete(with("\"count\":4", "\"count\":0"), 256),
               proto_error);
  EXPECT_THROW(decode_complete(with("\"count\":4",
                                    "\"count\":4000000000000"),
                               std::numeric_limits<std::size_t>::max()),
               proto_error);
  // Hex past its count; a record out of trial order.
  EXPECT_THROW(decode_complete(with("\"outcomes\":\"",
                                    "\"outcomes\":\"00"),
                               256),
               proto_error);
  std::vector<TrialRecord> unordered = records;
  std::swap(unordered[1].trial, unordered[2].trial);
  EXPECT_THROW(decode_complete(Message::parse(msg_complete(1, 0, unordered)),
                               4),
               proto_error);
}

TEST(Messages, GrantAndLeaseBudgetRoundTrip) {
  const Grant grant =
      decode_grant(Message::parse(msg_grant(9, 4, 1990, 10, 30000)));
  EXPECT_EQ(grant.lease_id, 9u);
  EXPECT_EQ(grant.cell, 4u);
  EXPECT_EQ(grant.trial, 1990u);
  EXPECT_EQ(grant.count, 10u);
  EXPECT_EQ(grant.ttl_ms, 30000);
  EXPECT_THROW(decode_grant(Message::parse(msg_grant(9, 4, 0, 0, 1))),
               proto_error);
  EXPECT_THROW(decode_grant(Message::parse(
                   msg_grant(9, 4, 0, kMaxLeaseTrials + 1, 1))),
               proto_error);

  EXPECT_EQ(decode_budget(Message::parse(msg_lease(-1))), -1);
  EXPECT_EQ(decode_budget(Message::parse(msg_lease(7))), 7);
  EXPECT_THROW(decode_budget(Message::parse(msg_lease(0))), proto_error);
  EXPECT_THROW(decode_budget(Message::parse(msg_lease(-2))), proto_error);
}

TEST(Messages, HelloAndMetricsRoundTrip) {
  const std::uint64_t fingerprint = 0xDEADBEEFCAFEF00DULL;
  const Message hello =
      Message::parse(msg_hello(fingerprint, "w-1", canary_bits()));
  EXPECT_EQ(hello.type(), "hello");
  EXPECT_EQ(hello.get_int("v"), kServeProtoVersion);
  EXPECT_EQ(hello.get_string("worker"), "w-1");
  EXPECT_EQ(hello.get_string("canary"), canary_bits());
  EXPECT_EQ(decode_fingerprint(hello), fingerprint);
  // The canary is one outcome record, computed once per process.
  EXPECT_EQ(outcome_hex(outcome_from_hex(canary_bits())), canary_bits());
  EXPECT_EQ(&canary_bits(), &canary_bits());

  const std::map<std::string, std::int64_t> counters = {
      {"sweep.trials_run", 12}, {"sweep.queue_wait_ns", 3456789}};
  const Message metrics = Message::parse(msg_metrics(counters));
  EXPECT_EQ(metrics.type(), "metrics");
  EXPECT_EQ(metrics.get_int("metrics_version"), obs::kMetricsVersion);
  EXPECT_EQ(metrics.get_counters("counters"), counters);
}

// ---- Hostile bytes ----------------------------------------------------------

/// Every decoder a coordinator or worker applies to a message of this type.
void decode_everything(const Message& m) {
  const std::string& type = m.type();
  if (type == "hello") {
    m.get_int("v");
    decode_fingerprint(m);
    m.get_string("worker");
    m.get_string("canary");
  } else if (type == "welcome") {
    m.get_int("worker_id");
    m.get_int("trials_total");
    m.get_int("trials_done");
  } else if (type == "error") {
    m.get_string("message");
  } else if (type == "lease") {
    decode_budget(m);
  } else if (type == "grant") {
    decode_grant(m);
  } else if (type == "wait") {
    m.get_int("backoff_ms");
  } else if (type == "renew" || type == "renewed" || type == "lease_lost") {
    m.get_uint("lease_id", std::numeric_limits<std::int64_t>::max());
  } else if (type == "complete") {
    decode_complete(m, kMaxLeaseTrials);
  } else if (type == "requeue") {
    m.get_uint("lease_id", std::numeric_limits<std::int64_t>::max());
    m.get_string("reason");
  } else if (type == "metrics") {
    m.get_int("metrics_version");
    m.get_counters("counters");
  }
}

/// Feeds `stream` to a FrameReader and decodes every frame it yields.
/// Returns false when anything other than proto_error escapes.
bool survives(const std::string& stream, std::string* what) {
  try {
    FrameReader reader;
    reader.feed(stream);
    while (auto payload = reader.next()) {
      decode_everything(Message::parse(*payload));
    }
  } catch (const proto_error&) {
  } catch (const std::exception& e) {
    *what = e.what();
    return false;
  }
  return true;
}

// Frames of every builder, mutated by a seeded schedule: bit flips,
// truncations, inflated length prefixes, inflated count fields and
// inflated hex payloads. A decoder may accept or refuse each one; it may
// only ever refuse with proto_error — no crash (the ASan job runs this),
// no hang, and no allocation sized by a hostile count (the Release CI
// cells run it under ulimit -v).
TEST(ServeFrames, HostileBytesOnlyEverThrowProtoError) {
  std::vector<TrialRecord> records(kMaxLeaseTrials);
  for (std::uint32_t i = 0; i < kMaxLeaseTrials; ++i) {
    records[i].trial = 100 + i;
    records[i].outcome.rounds = static_cast<double>(i);
    records[i].outcome.movers = -static_cast<std::int64_t>(i);
  }
  const std::vector<std::string> payloads = {
      msg_hello(0x0123456789abcdefULL, "w", canary_bits()),
      msg_welcome(1, 40000, 20000),
      msg_error("canary mismatch"),
      msg_lease(-1),
      msg_lease(256),
      msg_grant(3, 7, 1990, 10, 30000),
      msg_wait(100),
      msg_drained(),
      msg_renew(3),
      msg_renewed(3),
      msg_lease_lost(3),
      msg_complete(3, 7, {records.begin(), records.begin() + 1}),
      msg_complete(3, 7, records),
      msg_requeue(3, "injected trial fault"),
      msg_metrics({{"sweep.trials_run", 12}, {"serve.x", -3}}),
      msg_bye(),
      msg_ack(),
  };
  const std::vector<std::string> counts = {"\"count\":", "\"budget\":",
                                           "\"trial\":", "\"cell\":"};
  Rng rng(20260);
  std::size_t cases = 0;
  for (const std::string& payload : payloads) {
    SCOPED_TRACE(payload.substr(0, 60));
    const std::string frame = encode_frame(payload);
    std::string what;
    ASSERT_TRUE(survives(frame, &what)) << what;  // the pristine frame
    for (int round = 0; round < 200; ++round) {
      std::string mutated = frame;
      switch (rng.uniform_int(5)) {
        case 0: {  // bit flips anywhere, length prefix included
          const std::uint64_t flips = 1 + rng.uniform_int(4);
          for (std::uint64_t f = 0; f < flips; ++f) {
            const std::size_t at = rng.uniform_int(mutated.size());
            mutated[at] = static_cast<char>(
                mutated[at] ^ (1 << rng.uniform_int(8)));
          }
          break;
        }
        case 1:  // truncation
          mutated.resize(rng.uniform_int(mutated.size()));
          break;
        case 2: {  // inflated length prefix
          const std::uint32_t length =
              static_cast<std::uint32_t>(rng.next_u64());
          for (int i = 0; i < 4; ++i) {
            mutated[static_cast<std::size_t>(i)] =
                static_cast<char>((length >> (8 * i)) & 0xFF);
          }
          break;
        }
        case 3: {  // inflated integer field, prefix re-encoded to match
          std::string body = payload;
          const std::string& key = counts[rng.uniform_int(counts.size())];
          const std::size_t at = body.find(key);
          if (at == std::string::npos) continue;
          const char* huge[] = {"999999999999", "4294967296", "-7",
                                "18446744073709551616", "257", "1e9"};
          const std::size_t end = body.find_first_of(",}", at + key.size());
          body.replace(at + key.size(), end - at - key.size(),
                       huge[rng.uniform_int(6)]);
          mutated = encode_frame(body);
          break;
        }
        default: {  // inflated hex payload (outcomes, canary, fingerprint)
          std::string body = payload;
          const std::size_t at = body.find("\":\"");
          if (at == std::string::npos) continue;
          const std::size_t grow = 1 + rng.uniform_int(200);
          std::string pad;
          for (std::size_t i = 0; i < grow; ++i) {
            pad.push_back("0123456789abcdefXYZ"[rng.uniform_int(19)]);
          }
          body.insert(at + 3, pad);
          if (body.size() > kMaxFrameBytes) continue;
          mutated = encode_frame(body);
          break;
        }
      }
      ++cases;
      ASSERT_TRUE(survives(mutated, &what)) << what;
    }
  }
  EXPECT_GT(cases, payloads.size() * 150);
}

TEST(Messages, AccessorsNameTheOffendingField) {
  EXPECT_THROW(Message::parse("{\"v\":1}"), proto_error);  // no type
  EXPECT_THROW(Message::parse("{\"type\":7}"), proto_error);

  const Message m = Message::parse(
      "{\"type\":\"grant\",\"lease_id\":\"seven\",\"ttl_ms\":1.5}");
  EXPECT_TRUE(m.has("lease_id"));
  EXPECT_FALSE(m.has("cell"));
  EXPECT_THROW(m.get_int("cell"), proto_error);         // absent
  EXPECT_THROW(m.get_int("lease_id"), proto_error);     // string, not int
  EXPECT_THROW(m.get_int("ttl_ms"), proto_error);       // fractional
  EXPECT_THROW(m.get_string("ttl_ms"), proto_error);    // number, not string
  EXPECT_THROW(m.get_counters("lease_id"), proto_error);     // not an object
  try {
    m.get_int("lease_id");
    FAIL() << "expected proto_error";
  } catch (const proto_error& error) {
    EXPECT_NE(std::string(error.what()).find("lease_id"), std::string::npos);
  }
}

// ---- Live handshake rejection (loopback) ------------------------------------

// A one-cell, one-trial grid: enough for a coordinator to serve while a
// raw socket pokes at its handshake.
sweep::SweepGrid tiny_grid() {
  sweep::SweepGrid grid;
  grid.scenario.name = "load-balancing";
  grid.scenario.params = {{"m", 2.0}};
  grid.protocols = sweep::parse_protocol_list("imitation");
  grid.ns = {50};
  grid.trials = 1;
  grid.master_seed = 9;
  grid.dynamics.max_rounds = 500;
  return grid;
}

// One blocking request/response on a raw client socket.
std::string raw_rpc(const Socket& socket, const std::string& payload) {
  send_frame(socket, encode_frame(payload));
  FrameReader reader;
  char buffer[4096];
  for (;;) {
    if (auto frame = reader.next()) return *frame;
    const std::size_t got = read_some(socket, buffer, sizeof(buffer));
    if (got == 0) {
      throw net_error("coordinator closed before responding");
    }
    reader.feed(std::string_view(buffer, got));
  }
}

// Reads until EOF; throws net_error (timeout) if the peer never closes.
void expect_eof(const Socket& socket) {
  char buffer[4096];
  while (read_some(socket, buffer, sizeof(buffer)) != 0) {
  }
}

/// A coordinator serving tiny_grid() on a thread, for raw-socket pokes.
/// The destructor drains the grid with a real worker, which is also what
/// lets serve_grid() return.
class LiveCoordinator {
 public:
  explicit LiveCoordinator(const std::string& name)
      : grid_(tiny_grid()), manifest_(temp_path(name)) {
    std::remove(manifest_.c_str());
    options_.manifest_path = manifest_;
    options_.tick_seconds = 0.01;
    options_.max_seconds = 60.0;  // safety net, never the expected exit
    std::promise<std::uint16_t> port_promise;
    options_.on_listening = [&](std::uint16_t lease_port, std::uint16_t) {
      port_promise.set_value(lease_port);
    };
    thread_ = std::thread([this] { report_ = serve_grid(grid_, options_); });
    port_ = port_promise.get_future().get();
  }

  ~LiveCoordinator() {
    WorkerOptions worker;
    worker.port = port_;
    worker.name = "after-abuse";
    const WorkerReport report = run_worker(grid_, worker);
    EXPECT_TRUE(report.drained);
    EXPECT_EQ(report.trials_completed, 1u);
    thread_.join();
    EXPECT_TRUE(report_.complete);
    std::remove(manifest_.c_str());
  }

  /// A fresh raw client socket.
  Socket connect() const {
    Socket s = tcp_connect("127.0.0.1", port_);
    set_recv_timeout(s, 10.0);
    return s;
  }

  const sweep::SweepGrid& grid() const { return grid_; }
  const std::string& manifest() const { return manifest_; }

 private:
  sweep::SweepGrid grid_;
  std::string manifest_;
  CoordinatorOptions options_;
  CoordinatorReport report_;
  std::thread thread_;
  std::uint16_t port_ = 0;
};

TEST(Handshake, MismatchesAndGarbageGetCleanClosesNotHangs) {
  const LiveCoordinator live("proto_handshake.manifest");
  {
    // Wrong protocol version: an explicit error frame, then close.
    const Socket s = live.connect();
    const Message reply = Message::parse(raw_rpc(
        s, "{\"type\":\"hello\",\"v\":999,"
           "\"fingerprint\":\"0000000000000000\",\"worker\":\"bad\"}"));
    EXPECT_EQ(reply.type(), "error");
    EXPECT_NE(reply.get_string("message").find("version"),
              std::string::npos);
    EXPECT_NO_THROW(expect_eof(s));
  }
  {
    // Right version, wrong grid: the fingerprint guard.
    const Socket s = live.connect();
    const Message reply = Message::parse(raw_rpc(
        s, msg_hello(persist::grid_fingerprint(live.grid()) ^ 1, "bad",
                     canary_bits())));
    EXPECT_EQ(reply.type(), "error");
    EXPECT_NE(reply.get_string("message").find("fingerprint"),
              std::string::npos);
    EXPECT_NO_THROW(expect_eof(s));
  }
  {
    // Requests before hello are a protocol violation, not a lease.
    const Socket s = live.connect();
    const Message reply = Message::parse(raw_rpc(s, msg_lease(-1)));
    EXPECT_EQ(reply.type(), "error");
    EXPECT_NO_THROW(expect_eof(s));
  }
  {
    // A garbage length prefix poisons the connection: dropped, no reply.
    const Socket s = live.connect();
    send_frame(s, "GARBAGE-NOT-A-FRAME");
    EXPECT_NO_THROW(expect_eof(s));
  }
  // ~LiveCoordinator: a real worker still drains the grid.
}

// A worker whose build lands other bits for the canary trial is refused
// at the handshake — an error naming the canary and both bit strings, then
// EOF — and nothing reaches the manifest.
TEST(Handshake, WrongCanaryIsRefusedBeforeAnyGrant) {
  const LiveCoordinator live("proto_canary.manifest");
  const std::string before = persist::slurp_file(live.manifest());
  std::string wrong = canary_bits();
  wrong[wrong.size() - 1] = wrong.back() == '0' ? '1' : '0';
  {
    const Socket s = live.connect();
    const Message reply = Message::parse(raw_rpc(
        s, msg_hello(persist::grid_fingerprint(live.grid()), "odd-build",
                     wrong)));
    EXPECT_EQ(reply.type(), "error");
    const std::string message = reply.get_string("message");
    EXPECT_NE(message.find("canary"), std::string::npos);
    EXPECT_NE(message.find(canary_bits()), std::string::npos);
    EXPECT_NE(message.find(wrong), std::string::npos);
    EXPECT_NO_THROW(expect_eof(s));
  }
  EXPECT_EQ(persist::slurp_file(live.manifest()), before);
}

// A version-1 hello (no canary field) is refused by its version, not by
// a missing-field parse error.
TEST(Handshake, VersionOneHelloIsRefusedNamingTheVersion) {
  const LiveCoordinator live("proto_v1.manifest");
  const Socket s = live.connect();
  const Message reply = Message::parse(raw_rpc(
      s, "{\"type\":\"hello\",\"v\":1,\"fingerprint\":\"" +
             fingerprint_hex(persist::grid_fingerprint(live.grid())) +
             "\",\"worker\":\"old\"}"));
  EXPECT_EQ(reply.type(), "error");
  EXPECT_NE(reply.get_string("message").find("version"), std::string::npos);
  EXPECT_NO_THROW(expect_eof(s));
}

}  // namespace
}  // namespace cid::serve
