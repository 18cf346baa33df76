// Wire-protocol guarantees for distributed sweeps (src/serve/proto.hpp).
//
// The codec is the trust boundary of cid_serve: every frame a worker or a
// port scanner sends crosses it. The contract under test: well-formed
// frames round-trip under any chunking, malformed input (zero/oversized
// length prefixes, truncated frames, unknown types, short, trailing or
// out-of-range fields) is rejected with proto_error — never buffered,
// never a hang — and outcome doubles cross the wire bit-exactly (NaN and
// -0.0 included), as the very bytes ManifestWriter::append writes,
// because the fleet-vs-local manifest byte-identity claim rides on them.
// A seeded hostile-bytes pass mutates a frame of every message builder at
// its fields' offsets and feeds it through the decoders. The Handshake
// tests drive a live loopback coordinator with a raw socket: version, grid
// and canary mismatches, a pre-v3 JSON hello and a garbage frame each get
// a clean close before any grant.
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
      msg_lease(-1),
      msg_grant(7, 0, 0, 1, 1),
      msg_error(std::string(5000, 'x')),
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
  const std::string frame = encode_frame(msg_renew(7));
  FrameReader reader;
  reader.feed(std::string_view(frame).substr(0, frame.size() - 3));
  EXPECT_FALSE(reader.next().has_value());
  // EOF now would leave buffered() > 0 — the "peer died mid-frame"
  // signal connection teardown keys off.
  EXPECT_GT(reader.buffered(), 0u);
  reader.feed(std::string_view(frame).substr(frame.size() - 3));
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, msg_renew(7));
  EXPECT_EQ(reader.buffered(), 0u);
}

// ---- Field helpers ----------------------------------------------------------

/// Overwrites the `width`-byte little-endian field at `offset`.
std::string with_field(std::string payload, std::size_t offset, int width,
                       std::uint64_t value) {
  for (int i = 0; i < width; ++i) {
    payload[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return payload;
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

/// A complete's header: type, lease_id, cell, count.
constexpr std::size_t kCompleteHead = 1 + 8 + 4 + 4;

// ---- Messages ---------------------------------------------------------------

TEST(Messages, MalformedPayloadsAreRejected) {
  // No type, an unknown type, and a pre-v3 JSON payload are not messages.
  EXPECT_THROW(Message(""), proto_error);
  EXPECT_THROW(Message(std::string(1, '\0')), proto_error);
  EXPECT_THROW(Message(std::string(1, '\x10')), proto_error);
  EXPECT_THROW(Message("{\"type\":\"hello\"}"), proto_error);

  // Short fields, trailing bytes and a str running past the end.
  const std::string grant = msg_grant(9, 4, 1990, 10, 30000);
  EXPECT_THROW(decode_grant(Message(grant.substr(0, grant.size() - 1))),
               proto_error);
  EXPECT_THROW(decode_grant(Message(grant + "x")), proto_error);
  EXPECT_THROW(decode_error(Message(with_field(msg_error("why"), 1, 4, 4))),
               proto_error);

  // Duplicate counter names, a count past the bytes, a lease_id past
  // 2^63 - 1, a negative ttl.
  std::string metrics = msg_metrics({{"a", 1}, {"b", 2}});
  metrics[metrics.size() - 9] = 'a';  // rename "b" to "a"
  EXPECT_THROW(decode_metrics(Message(metrics)), proto_error);
  EXPECT_THROW(decode_metrics(Message(with_field(
                   msg_metrics({{"a", 1}}), 5, 4, 0xFFFFFFFFu))),
               proto_error);
  EXPECT_THROW(decode_lease_id(Message(msg_renew(1ull << 63))), proto_error);
  EXPECT_THROW(decode_grant(Message(msg_grant(9, 4, 0, 1, -1))),
               proto_error);

  // Failures name the message they were decoding.
  try {
    decode_grant(Message(grant.substr(0, 12)));
    FAIL() << "expected proto_error";
  } catch (const proto_error& error) {
    EXPECT_NE(std::string(error.what()).find("grant"), std::string::npos);
  }
}

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
  records[2].outcome.movers = std::numeric_limits<std::int64_t>::min();

  const Message message(msg_complete(42, 3, records));
  EXPECT_EQ(message.type(), MsgType::kComplete);
  EXPECT_EQ(message.fields().size() + 1,
            kCompleteHead + records.size() * persist::kRecordBytes);
  const Batch head = decode_complete_head(message);
  EXPECT_EQ(head.lease_id, 42u);
  EXPECT_EQ(head.cell, 3u);
  const Batch batch = decode_complete(message, records.size());
  EXPECT_EQ(batch.lease_id, 42u);
  EXPECT_EQ(batch.cell, 3u);
  ASSERT_EQ(batch.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    const sweep::TrialOutcome& a = records[i].outcome;
    const sweep::TrialOutcome& b = batch.records[i].outcome;
    EXPECT_EQ(batch.records[i].trial, records[i].trial);
    // Bitwise identity, not ==: NaN != NaN and -0.0 == 0.0 would both
    // let a lossy codec slip through a value comparison.
    EXPECT_EQ(bits(b.rounds), bits(a.rounds));
    EXPECT_EQ(b.converged, a.converged);
    EXPECT_EQ(b.movers, a.movers);
    EXPECT_EQ(bits(b.potential), bits(a.potential));
    EXPECT_EQ(bits(b.social_cost), bits(a.social_cost));
  }

  // One record's bytes, pinned: cell, trial, rounds, converged, movers,
  // potential, social_cost (little-endian), then the CRC of those.
  sweep::TrialOutcome one;
  one.rounds = 1.0;
  one.converged = true;
  one.movers = -1;
  const std::string wire = msg_complete(1, 2, {{5, one}});
  EXPECT_EQ(hex_bytes(wire.substr(kCompleteHead)),
            "02000000" "05000000" "000000000000f03f" "01" "ffffffffffffffff"
            "0000000000000000" "0000000000000000" "789c8af4");
}

TEST(Messages, BatchCountIsCheckedAgainstLeaseAndBytes) {
  std::vector<TrialRecord> records(4);
  for (std::uint32_t i = 0; i < 4; ++i) records[i].trial = i;
  const std::string payload = msg_complete(1, 0, records);
  // More records than the lease has unfinished trials.
  EXPECT_THROW(decode_complete(Message(payload), 3), proto_error);
  EXPECT_NO_THROW(decode_complete(Message(payload), 4));

  const auto count = [&](std::uint64_t value) {
    return Message(with_field(payload, 13, 4, value));
  };
  // A count past its bytes, a count of zero, a huge count: all refused by
  // the count/length check, before the records vector is sized.
  EXPECT_THROW(decode_complete(count(5), 256), proto_error);
  EXPECT_THROW(decode_complete(count(0), 256), proto_error);
  EXPECT_THROW(decode_complete(count(0xFFFFFFFFu),
                               std::numeric_limits<std::size_t>::max()),
               proto_error);
  // Bytes past the count; a record out of trial order; a record of
  // another cell; a record that fails its CRC.
  EXPECT_THROW(decode_complete(Message(payload + "00"), 256), proto_error);
  std::vector<TrialRecord> unordered = records;
  std::swap(unordered[1].trial, unordered[2].trial);
  EXPECT_THROW(decode_complete(Message(msg_complete(1, 0, unordered)), 4),
               proto_error);
  std::string foreign = payload;
  foreign.replace(kCompleteHead, persist::kRecordBytes, canary_bits());
  EXPECT_NO_THROW(decode_complete(Message(foreign), 4));  // cell 0 too
  EXPECT_THROW(decode_complete(Message(with_field(payload, 9, 4, 1)), 4),
               proto_error);  // the header's cell is 1, the records' 0
  std::string rotted = payload;
  rotted[kCompleteHead + 10] ^= 1;
  EXPECT_THROW(decode_complete(Message(rotted), 4), proto_error);
}

// A CRC-valid record whose converged byte is 2: refused on the wire, as
// the manifest scan refuses it.
TEST(Messages, ConvergedByteOtherThanZeroOrOneIsRefused) {
  std::string payload = msg_complete(1, 0, {{0, sweep::TrialOutcome{}}});
  payload[kCompleteHead + 16] = 2;
  const std::uint32_t crc =
      persist::crc32(payload.data() + kCompleteHead, persist::kRecordFieldBytes);
  payload = with_field(payload, kCompleteHead + persist::kRecordFieldBytes, 4,
                       crc);
  try {
    decode_complete(Message(payload), 1);
    FAIL() << "expected proto_error";
  } catch (const proto_error& error) {
    EXPECT_NE(std::string(error.what()).find("converged"), std::string::npos);
  }
}

TEST(Messages, GrantAndLeaseBudgetRoundTrip) {
  const Grant grant = decode_grant(Message(msg_grant(9, 4, 1990, 10, 30000)));
  EXPECT_EQ(grant.lease_id, 9u);
  EXPECT_EQ(grant.cell, 4u);
  EXPECT_EQ(grant.trial, 1990u);
  EXPECT_EQ(grant.count, 10u);
  EXPECT_EQ(grant.ttl_ms, 30000);
  EXPECT_THROW(decode_grant(Message(msg_grant(9, 4, 0, 0, 1))), proto_error);
  EXPECT_THROW(
      decode_grant(Message(msg_grant(9, 4, 0, kMaxLeaseTrials + 1, 1))),
      proto_error);
  // Integers cross exactly, past 2^53 too.
  const std::uint64_t big_id = (1ull << 63) - 1;
  EXPECT_EQ(decode_grant(Message(msg_grant(big_id, 0xFFFFFFFFu, 0xFFFFFFFFu,
                                           kMaxLeaseTrials, 1)))
                .lease_id,
            big_id);
  EXPECT_EQ(decode_lease_id(Message(msg_lease_lost(big_id))), big_id);

  EXPECT_EQ(decode_budget(Message(msg_lease(-1))), -1);
  EXPECT_EQ(decode_budget(Message(msg_lease(7))), 7);
  EXPECT_THROW(decode_budget(Message(msg_lease(0))), proto_error);
  EXPECT_THROW(decode_budget(Message(msg_lease(-2))), proto_error);
  EXPECT_EQ(decode_wait(Message(msg_wait(100))), 100);
}

TEST(Messages, HelloWelcomeRequeueAndMetricsRoundTrip) {
  const std::uint64_t fingerprint = 0xDEADBEEFCAFEF00DULL;
  const Message hello(msg_hello(fingerprint, "w-\"1\\", canary_bits()));
  EXPECT_EQ(hello.type(), MsgType::kHello);
  const Hello decoded = decode_hello(hello);
  EXPECT_EQ(decoded.version, kServeProtoVersion);
  EXPECT_EQ(decoded.fingerprint, fingerprint);
  EXPECT_EQ(decoded.worker, "w-\"1\\");
  EXPECT_EQ(decoded.canary, canary_bits());
  // The canary is the record of (cell 0, trial 0), computed once per
  // process.
  ASSERT_EQ(canary_bits().size(), persist::kRecordBytes);
  const auto canary = persist::read_record(canary_bits(), "canary");
  ASSERT_TRUE(canary.has_value());
  EXPECT_EQ(canary->cell, 0u);
  EXPECT_EQ(canary->trial, 0u);
  EXPECT_EQ(&canary_bits(), &canary_bits());
  // A hello of another version decodes to its version alone.
  const Hello later = decode_hello(Message(
      with_field(msg_hello(fingerprint, "w", "x"), 1, 4, 4)));
  EXPECT_EQ(later.version, 4u);
  EXPECT_EQ(later.fingerprint, 0u);

  const Welcome welcome = decode_welcome(Message(msg_welcome(3, 40000, 2)));
  EXPECT_EQ(welcome.version, kServeProtoVersion);
  EXPECT_EQ(welcome.worker_id, 3u);
  EXPECT_EQ(welcome.trials_total, 40000u);
  EXPECT_EQ(welcome.trials_done, 2u);
  EXPECT_EQ(decode_error(Message(msg_error("grid mismatch"))),
            "grid mismatch");
  const Requeue requeue =
      decode_requeue(Message(msg_requeue(5, "injected trial fault")));
  EXPECT_EQ(requeue.lease_id, 5u);
  EXPECT_EQ(requeue.reason, "injected trial fault");

  const std::map<std::string, std::int64_t> counters = {
      {"sweep.trials_run", 12}, {"sweep.queue_wait_ns", 3456789},
      {"serve.x", -3}};
  const MetricsPush push = decode_metrics(Message(msg_metrics(counters)));
  EXPECT_EQ(push.metrics_version,
            static_cast<std::uint32_t>(obs::kMetricsVersion));
  EXPECT_EQ(push.counters, counters);
  for (const std::string& empty : {msg_drained(), msg_bye(), msg_ack()}) {
    EXPECT_EQ(Message(empty).fields().size(), 0u);
  }
}

// Every double class crosses a complete as its bits: both signs of zero,
// denormals, the extremes, both infinities and NaN.
TEST(Records, EveryBitPatternRoundTrips) {
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
  std::vector<TrialRecord> records;
  for (const double value : values) {
    TrialRecord record;
    record.trial = static_cast<std::uint32_t>(records.size());
    record.outcome.rounds = value;
    record.outcome.potential = -value;
    record.outcome.social_cost = value;
    records.push_back(record);
  }
  const Batch batch =
      decode_complete(Message(msg_complete(1, 0, records)), records.size());
  ASSERT_EQ(batch.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(values[i]);
    const sweep::TrialOutcome& a = records[i].outcome;
    const sweep::TrialOutcome& b = batch.records[i].outcome;
    EXPECT_EQ(bits(b.rounds), bits(a.rounds));
    EXPECT_EQ(bits(b.potential), bits(a.potential));
    EXPECT_EQ(bits(b.social_cost), bits(a.social_cost));
  }
}

// The records of a complete are the manifest's own: each 45-byte slice
// equals what ManifestWriter::append writes for the same record.
TEST(Records, CompleteSlicesEqualManifestAppendBytes) {
  sweep::SweepGrid grid;
  grid.scenario.name = "load-balancing";
  grid.scenario.params = {{"m", 2.0}};
  grid.protocols = sweep::parse_protocol_list("imitation,combined");
  grid.ns = {50};
  grid.trials = 8;
  std::vector<TrialRecord> records(3);
  records[0] = {1, {12.0, true, 345, 0.1 + 0.2, -0.0}};
  records[1] = {4, {-std::numeric_limits<double>::quiet_NaN(), false, -1,
                    std::numeric_limits<double>::infinity(), 7.5}};
  records[2] = {7, {0.0, true, 0, 0.0, 0.0}};
  const std::string path = temp_path("proto_slices.manifest");
  {
    persist::ManifestWriter writer = persist::ManifestWriter::create(path, grid);
    for (const TrialRecord& r : records) writer.append(1, r.trial, r.outcome);
    writer.close();
  }
  const std::string file = persist::slurp_file(path);
  const std::string wire = msg_complete(9, 1, records);
  ASSERT_EQ(wire.size(), kCompleteHead + 3 * persist::kRecordBytes);
  const std::size_t file_records = file.size() - 3 * persist::kRecordBytes;
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(wire.substr(kCompleteHead + i * persist::kRecordBytes,
                          persist::kRecordBytes),
              file.substr(file_records + i * persist::kRecordBytes,
                          persist::kRecordBytes));
  }
  std::remove(path.c_str());
}

// ---- Hostile bytes ----------------------------------------------------------

/// Every decoder a coordinator or worker applies to a message of this type.
void decode_everything(const Message& m) {
  switch (m.type()) {
    case MsgType::kHello: decode_hello(m); break;
    case MsgType::kWelcome: decode_welcome(m); break;
    case MsgType::kError: decode_error(m); break;
    case MsgType::kLease: decode_budget(m); break;
    case MsgType::kGrant: decode_grant(m); break;
    case MsgType::kWait: decode_wait(m); break;
    case MsgType::kRenew:
    case MsgType::kRenewed:
    case MsgType::kLeaseLost: decode_lease_id(m); break;
    case MsgType::kComplete:
      decode_complete_head(m);
      decode_complete(m, kMaxLeaseTrials);
      break;
    case MsgType::kRequeue: decode_requeue(m); break;
    case MsgType::kMetrics: decode_metrics(m); break;
    case MsgType::kDrained:
    case MsgType::kBye:
    case MsgType::kAck: break;
  }
}

/// Feeds `stream` to a FrameReader and decodes every frame it yields.
/// Returns false when anything other than proto_error escapes.
bool survives(const std::string& stream, std::string* what) {
  try {
    FrameReader reader;
    reader.feed(stream);
    while (auto payload = reader.next()) {
      decode_everything(Message(std::move(*payload)));
    }
  } catch (const proto_error&) {
  } catch (const std::exception& e) {
    *what = e.what();
    return false;
  }
  return true;
}

/// Where a payload's fields sit (offsets include the type tag).
struct Layout {
  std::vector<std::pair<std::size_t, int>> ints;  // (offset, width)
  std::vector<std::size_t> strs;                  // u32 length prefixes
  std::size_t records = 0;                        // first record, if any
  std::size_t record_count = 0;
  std::size_t count_field = 0;                    // complete's count
};

Layout layout_of(const std::string& payload) {
  Layout l;
  switch (static_cast<MsgType>(payload[0])) {
    case MsgType::kHello:
      l.ints = {{1, 4}, {5, 8}};
      l.strs = {13};
      l.records = 17 + persist::read_le32(payload.data() + 13);
      l.record_count = 1;
      break;
    case MsgType::kWelcome: l.ints = {{1, 4}, {5, 8}, {13, 8}, {21, 8}}; break;
    case MsgType::kError: l.strs = {1}; break;
    case MsgType::kLease:
    case MsgType::kWait:
    case MsgType::kRenew:
    case MsgType::kRenewed:
    case MsgType::kLeaseLost: l.ints = {{1, 8}}; break;
    case MsgType::kGrant:
      l.ints = {{1, 8}, {9, 4}, {13, 4}, {17, 4}, {21, 8}};
      break;
    case MsgType::kComplete:
      l.ints = {{1, 8}, {9, 4}, {13, 4}};
      l.records = kCompleteHead;
      l.record_count = (payload.size() - kCompleteHead) / persist::kRecordBytes;
      l.count_field = 13;
      for (std::size_t i = 0; i < l.record_count; ++i) {
        l.ints.push_back({kCompleteHead + i * persist::kRecordBytes, 4});
        l.ints.push_back({kCompleteHead + i * persist::kRecordBytes + 4, 4});
      }
      break;
    case MsgType::kRequeue: l.ints = {{1, 8}}; l.strs = {9}; break;
    case MsgType::kMetrics: l.ints = {{1, 4}, {5, 4}}; l.strs = {9}; break;
    default: break;
  }
  return l;
}

/// One seeded record splice, truncation or converged-byte rewrite inside
/// `body`'s records; false when it has none.
bool mutate_records(std::string& body, const Layout& l, Rng& rng) {
  if (l.record_count == 0) return false;
  constexpr std::size_t kSize = persist::kRecordBytes;
  const std::size_t j = l.records + kSize * rng.uniform_int(l.record_count);
  const std::size_t k = l.records + kSize * rng.uniform_int(l.record_count);
  const std::string record = body.substr(j, kSize);
  persist::BinWriter foreign;
  persist::write_record(foreign, 99, 0, sweep::TrialOutcome{});
  const auto recount = [&](std::int64_t delta) {
    if (l.count_field == 0 || rng.uniform_int(2) == 0) return;
    const std::uint32_t count = persist::read_le32(body.data() + l.count_field);
    body = with_field(body, l.count_field, 4,
                      static_cast<std::uint32_t>(count + delta));
  };
  switch (rng.uniform_int(5)) {
    case 0:  // a duplicated record
      body.insert(k, record);
      recount(1);
      break;
    case 1:  // two records swapped, or one replaced by a foreign record
      body.replace(j, kSize, body.substr(k, kSize));
      body.replace(k, kSize, j == k ? foreign.buffer() : record);
      break;
    case 2:  // a dropped record
      body.erase(j, kSize);
      recount(-1);
      break;
    case 3:  // cut inside the records
      body.resize(l.records + rng.uniform_int(l.record_count * kSize));
      break;
    default: {  // a converged byte past 1 under a valid CRC
      body[j + 16] = static_cast<char>(2 + rng.uniform_int(254));
      const std::uint32_t crc =
          persist::crc32(body.data() + j, persist::kRecordFieldBytes);
      body = with_field(body, j + persist::kRecordFieldBytes, 4, crc);
      break;
    }
  }
  return true;
}

// Frames of every builder, mutated by a seeded schedule: bit flips,
// truncations, inflated length prefixes, inflated integer fields (counts,
// budget, cells, trials) at their offsets, str length prefixes past the
// end, and records spliced, truncated or rewritten under a valid CRC. A
// decoder may accept or refuse each one; it may only ever refuse with
// proto_error — no crash (the ASan job runs this), no hang, and no
// allocation sized by a hostile count (the Release CI cells run it under
// ulimit -v).
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
  const std::uint64_t huge[] = {0xFFFFFFFFFFFFFFFFull, 0x7FFFFFFFFFFFFFFFull,
                                0x8000000000000000ull, 0xFFFFFFFFull,
                                0x80000000ull,         4000000000000ull,
                                257,                   0};
  Rng rng(20260);
  std::size_t cases = 0;
  for (const std::string& payload : payloads) {
    SCOPED_TRACE(type_name(Message(payload).type()));
    const Layout layout = layout_of(payload);
    const std::string frame = encode_frame(payload);
    std::string what;
    ASSERT_TRUE(survives(frame, &what)) << what;  // the pristine frame
    for (int round = 0; round < 200; ++round) {
      std::string mutated = frame;
      std::string body = payload;
      const std::uint64_t kind = rng.uniform_int(6);
      if (kind == 3 && !layout.ints.empty()) {
        // An inflated integer field, at its offset.
        const auto [at, width] = layout.ints[rng.uniform_int(layout.ints.size())];
        body = with_field(body, at, width, huge[rng.uniform_int(8)]);
        mutated = encode_frame(body);
      } else if (kind == 4 && !layout.strs.empty()) {
        // A str length prefix past the end.
        const std::size_t at = layout.strs[rng.uniform_int(layout.strs.size())];
        body = with_field(body, at, 4,
                          body.size() - at + rng.uniform_int(0xFFFFFFFFu -
                                                             body.size()));
        mutated = encode_frame(body);
      } else if (kind == 5 && mutate_records(body, layout, rng)) {
        if (body.empty() || body.size() > kMaxFrameBytes) continue;
        mutated = encode_frame(body);
      } else if (kind == 1) {  // truncation
        mutated.resize(rng.uniform_int(mutated.size()));
      } else if (kind == 2) {  // inflated length prefix
        mutated = with_field(mutated, 0, 4, rng.next_u64());
      } else {  // bit flips anywhere, length prefix included
        const std::uint64_t flips = 1 + rng.uniform_int(4);
        for (std::uint64_t f = 0; f < flips; ++f) {
          const std::size_t at = rng.uniform_int(mutated.size());
          mutated[at] =
              static_cast<char>(mutated[at] ^ (1 << rng.uniform_int(8)));
        }
      }
      ++cases;
      ASSERT_TRUE(survives(mutated, &what)) << what;
    }
  }
  EXPECT_GT(cases, payloads.size() * 150);
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
  const std::uint64_t fingerprint = persist::grid_fingerprint(live.grid());
  {
    // Wrong protocol version: an explicit error frame, then close.
    const Socket s = live.connect();
    const Message reply(raw_rpc(
        s, with_field(msg_hello(fingerprint, "bad", canary_bits()), 1, 4,
                      999)));
    ASSERT_EQ(reply.type(), MsgType::kError);
    EXPECT_NE(decode_error(reply).find("version"), std::string::npos);
    EXPECT_NO_THROW(expect_eof(s));
  }
  {
    // Right version, wrong grid: the fingerprint guard.
    const Socket s = live.connect();
    const Message reply(
        raw_rpc(s, msg_hello(fingerprint ^ 1, "bad", canary_bits())));
    ASSERT_EQ(reply.type(), MsgType::kError);
    EXPECT_NE(decode_error(reply).find("fingerprint"), std::string::npos);
    EXPECT_NO_THROW(expect_eof(s));
  }
  {
    // Requests before hello are a protocol violation, not a lease.
    const Socket s = live.connect();
    const Message reply(raw_rpc(s, msg_lease(-1)));
    EXPECT_EQ(reply.type(), MsgType::kError);
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
// at the handshake — an error naming the canary and both records, then
// EOF — and nothing reaches the manifest. The wrong canary is a valid
// record of another outcome (a flipped byte would only fail its CRC).
TEST(Handshake, WrongCanaryIsRefusedBeforeAnyGrant) {
  const LiveCoordinator live("proto_canary.manifest");
  const std::string before = persist::slurp_file(live.manifest());
  const auto canary = persist::read_record(canary_bits(), "canary");
  ASSERT_TRUE(canary.has_value());
  sweep::TrialOutcome other = canary->outcome;
  other.rounds += 1.0;
  persist::BinWriter wrong;
  persist::write_record(wrong, 0, 0, other);
  {
    const Socket s = live.connect();
    const Message reply(raw_rpc(
        s, msg_hello(persist::grid_fingerprint(live.grid()), "odd-build",
                     wrong.buffer())));
    ASSERT_EQ(reply.type(), MsgType::kError);
    const std::string message = decode_error(reply);
    EXPECT_NE(message.find("canary"), std::string::npos);
    EXPECT_NE(message.find(hex_bytes(canary_bits())), std::string::npos);
    EXPECT_NE(message.find(hex_bytes(wrong.buffer())), std::string::npos);
    EXPECT_NO_THROW(expect_eof(s));
  }
  EXPECT_EQ(persist::slurp_file(live.manifest()), before);
}

// A JSON hello of a v1 or v2 worker gets one JSON error frame naming the
// versions — readable by the old worker — then EOF, not a parse failure.
TEST(Handshake, VersionOneHelloIsRefusedNamingTheVersion) {
  const LiveCoordinator live("proto_v1.manifest");
  const Socket s = live.connect();
  const std::string reply = raw_rpc(
      s, "{\"type\":\"hello\",\"v\":1,\"fingerprint\":\"" +
             fingerprint_hex(persist::grid_fingerprint(live.grid())) +
             "\",\"worker\":\"old\"}");
  EXPECT_EQ(reply, msg_json_refusal());
  EXPECT_EQ(reply.rfind("{\"type\":\"error\",\"message\":\"", 0), 0u);
  EXPECT_NE(reply.find("version"), std::string::npos);
  EXPECT_NE(reply.find("coordinator 3"), std::string::npos);
  EXPECT_NO_THROW(expect_eof(s));
}

}  // namespace
}  // namespace cid::serve
