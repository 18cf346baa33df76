// Unit tests for the persistence substrate (src/persist/): binary I/O
// primitives, checksummed file framing, the game/state codecs, snapshot
// round trips, the event log (including killed-writer tail recovery), and
// the sweep manifest (including grid-fingerprint enforcement). The
// end-to-end kill-and-resume guarantees live in test_resume.cpp and
// test_sweep_resume.cpp; this file pins down the formats those rely on.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "game/asymmetric.hpp"
#include "game/builders.hpp"
#include "game/io.hpp"
#include "latency/latency.hpp"
#include "lowerbound/maxcut.hpp"
#include "lowerbound/threshold_game.hpp"
#include "persist/binio.hpp"
#include "persist/block.hpp"
#include "persist/codec.hpp"
#include "persist/eventlog.hpp"
#include "persist/manifest.hpp"
#include "persist/snapshot.hpp"
#include "util/rng.hpp"

#ifndef CID_PERSIST_FIXTURE_DIR
#error "CID_PERSIST_FIXTURE_DIR must point at tests/fixtures/persist"
#endif

namespace cid::persist {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Crc32, MatchesReferenceVector) {
  // The canonical CRC-32 check value for "123456789".
  const std::string data = "123456789";
  EXPECT_EQ(crc32(data.data(), data.size()), 0xCBF43926u);
  // Piecewise checksumming continues from the seed.
  const std::uint32_t part = crc32(data.data(), 4);
  EXPECT_EQ(crc32(data.data() + 4, 5, part), 0xCBF43926u);
}

/// The bytewise reference the sliced crc32 must equal.
std::uint32_t crc32_bytewise(const unsigned char* bytes, std::size_t size,
                             std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= bytes[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicedEqualsBytewiseAtEveryLengthAndOffset) {
  std::vector<unsigned char> data(8 + 257);
  std::uint32_t x = 12345;
  for (unsigned char& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const unsigned char* p = data.data() + offset;
      ASSERT_EQ(crc32(p, len), crc32_bytewise(p, len, 0))
          << "offset " << offset << " length " << len;
      // Chained: a prefix's CRC seeds the rest.
      const std::size_t cut = len / 3;
      const std::uint32_t seed = crc32(p, cut);
      ASSERT_EQ(crc32(p + cut, len - cut, seed),
                crc32_bytewise(p + cut, len - cut, seed))
          << "offset " << offset << " length " << len;
      ASSERT_EQ(crc32(p + cut, len - cut, seed), crc32(p, len));
    }
  }
}

TEST(BinIo, PrimitiveRoundTrip) {
  BinWriter out;
  out.u8(0xAB);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.i64(-42);
  out.f64(-0.1);  // not exactly representable — must round-trip bit-exactly
  out.str("hello\0world");
  BinReader in(out.buffer(), "test");
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i64(), -42);
  EXPECT_EQ(in.f64(), -0.1);
  EXPECT_EQ(in.str(), std::string("hello"));
  EXPECT_NO_THROW(in.expect_done());
}

TEST(BinIo, TruncatedReadThrows) {
  BinWriter out;
  out.u32(7);
  BinReader in(out.buffer(), "test");
  EXPECT_THROW(in.u64(), persist_error);
}

TEST(BinIo, VarintRoundTripAcrossTheRange) {
  const std::uint64_t unsigned_cases[] = {
      0, 1, 127, 128, 300, 0xFFFF, 0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull};
  const std::int64_t signed_cases[] = {
      0, 1, -1, 63, -64, 64, -65, 1'000'000, -1'000'000,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  BinWriter out;
  for (std::uint64_t v : unsigned_cases) out.vu64(v);
  for (std::int64_t v : signed_cases) out.vi64(v);
  BinReader in(out.buffer(), "test");
  for (std::uint64_t v : unsigned_cases) EXPECT_EQ(in.vu64(), v);
  for (std::int64_t v : signed_cases) EXPECT_EQ(in.vi64(), v);
  EXPECT_NO_THROW(in.expect_done());

  // Small magnitudes of either sign are one byte — the property the v2
  // event-log size depends on.
  BinWriter small;
  small.vi64(-1);
  EXPECT_EQ(small.buffer().size(), 1u);
}

TEST(BinIo, VarintRejectsOverlongAndOverflowingEncodings) {
  // 11 continuation bytes: longer than any valid u64 varint.
  const std::string overlong(11, '\x80');
  BinReader in(overlong, "test");
  EXPECT_THROW(in.vu64(), persist_error);
  // 10 bytes whose top byte overflows 64 bits.
  std::string overflow(9, '\x80');
  overflow.push_back('\x7F');
  BinReader in2(overflow, "test");
  EXPECT_THROW(in2.vu64(), persist_error);
}

TEST(BinIo, SectionScanFindsKnownAndSkipsUnknownTags) {
  BinWriter payload;
  write_section(payload, 1, "alpha");
  write_section(payload, 999, "from-the-future");
  write_section(payload, 2, "beta");
  const SectionScan scan(payload.buffer(), "test");
  ASSERT_EQ(scan.sections().size(), 3u);
  EXPECT_EQ(scan.require(1, "alpha"), "alpha");
  EXPECT_EQ(scan.require(2, "beta"), "beta");
  EXPECT_EQ(scan.find(999).value(), "from-the-future");
  EXPECT_FALSE(scan.find(3).has_value());
  EXPECT_THROW(scan.require(3, "gamma"), persist_error);

  // Truncated section bodies throw instead of mis-parsing.
  const std::string& bytes = payload.buffer();
  EXPECT_THROW(SectionScan(std::string_view(bytes).substr(0, 8), "test"),
               persist_error);
}

TEST(BlockCodec, RoundTripsStructuredAndRandomData) {
  Rng rng(11);
  // Repetitive (event-log-like), constant (RLE), and random inputs.
  std::string repetitive;
  for (int i = 0; i < 2000; ++i) {
    repetitive += "round";
    repetitive.push_back(static_cast<char>(i % 7));
  }
  std::string constant(4096, '\0');
  std::string random;
  for (int i = 0; i < 1000; ++i) {
    random.push_back(static_cast<char>(rng.uniform_int(256)));
  }
  for (const std::string& input : {repetitive, constant, random,
                                   std::string(), std::string("abc")}) {
    const auto [codec, stored] = encode_block(input);
    EXPECT_EQ(decode_block(codec, stored, input.size(), "test"), input);
  }
  // The compressible cases must actually compress.
  EXPECT_LT(encode_block(repetitive).second.size(), repetitive.size() / 4);
  EXPECT_LT(encode_block(constant).second.size(), 64u);
}

TEST(BlockCodec, MalformedStreamsThrowInsteadOfCorrupting) {
  const std::string input(1000, 'x');
  auto [codec, stored] = encode_block(input);
  ASSERT_EQ(codec, kBlockLz);
  // Truncation at every prefix either throws or (never) returns wrong data.
  for (std::size_t cut = 0; cut < stored.size(); ++cut) {
    try {
      const std::string out = decode_block(
          codec, std::string_view(stored).substr(0, cut), input.size(),
          "test");
      EXPECT_EQ(out, input);  // only acceptable non-throw outcome
    } catch (const persist_error&) {
    }
  }
  // Declared-size mismatch throws.
  EXPECT_THROW(decode_block(codec, stored, input.size() + 1, "test"),
               persist_error);
  EXPECT_THROW(decode_block(2, stored, input.size(), "test"), persist_error);
}

TEST(BinIo, FramedFileRoundTripAndCorruptionDetection) {
  const std::string path = temp_path("framed.bin");
  const std::string payload = "some payload bytes";
  write_file_atomic(path, "CIDTEST", 1, payload);
  const FramedFile file = read_file_checked(path, "CIDTEST", 1);
  EXPECT_EQ(file.version, 1);
  EXPECT_EQ(file.payload, payload);

  // Wrong magic and future versions are rejected.
  EXPECT_THROW(read_file_checked(path, "CIDSNAP", 1), persist_error);
  EXPECT_THROW(read_file_checked(path, "CIDTEST", 0), persist_error);

  // A single flipped payload byte must fail the checksum.
  std::string data = slurp_file(path);
  data[10] = static_cast<char>(data[10] ^ 0x01);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
  }
  EXPECT_THROW(read_file_checked(path, "CIDTEST", 1), persist_error);
  std::remove(path.c_str());
}

CongestionGame codec_exercise_game() {
  // One latency of every serializable class.
  std::vector<LatencyPtr> fns;
  fns.push_back(make_constant(10.0));
  fns.push_back(make_monomial(2.5, 3.0));
  fns.push_back(make_polynomial({1.0, 0.0, 0.25}));
  fns.push_back(make_exponential(2.0, 0.125));
  fns.push_back(make_scaled(make_monomial(1.5, 2.0), 100));
  std::vector<Strategy> strategies = {{0, 1}, {2, 3}, {1, 4}, {0}};
  return CongestionGame(std::move(fns), std::move(strategies), 400);
}

TEST(Codec, GameRoundTripPreservesTextSerialization) {
  const CongestionGame game = codec_exercise_game();
  BinWriter out;
  encode_game(out, game);
  BinReader in(out.buffer(), "test");
  const CongestionGame decoded = decode_game(in);
  EXPECT_NO_THROW(in.expect_done());
  // The text format is the canonical description; binary decode must agree
  // with it exactly (doubles included — the codec stores IEEE words).
  EXPECT_EQ(serialize_game(decoded), serialize_game(game));
}

TEST(Codec, HugeElasticityIsRefusedBeforeTheGameIsBuilt) {
  // Building a game scans loads 1..⌈d⌉ for its elasticity bound d, so a
  // hostile monomial degree (or exponential rate × players) must be
  // refused by the decoder, not spun on for hours.
  for (const double degree : {0x1p40, std::numeric_limits<double>::max()}) {
    BinWriter out;
    out.i64(200);  // players
    out.u32(1);    // one resource: monomial (tag 2) with `degree`
    out.u8(2);
    out.f64(1.0);
    out.f64(degree);
    out.u32(1);  // one strategy {0}
    out.u32(1);
    out.i32(0);
    BinReader in(out.buffer(), "test");
    EXPECT_THROW(decode_game(in), persist_error);
  }
}

TEST(Codec, StateRoundTrip) {
  const CongestionGame game = codec_exercise_game();
  Rng rng(5);
  const State x = State::uniform_random(game, rng);
  BinWriter out;
  encode_state(out, x);
  BinReader in(out.buffer(), "test");
  const State decoded = decode_state(in, game);
  EXPECT_TRUE(decoded == x);
}

TEST(Snapshot, RoundTripPreservesEveryField) {
  const CongestionGame game = codec_exercise_game();
  Rng rng(17);
  const State x = State::uniform_random(game, rng);
  SimConfig config;
  config.protocol = "combined";
  config.lambda = 0.5;
  config.p_explore = 0.25;
  config.nu_cutoff = false;
  config.damping = true;
  config.virtual_agents = 3;
  config.engine = 1;
  config.stop = "deltaeps:0.05,0.1";

  const std::string path = temp_path("roundtrip.snap");
  save_snapshot(make_snapshot(game, x, rng, 12345, config), path);
  const Snapshot loaded = load_snapshot(path);
  EXPECT_EQ(loaded.round, 12345);
  EXPECT_EQ(loaded.config, config);
  EXPECT_EQ(loaded.rng_state, rng.state());
  const auto& part = loaded.as<SymmetricPart>(path);
  EXPECT_EQ(serialize_game(part.game), serialize_game(game));
  EXPECT_TRUE(part.state() == x);
  std::remove(path.c_str());
}

TEST(Snapshot, RestoredRngContinuesTheExactStream) {
  const CongestionGame game = codec_exercise_game();
  Rng rng(99);
  const State x = State::uniform_random(game, rng);
  const std::string path = temp_path("rngcontinue.snap");
  save_snapshot(make_snapshot(game, x, rng, 0, SimConfig{}), path);

  // Continue the original and the restored stream side by side.
  std::vector<std::uint64_t> original;
  for (int i = 0; i < 64; ++i) original.push_back(rng.next_u64());
  Rng restored;
  restored.set_state(load_snapshot(path).rng_state);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(restored.next_u64(), original[i]);
  std::remove(path.c_str());
}

TEST(EventLog, WriteReadRoundTrip) {
  const std::string path = temp_path("roundtrip.elog");
  {
    EventLogWriter writer = EventLogWriter::create(path);
    writer.append(0, std::vector<Migration>{{0, 1, 5}, {2, 0, 3}});
    writer.append(1, std::vector<Migration>{});
    writer.append(2, std::vector<Migration>{{1, 2, 1}});
    writer.close();
  }
  const EventLog log = read_event_log(path);
  EXPECT_EQ(log.version, kEventLogVersion);
  EXPECT_FALSE(log.truncated_tail);
  ASSERT_EQ(log.rounds.size(), 3u);
  EXPECT_EQ(log.rounds[0].round, 0);
  ASSERT_EQ(log.rounds[0].moves.size(), 2u);
  EXPECT_EQ(log.rounds[0].moves[1].from, 2);
  EXPECT_EQ(log.rounds[0].moves[1].count, 3);
  EXPECT_TRUE(log.rounds[1].moves.empty());
  EXPECT_EQ(log.rounds[2].round, 2);
  std::remove(path.c_str());
}

TEST(EventLog, DamagedTailIsDetectedAndDroppedOnAppend) {
  const std::string path = temp_path("damaged.elog");
  {
    EventLogWriter writer = EventLogWriter::create(path);
    writer.append(0, std::vector<Migration>{{0, 1, 2}});
    writer.append(1, std::vector<Migration>{{1, 0, 2}});
    writer.close();
  }
  {  // Simulate a killed writer: half a record of garbage at the end.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "garbage!";
  }
  const EventLog damaged = read_event_log(path);
  EXPECT_TRUE(damaged.truncated_tail);
  ASSERT_EQ(damaged.rounds.size(), 2u);

  // Appending at round 2 truncates the garbage and continues cleanly.
  {
    EventLogWriter writer = EventLogWriter::open_for_append(path, 2);
    writer.append(2, std::vector<Migration>{{0, 1, 1}});
    writer.close();
  }
  const EventLog repaired = read_event_log(path);
  EXPECT_FALSE(repaired.truncated_tail);
  ASSERT_EQ(repaired.rounds.size(), 3u);
  EXPECT_EQ(repaired.rounds[2].round, 2);
  std::remove(path.c_str());
}

TEST(EventLog, AppendDropsRecordsAtOrBeyondTheResumeRound) {
  const std::string path = temp_path("truncate.elog");
  {
    EventLogWriter writer = EventLogWriter::create(path);
    for (std::int64_t r = 0; r < 10; ++r) {
      writer.append(r, std::vector<Migration>{{0, 1, r + 1}});
    }
    writer.close();
  }
  // Resume from a snapshot taken at round 6: rounds 6..9 must go.
  {
    EventLogWriter writer = EventLogWriter::open_for_append(path, 6);
    writer.append(6, std::vector<Migration>{{1, 0, 100}});
    writer.close();
  }
  const EventLog log = read_event_log(path);
  ASSERT_EQ(log.rounds.size(), 7u);
  EXPECT_EQ(log.rounds[5].moves[0].count, 6);
  EXPECT_EQ(log.rounds[6].moves[0].count, 100);
  std::remove(path.c_str());
}

TEST(EventLog, CompressedBlocksShrinkLongQuietRuns) {
  const std::string path = temp_path("quiet.elog");
  // A realistic long tail: a few active rounds, then near-silence.
  std::vector<std::vector<Migration>> rounds(5000);
  std::uint64_t fixed_width_bytes = 8;  // the v1 magic + version
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const auto round = static_cast<std::int64_t>(r);
    if (round < 10) rounds[r] = {{0, 1, 5 + round}, {2, 0, 3}};
    if (round % 97 == 0) rounds[r].push_back({1, 2, 1});
    fixed_width_bytes += 8 + 4 + 16 * rounds[r].size() + 4;
  }
  {
    EventLogWriter writer = EventLogWriter::create(path);
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      writer.append(static_cast<std::int64_t>(r), rounds[r]);
    }
    writer.close();
  }
  const EventLog log = read_event_log(path);
  ASSERT_EQ(log.rounds.size(), rounds.size());
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_EQ(log.rounds[r].round, static_cast<std::int64_t>(r));
    ASSERT_EQ(log.rounds[r].moves.size(), rounds[r].size());
    for (std::size_t m = 0; m < rounds[r].size(); ++m) {
      EXPECT_EQ(log.rounds[r].moves[m].from, rounds[r][m].from);
      EXPECT_EQ(log.rounds[r].moves[m].to, rounds[r][m].to);
      EXPECT_EQ(log.rounds[r].moves[m].count, rounds[r][m].count);
    }
  }
  // The acceptance bar is >= 5x on long runs against the fixed-width v1
  // size (the uncompressed-equivalent count cid_replay inspect prints);
  // this mostly-quiet log should beat it comfortably.
  EXPECT_EQ(log.v1_equivalent_bytes, fixed_width_bytes);
  EXPECT_GE(log.v1_equivalent_bytes, 5 * log.file_bytes);
  std::remove(path.c_str());
}

TEST(EventLog, TruncatedCompressedBlockTailIsRecovered) {
  const std::string path = temp_path("blocktail.elog");
  {
    EventLogWriter writer = EventLogWriter::create(path);
    // 600 rounds = 2 full blocks (256) + one partial (88).
    for (std::int64_t r = 0; r < 600; ++r) {
      writer.append(r, std::vector<Migration>{{0, 1, r % 5}});
    }
    writer.close();
  }
  const std::string intact = slurp_file(path);
  const EventLog full = read_event_log(path);
  ASSERT_EQ(full.rounds.size(), 600u);
  EXPECT_FALSE(full.truncated_tail);

  // Cut the file mid-way through the final block (a killed writer whose
  // last fwrite landed partially): the intact prefix must survive.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << intact.substr(0, intact.size() - 20);
  }
  const EventLog damaged = read_event_log(path);
  EXPECT_TRUE(damaged.truncated_tail);
  ASSERT_EQ(damaged.rounds.size(), 512u);  // the two full blocks

  // ...and a bit-flip INSIDE an intact-length block must fail its CRC,
  // not decode garbage.
  std::string corrupt = intact;
  corrupt[corrupt.size() / 2] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  const EventLog crc_damaged = read_event_log(path);
  EXPECT_TRUE(crc_damaged.truncated_tail);
  EXPECT_LT(crc_damaged.rounds.size(), 600u);

  // open_for_append on the truncated file drops the tail and continues;
  // the repaired file must equal an uninterrupted writer's output.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << intact.substr(0, intact.size() - 20);
  }
  {
    EventLogWriter writer = EventLogWriter::open_for_append(path, 512);
    for (std::int64_t r = 512; r < 600; ++r) {
      writer.append(r, std::vector<Migration>{{0, 1, r % 5}});
    }
    writer.close();
  }
  EXPECT_EQ(slurp_file(path), intact);
  std::remove(path.c_str());
}

// A CRC-valid block whose first round claims 2^26 moves in a few bytes:
// the reader must refuse the count before sizing a vector to it (1 GiB
// of zero-filled Migration records).
TEST(EventLog, ClaimedMoveCountBeyondTheBlockIsRefusedBeforeAllocating) {
  const std::string path = temp_path("movecount.elog");
  EventLogWriter::create(path).close();  // header only
  BinWriter raw;
  raw.vu64(std::uint64_t{1} << 26);
  BinWriter block;
  block.u8(kBlockRaw);
  block.u32(static_cast<std::uint32_t>(raw.buffer().size()));
  block.u32(static_cast<std::uint32_t>(raw.buffer().size()));
  block.u64(0);  // first_round
  block.u32(1);  // round_count
  block.raw(raw.buffer().data(), raw.buffer().size());
  block.u32(crc32(block.buffer().data(), block.buffer().size()));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << block.buffer();
  }
  rusage before{};
  ::getrusage(RUSAGE_SELF, &before);
  EXPECT_THROW(read_event_log(path), persist_error);
  rusage after{};
  ::getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 256 * 1024);  // KiB
  std::remove(path.c_str());
}

TEST(EventLog, ResumeBoundariesAreDeterministic) {
  // Killing at an arbitrary round and resuming must reproduce the
  // uninterrupted file bytes — block framing is a pure function of round
  // numbers, not kill points.
  const std::string reference_path = temp_path("boundary_ref.elog");
  auto moves_for = [](std::int64_t r) {
    std::vector<Migration> moves;
    if (r % 3 == 0) moves.push_back({0, 1, r + 1});
    if (r % 7 == 0) moves.push_back({1, 0, 2});
    return moves;
  };
  {
    EventLogWriter writer = EventLogWriter::create(reference_path);
    for (std::int64_t r = 0; r < 700; ++r) writer.append(r, moves_for(r));
    writer.close();
  }
  const std::string reference = slurp_file(reference_path);
  for (std::int64_t kill : {1, 255, 256, 257, 511, 650}) {
    const std::string path = temp_path("boundary_kill.elog");
    {
      EventLogWriter writer = EventLogWriter::create(path);
      for (std::int64_t r = 0; r < kill; ++r) writer.append(r, moves_for(r));
      writer.close();
    }
    {
      EventLogWriter writer = EventLogWriter::open_for_append(path, kill);
      for (std::int64_t r = kill; r < 700; ++r) {
        writer.append(r, moves_for(r));
      }
      writer.close();
    }
    EXPECT_EQ(slurp_file(path), reference) << "kill at round " << kill;
    std::remove(path.c_str());
  }
  std::remove(reference_path.c_str());
}

TEST(EventLog, GaplessAppendIsEnforced) {
  const std::string path = temp_path("gapless.elog");
  EventLogWriter writer = EventLogWriter::create(path);
  writer.append(0, std::vector<Migration>{});
  writer.append(1, std::vector<Migration>{});
  EXPECT_THROW(writer.append(3, std::vector<Migration>{}), persist_error);
  writer.close();

  // Resuming past the end of a log refuses to leave a gap.
  EXPECT_THROW(EventLogWriter::open_for_append(path, 5), persist_error);
  std::remove(path.c_str());
}

TEST(EventLog, RotationSplitsAndSeriesReadReassembles) {
  const std::string path = temp_path("rotate.elog");
  EventLogOptions options;
  options.rotate_bytes = 200;  // tiny: force several segments
  options.block_rounds = 16;
  {
    EventLogWriter writer = EventLogWriter::create(path, options);
    for (std::int64_t r = 0; r < 400; ++r) {
      writer.append(r, std::vector<Migration>{{0, 1, r}});
    }
    writer.close();
  }
  EXPECT_TRUE(std::ifstream(path + ".1").good());
  const EventLog merged = read_event_log_series(path);
  ASSERT_EQ(merged.rounds.size(), 400u);
  for (std::int64_t r = 0; r < 400; ++r) {
    EXPECT_EQ(merged.rounds[static_cast<std::size_t>(r)].round, r);
  }
  // A fresh create() at the same path owns the chain again.
  EventLogWriter::create(path, options).close();
  EXPECT_FALSE(std::ifstream(path + ".1").good());
  std::remove(path.c_str());
}

TEST(EventLog, ResumeIntoAFreshlyRotatedSegmentCannotDuplicateRounds) {
  // Right after a rotation the active segment is header-only; resuming at
  // a round the rotated chain already holds must fail loudly (silently
  // re-appending would duplicate rounds and corrupt replay), resuming at
  // the chain's continuation point must work, and resuming beyond it must
  // be rejected as a gap.
  const std::string path = temp_path("rotate_resume.elog");
  EventLogOptions options;
  options.block_rounds = 8;
  options.rotate_bytes = 1;  // rotate after every flushed block
  {
    EventLogWriter writer = EventLogWriter::create(path, options);
    for (std::int64_t r = 0; r < 8; ++r) {
      writer.append(r, std::vector<Migration>{{0, 1, r}});
    }
    writer.close();  // block [0,8) flushed and rotated; active = header
  }
  ASSERT_TRUE(std::ifstream(path + ".1").good());

  EXPECT_THROW(EventLogWriter::open_for_append(path, 6, options),
               persist_error);
  EXPECT_THROW(EventLogWriter::open_for_append(path, 10, options),
               persist_error);
  {
    EventLogWriter writer = EventLogWriter::open_for_append(path, 8, options);
    for (std::int64_t r = 8; r < 12; ++r) {
      writer.append(r, std::vector<Migration>{{1, 0, r}});
    }
    writer.close();
  }
  const EventLog merged = read_event_log_series(path);
  ASSERT_EQ(merged.rounds.size(), 12u);
  for (std::int64_t r = 0; r < 12; ++r) {
    EXPECT_EQ(merged.rounds[static_cast<std::size_t>(r)].round, r);
  }
  std::remove((path + ".1").c_str());
  std::remove((path + ".2").c_str());
  std::remove(path.c_str());
}

TEST(EventLog, UnknownHeaderSectionsAreSkipped) {
  // Old-reader/new-file: a future writer adds a header section; today's
  // reader must still parse the blocks.
  const std::string path = temp_path("future.elog");
  {
    EventLogWriter writer = EventLogWriter::create(path);
    writer.append(0, std::vector<Migration>{{0, 1, 2}});
    writer.close();
  }
  std::string data = slurp_file(path);
  // Rebuild the header with an extra unknown section appended.
  const std::uint32_t old_len = read_le32(data.data() + 8);
  const std::string blocks = data.substr(12 + old_len);
  BinWriter extra;
  write_section(extra, 4242, "hover-board calibration");
  const std::string sections =
      data.substr(12, old_len) + extra.buffer();
  BinWriter rebuilt;
  rebuilt.raw(data.data(), 8);  // magic + version
  rebuilt.u32(static_cast<std::uint32_t>(sections.size()));
  rebuilt.raw(sections.data(), sections.size());
  rebuilt.raw(blocks.data(), blocks.size());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << rebuilt.buffer();
  }
  const EventLog log = read_event_log(path);
  EXPECT_FALSE(log.truncated_tail);
  ASSERT_EQ(log.rounds.size(), 1u);
  EXPECT_EQ(log.rounds[0].moves[0].count, 2);
  std::remove(path.c_str());
}

// ---- Family codecs and snapshots --------------------------------------------

AsymmetricGame codec_exercise_asymmetric() {
  std::vector<LatencyPtr> fns;
  fns.push_back(make_linear(0.5));
  fns.push_back(make_monomial(1.0, 2.0));
  fns.push_back(make_linear(2.0));
  std::vector<PlayerClass> classes(2);
  classes[0].strategies = {{0}, {1}};
  classes[0].num_players = 40;
  classes[1].strategies = {{0}, {2}, {1, 2}};
  classes[1].num_players = 60;
  return AsymmetricGame(std::move(fns), std::move(classes));
}

TEST(Codec, AsymmetricGameAndStateRoundTrip) {
  const AsymmetricGame game = codec_exercise_asymmetric();
  BinWriter out;
  encode_asymmetric_game(out, game);
  BinReader in(out.buffer(), "test");
  const AsymmetricGame decoded = decode_asymmetric_game(in);
  EXPECT_NO_THROW(in.expect_done());
  EXPECT_EQ(decoded.describe(), game.describe());
  ASSERT_EQ(decoded.num_classes(), game.num_classes());
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    EXPECT_EQ(decoded.player_class(c).num_players,
              game.player_class(c).num_players);
    EXPECT_EQ(decoded.player_class(c).strategies,
              game.player_class(c).strategies);
  }

  Rng rng(3);
  const AsymmetricState x = AsymmetricState::uniform_random(game, rng);
  BinWriter sout;
  encode_asymmetric_state(sout, x);
  BinReader sin(sout.buffer(), "test");
  const AsymmetricState loaded = decode_asymmetric_state(sin, game);
  EXPECT_EQ(loaded.counts(), x.counts());
}

TEST(Codec, MaxCutAndThresholdStateRoundTrip) {
  Rng rng(5);
  const MaxCutInstance inst = MaxCutInstance::random(8, 0.5, 64, rng);
  BinWriter out;
  encode_maxcut(out, inst);
  BinReader in(out.buffer(), "test");
  const MaxCutInstance decoded = decode_maxcut(in);
  EXPECT_NO_THROW(in.expect_done());
  EXPECT_EQ(decoded.weights(), inst.weights());  // bit-exact doubles

  const TripledGame tg = triple_quadratic_threshold(inst);
  ThresholdState s = tripled_initial_state(tg, 0b10110101u);
  BinWriter sout;
  encode_threshold_state(sout, s);
  BinReader sin(sout.buffer(), "test");
  const ThresholdState loaded = decode_threshold_state(sin, tg.game);
  EXPECT_EQ(loaded.in_bits(), s.in_bits());
}

TEST(Snapshot, AsymmetricRoundTripAndFamilyMismatchErrors) {
  const AsymmetricGame game = codec_exercise_asymmetric();
  Rng rng(9);
  const AsymmetricState x = AsymmetricState::uniform_random(game, rng);
  const std::string path = temp_path("asym.snap");
  save_snapshot({1234, SimConfig{}, rng.state(), 777,
                 AsymmetricPart{game, x.counts()}},
                path);

  const Snapshot loaded = load_snapshot(path);
  EXPECT_EQ(loaded.family(), SnapshotFamily::kAsymmetric);
  EXPECT_EQ(loaded.round, 1234);
  EXPECT_EQ(loaded.movers, 777);
  EXPECT_EQ(loaded.rng_state, rng.state());
  const auto& part = loaded.as<AsymmetricPart>(path);
  EXPECT_EQ(part.counts, x.counts());
  EXPECT_EQ(part.game.describe(), game.describe());

  // Asking for another family's part fails loudly instead of mis-decoding.
  EXPECT_THROW(loaded.as<SymmetricPart>(path), persist_error);
  EXPECT_THROW(loaded.as<ThresholdPart>(path), persist_error);
  std::remove(path.c_str());
}

TEST(Snapshot, ThresholdRoundTrip) {
  Rng rng(6);
  const MaxCutInstance inst = MaxCutInstance::random(6, 0.7, 32, rng);
  const TripledGame tg = triple_quadratic_threshold(inst);
  const ThresholdState s = tripled_initial_state(tg, 0b010101u);
  const std::string path = temp_path("threshold.snap");
  save_snapshot({42, SimConfig{}, rng.state(), 42,
                 ThresholdPart{inst, true, s.in_bits()}},
                path);

  const Snapshot loaded = load_snapshot(path);
  EXPECT_EQ(loaded.family(), SnapshotFamily::kThreshold);
  EXPECT_EQ(loaded.round, 42);
  const auto& part = loaded.as<ThresholdPart>(path);
  EXPECT_TRUE(part.tripled);
  EXPECT_EQ(part.instance.weights(), inst.weights());
  EXPECT_EQ(part.in_bits, s.in_bits());
  EXPECT_THROW(loaded.as<SymmetricPart>(path), persist_error);
  std::remove(path.c_str());
}

TEST(Snapshot, UnknownSectionsAreSkippedByTheReader) {
  // Old-reader/new-file: append a section today's reader does not know to
  // a valid v2 snapshot payload — it must load exactly as before.
  const CongestionGame game = codec_exercise_game();
  Rng rng(31);
  const State x = State::uniform_random(game, rng);
  Snapshot snapshot = make_snapshot(game, x, rng, 7, SimConfig{});
  std::string payload = snapshot_payload(snapshot);
  BinWriter extra;
  write_section(extra, 31337, std::string(100, 'z'));
  payload += extra.buffer();

  const std::string path = temp_path("future.snap");
  write_file_atomic(path, kSnapshotMagic, kSnapshotVersion, payload);
  const Snapshot loaded = load_snapshot(path);
  EXPECT_EQ(loaded.round, 7);
  const auto& part = loaded.as<SymmetricPart>(path);
  EXPECT_TRUE(part.state() == x);
  EXPECT_EQ(serialize_game(part.game), serialize_game(game));

  // Even a version byte from the future is fine as long as the required
  // sections are present — the skip-unknown policy replaces refuse-newer.
  write_file_atomic(path, kSnapshotMagic, kSnapshotVersion + 1, payload);
  EXPECT_EQ(load_snapshot(path).round, 7);
  std::remove(path.c_str());
}

sweep::SweepGrid manifest_grid() {
  sweep::SweepGrid grid;
  grid.scenario.name = "load-balancing";
  grid.scenario.params = {{"m", 4.0}};
  grid.protocols = sweep::parse_protocol_list("imitation");
  grid.ns = {100, 200};
  grid.trials = 3;
  grid.master_seed = 7;
  grid.dynamics.max_rounds = 50;
  return grid;
}

TEST(Manifest, AppendLoadRoundTripIsBitExact) {
  const std::string path = temp_path("roundtrip.manifest");
  const sweep::SweepGrid grid = manifest_grid();
  sweep::TrialOutcome outcome;
  outcome.rounds = 17.0;
  outcome.converged = true;
  outcome.movers = 123456789012345ll;
  outcome.potential = 0.1 + 0.2;  // a double with a messy bit pattern
  outcome.social_cost = -3.25;
  {
    ManifestWriter writer = ManifestWriter::create(path, grid);
    writer.append(1, 2, outcome);
    writer.close();
  }
  const ManifestContents contents = load_manifest(path, grid);
  EXPECT_EQ(contents.fingerprint, grid_fingerprint(grid));
  EXPECT_EQ(contents.cells, 2u);
  EXPECT_EQ(contents.trials_per_cell, 3u);
  EXPECT_FALSE(contents.truncated_tail);
  ASSERT_EQ(contents.completed.size(), 1u);
  const sweep::TrialOutcome& loaded = contents.completed.at({1, 2});
  EXPECT_EQ(loaded, outcome);  // bitwise on the doubles via operator==
  std::remove(path.c_str());
}

TEST(Manifest, RejectsADifferentGrid) {
  const std::string path = temp_path("mismatch.manifest");
  const sweep::SweepGrid grid = manifest_grid();
  ManifestWriter::create(path, grid).close();

  sweep::SweepGrid other = manifest_grid();
  other.master_seed = 8;  // different streams => different outcomes
  EXPECT_THROW(load_manifest(path, other), persist_error);
  EXPECT_THROW(ManifestWriter::open_for_append(path, other), persist_error);
  EXPECT_NO_THROW(load_manifest(path, grid));
  std::remove(path.c_str());
}

TEST(Manifest, RotationSegmentsMergeOnLoad) {
  const std::string path = temp_path("rotate.manifest");
  const sweep::SweepGrid grid = manifest_grid();
  {
    ManifestWriter writer = ManifestWriter::create(path, grid);
    writer.set_rotate_bytes(120);  // tiny: a couple of records per segment
    for (std::uint32_t cell = 0; cell < 2; ++cell) {
      for (std::uint32_t trial = 0; trial < 3; ++trial) {
        sweep::TrialOutcome outcome;
        outcome.rounds = static_cast<double>(10 * cell + trial);
        writer.append(cell, trial, outcome);
      }
    }
    writer.close();
  }
  EXPECT_TRUE(std::ifstream(path + ".1").good());
  const ManifestContents contents = load_manifest(path, grid);
  EXPECT_FALSE(contents.truncated_tail);
  ASSERT_EQ(contents.completed.size(), 6u);
  EXPECT_EQ(contents.completed.at({1, 2}).rounds, 12.0);

  // Wrong grid is rejected in rotated chains too.
  sweep::SweepGrid other = manifest_grid();
  other.master_seed = 99;
  EXPECT_THROW(load_manifest(path, other), persist_error);

  // create() reclaims the chain.
  ManifestWriter::create(path, grid).close();
  EXPECT_FALSE(std::ifstream(path + ".1").good());
  std::remove(path.c_str());
}

TEST(Manifest, UnknownHeaderSectionsAreSkipped) {
  // Old-reader/new-file for the manifest header.
  const std::string path = temp_path("future.manifest");
  const sweep::SweepGrid grid = manifest_grid();
  {
    ManifestWriter writer = ManifestWriter::create(path, grid);
    sweep::TrialOutcome outcome;
    outcome.rounds = 5.0;
    writer.append(0, 0, outcome);
    writer.close();
  }
  std::string data = slurp_file(path);
  const std::uint32_t old_len = read_le32(data.data() + 8);
  const std::string records = data.substr(12 + old_len);
  BinWriter extra;
  write_section(extra, 777, "future manifest metadata");
  const std::string sections = data.substr(12, old_len) + extra.buffer();
  BinWriter rebuilt;
  rebuilt.raw(data.data(), 8);
  rebuilt.u32(static_cast<std::uint32_t>(sections.size()));
  rebuilt.raw(sections.data(), sections.size());
  rebuilt.raw(records.data(), records.size());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << rebuilt.buffer();
  }
  const ManifestContents contents = load_manifest(path, grid);
  ASSERT_EQ(contents.completed.size(), 1u);
  EXPECT_EQ(contents.completed.at({0, 0}).rounds, 5.0);
  std::remove(path.c_str());
}

TEST(Manifest, FingerprintCoversOutcomeRelevantFields) {
  const sweep::SweepGrid base = manifest_grid();
  auto differs = [&](auto mutate) {
    sweep::SweepGrid grid = manifest_grid();
    mutate(grid);
    return grid_fingerprint(grid) != grid_fingerprint(base);
  };
  EXPECT_TRUE(differs([](auto& g) { g.scenario.name = "singleton-uniform"; }));
  EXPECT_TRUE(differs([](auto& g) { g.scenario.params["m"] = 5.0; }));
  EXPECT_TRUE(differs([](auto& g) { g.protocols[0].lambda = 0.5; }));
  EXPECT_TRUE(differs([](auto& g) { g.ns.push_back(300); }));
  EXPECT_TRUE(differs([](auto& g) { g.trials = 4; }));
  EXPECT_TRUE(differs([](auto& g) { g.master_seed = 123; }));
  EXPECT_TRUE(differs([](auto& g) { g.dynamics.max_rounds = 60; }));
  EXPECT_TRUE(differs([](auto& g) { g.dynamics.delta = 0.2; }));
}

// A CRC-valid record whose converged byte is neither 0 nor 1 is not bit
// rot: like a record outside the grid, it is refused naming the path, so
// no canonical rewrite can quietly turn the byte into 1.
TEST(Manifest, CrcValidConvergedByteOtherThanZeroOrOneIsFatal) {
  const std::string path = temp_path("converged2.manifest");
  const sweep::SweepGrid grid = manifest_grid();
  sweep::TrialOutcome outcome;
  outcome.rounds = 9.0;
  outcome.converged = true;
  {
    ManifestWriter writer = ManifestWriter::create(path, grid);
    writer.append(0, 0, outcome);
    writer.append(1, 2, outcome);
    writer.close();
  }
  std::string data = slurp_file(path);
  const std::size_t record = data.size() - kRecordBytes;
  data[record + 16] = 2;  // the second record's converged byte
  BinWriter crc;
  crc.u32(crc32(data.data() + record, kRecordFieldBytes));
  data.replace(record + kRecordFieldBytes, 4, crc.buffer());
  EXPECT_THROW(read_record(std::string_view(data).substr(record), "probe"),
               persist_error);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
  }
  for (const auto& load : std::vector<std::function<void()>>{
           [&] { load_manifest(path, grid); },
           [&] { load_manifest_raw(path); },
           [&] { ManifestWriter::open_for_append(path, grid); }}) {
    try {
      load();
      ADD_FAILURE() << "a converged byte of 2 loaded";
    } catch (const persist_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("converged"), std::string::npos);
    }
  }
  // cid_merge counts it as an unreadable input (fatal unless --max-corrupt
  // skips the whole input), so no canonical rewrite changes its byte.
  EXPECT_THROW(merge_manifests({path}), persist_error);
  std::remove(path.c_str());
}

// ---- Hostile bytes -----------------------------------------------------------
//
// A seeded, fixed-budget mutation loop over the snapshot corpus: the one
// snapshot decoder must return or throw persist_error — never another
// exception, a crash, or a hang. Half the cases mutate the whole file (so
// the envelope checks see them); the other half mutate the payload and
// re-seal it with a valid size and CRC, so the bytes reach the decoder.

std::string fixture(const std::string& name) {
  return std::string(CID_PERSIST_FIXTURE_DIR) + "/" + name;
}

/// One mutation: 1-4 bit flips, a truncation, or an inflated length /
/// count / double field (a large value written over 2, 4 or 8 bytes).
std::string mutate(std::string bytes, Rng& rng) {
  if (bytes.empty()) return bytes;
  const auto at = [&] {
    return static_cast<std::size_t>(rng.uniform_int(bytes.size()));
  };
  switch (rng.uniform_int(3)) {
    case 0: {
      const auto flips = 1 + rng.uniform_int(4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        bytes[at()] ^= static_cast<char>(1 << rng.uniform_int(8));
      }
      break;
    }
    case 1:
      bytes.resize(at());
      break;
    default: {
      static constexpr std::uint64_t kInflated[] = {
          ~std::uint64_t{0}, 0x7FFFFFFFull, 0x80000000ull, 0xFFFFFFFFull,
          0x00FFFFFFull,     0x00100000ull, 0x10000ull,    0xFFFFull,
          0x7FFFFFFFFFFFFFFFull,
          0x4330000000000000ull,  // 2^52 as a double (a degree or rate)
          0x41E0000000000000ull}; // 2^31 as a double
      const std::uint64_t value =
          kInflated[rng.uniform_int(std::size(kInflated))];
      const std::size_t width = std::size_t{2} << rng.uniform_int(3);
      const std::size_t pos = at();
      for (std::size_t i = 0; i < width && pos + i < bytes.size(); ++i) {
        bytes[pos + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
      }
      break;
    }
  }
  return bytes;
}

/// magic + version + size + payload + CRC, as write_file_atomic frames it.
std::string seal(std::uint8_t version, const std::string& payload) {
  BinWriter out;
  out.raw(kSnapshotMagic, 7);
  out.u8(version);
  out.u64(payload.size());
  out.raw(payload.data(), payload.size());
  out.u32(crc32(payload.data(), payload.size()));
  return out.take();
}

TEST(Snapshot, HostileBytesOnlyEverThrowPersistError) {
  constexpr int kCasesPerFixture = 1500;
  const std::string path = temp_path("hostile.cidsnap");
  for (const char* name :
       {"trial_load_balancing_v2.cidsnap", "trial_asymmetric_v2.cidsnap",
        "trial_threshold_lb_v2.cidsnap", "final_v1.cidsnap"}) {
    SCOPED_TRACE(name);
    const FramedFile original =
        read_file_checked(fixture(name), kSnapshotMagic, kAnyVersion);
    const std::string file = seal(original.version, original.payload);
    ASSERT_EQ(file, slurp_file(fixture(name)));
    Rng rng(0xF022);
    int decoded = 0;
    for (int i = 0; i < kCasesPerFixture; ++i) {
      const std::string bytes =
          i % 2 == 0 ? mutate(file, rng)
                     : seal(original.version, mutate(original.payload, rng));
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      }
      try {
        load_snapshot(path);
        ++decoded;
      } catch (const persist_error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "case " << i << ": " << e.what();
      }
    }
    // Vacuity guard: some mutations (e.g. a flipped RNG word) still decode.
    EXPECT_GT(decoded, 0);
  }
  std::remove(path.c_str());
}

// The append-only decoders face the same loop. Their checksums guard
// records and blocks, not whole files, so half the cases mutate the whole
// file and the other half mutate one record or block frame and re-seal
// its CRC, so the bytes reach the decoder behind the checksum.

/// [offset, length) of every CRC-guarded frame (the CRC follows it) of a
/// CIDMANI or CIDELOG file, walked with the format's own size fields.
std::vector<std::pair<std::size_t, std::size_t>> crc_frames(
    const std::string& bytes) {
  const bool manifest = bytes.compare(0, 7, kManifestMagic) == 0;
  const auto version = static_cast<std::uint8_t>(bytes[7]);
  std::size_t pos = 8;
  if (manifest && version == 1) pos = 24;
  if (version >= 2) pos = 12 + read_le32(bytes.data() + 8);
  std::vector<std::pair<std::size_t, std::size_t>> frames;
  while (pos < bytes.size()) {
    std::size_t length = 41;  // a manifest record payload
    if (!manifest && version == 1) {
      length = 12 + std::size_t{16} * read_le32(bytes.data() + pos + 8);
    } else if (!manifest) {
      length = 21 + read_le32(bytes.data() + pos + 5);
    }
    frames.emplace_back(pos, length);
    pos += length + 4;
  }
  return frames;
}

std::string mutate_sealed_frame(const std::string& bytes, Rng& rng) {
  const auto frames = crc_frames(bytes);
  // A header-only event-log segment (the active file right after a
  // rotation) has no frame to reseal.
  if (frames.empty()) return mutate(bytes, rng);
  const auto [pos, length] = frames[rng.uniform_int(frames.size())];
  const std::string frame = mutate(bytes.substr(pos, length), rng);
  BinWriter out;
  out.raw(bytes.data(), pos);
  out.raw(frame.data(), frame.size());
  out.u32(crc32(frame.data(), frame.size()));
  out.raw(bytes.data() + pos + length + 4, bytes.size() - pos - length - 4);
  return out.take();
}

TEST(AppendOnly, HostileBytesOnlyEverThrowPersistError) {
  constexpr int kCasesPerSeed = 1500;
  const sweep::SweepGrid grid = manifest_grid();
  const std::string v2_manifest = temp_path("hostile_seed.cidmani");
  {
    ManifestWriter writer = ManifestWriter::create(v2_manifest, grid);
    for (std::uint32_t trial = 0; trial < 3; ++trial) {
      sweep::TrialOutcome outcome;
      outcome.rounds = 10.0 + trial;
      outcome.movers = 40 + trial;
      writer.append(trial % 2, trial, outcome);
    }
    writer.close();
  }
  const std::string v2_log = temp_path("hostile_seed.cidelog");
  constexpr std::int64_t kLogRounds = 60;  // 7 full blocks + a partial one
  {
    EventLogOptions options;
    options.block_rounds = 8;
    EventLogWriter writer = EventLogWriter::create(v2_log, options);
    for (std::int64_t round = 0; round < kLogRounds; ++round) {
      std::vector<Migration> moves;
      for (std::int64_t j = 0; j < round % 4; ++j) {
        moves.push_back({static_cast<std::int32_t>(j),
                         static_cast<std::int32_t>(j + 1), 3 * round + j});
      }
      writer.append(round, moves);
    }
    writer.close();
  }

  struct Seed {
    std::string name;
    std::string bytes;
    bool manifest;
    bool appendable;  // open_for_append accepts the unmutated seed
  };
  const Seed seeds[] = {
      {"sweep_v1.cidmani", slurp_file(fixture("sweep_v1.cidmani")), true,
       false},
      {"v2 manifest", slurp_file(v2_manifest), true, true},
      {"run_v1.cidelog", slurp_file(fixture("run_v1.cidelog")), false, false},
      {"v2 event log", slurp_file(v2_log), false, true},
  };
  const std::string path = temp_path("hostile_append_only");
  for (const Seed& seed : seeds) {
    SCOPED_TRACE(seed.name);
    std::int64_t next_round = 0;
    if (!seed.manifest) {
      std::ofstream(path, std::ios::binary | std::ios::trunc) << seed.bytes;
      next_round =
          static_cast<std::int64_t>(read_event_log(path).rounds.size());
    }
    Rng rng(0xA99E);
    int decoded = 0;
    int appended = 0;
    for (int i = 0; i < kCasesPerSeed; ++i) {
      const std::string bytes = i % 2 == 0
                                    ? mutate(seed.bytes, rng)
                                    : mutate_sealed_frame(seed.bytes, rng);
      const auto write_case = [&] {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      };
      try {
        write_case();
        if (seed.manifest) {
          load_manifest_raw(path);
        } else {
          read_event_log(path);
        }
        ++decoded;
      } catch (const persist_error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "case " << i << " (read): " << e.what();
      }
      try {
        write_case();
        if (seed.manifest) {
          ManifestWriter::open_for_append(path, grid).close();
        } else {
          EventLogWriter::open_for_append(path, next_round).close();
        }
        ++appended;
      } catch (const persist_error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "case " << i << " (append): " << e.what();
      }
    }
    // Vacuity guard: some mutations (a flipped double, a skipped slot)
    // still decode, and every seed that accepts appends still does.
    EXPECT_GT(decoded, 0);
    if (seed.appendable) {
      EXPECT_GT(appended, 0);
    }
  }
  std::remove(path.c_str());
  std::remove(v2_manifest.c_str());
  std::remove(v2_log.c_str());
}

/// Writes `segments` as one rotated chain at `path`: "<path>.1" ... for all
/// but the last, which is the active "<path>"; stale segments are removed.
void write_chain(const std::string& path,
                 const std::vector<std::string>& segments) {
  for (std::uint32_t seq = 1; seq <= 64; ++seq) {
    std::remove(chain_segment_path(path, seq).c_str());
  }
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::string file =
        i + 1 == segments.size()
            ? path
            : chain_segment_path(path, static_cast<std::uint32_t>(i + 1));
    std::ofstream(file, std::ios::binary | std::ios::trunc) << segments[i];
  }
}

/// A rotated event-log chain of `rounds` rounds moving round % `cycle`
/// cohorts each (two cycles give two runs whose chain totals disagree).
std::vector<std::string> rotated_chain(const std::string& path,
                                       std::int64_t rounds, int cycle) {
  EventLogOptions options;
  options.block_rounds = 8;
  options.rotate_bytes = 160;
  {
    EventLogWriter writer = EventLogWriter::create(path, options);
    for (std::int64_t round = 0; round < rounds; ++round) {
      std::vector<Migration> moves;
      for (std::int64_t j = 0; j < round % cycle; ++j) {
        moves.push_back({static_cast<std::int32_t>(j),
                         static_cast<std::int32_t>(j + 1), round + j});
      }
      writer.append(round, moves);
    }
    writer.close();
  }
  std::vector<std::string> segments;
  for (const std::string& segment : chain_segments(path)) {
    segments.push_back(slurp_file(segment));
  }
  segments.push_back(slurp_file(path));
  return segments;
}

TEST(EventLogChain, HostileBytesEndInPersistError) {
  // Chain-level damage to a rotated log — a missing middle segment,
  // swapped segments, re-totalled headers, a segment of another run —
  // must be refused by read_event_log_series; bit flips and truncations
  // of any segment (half of them CRC-resealed) may decode but otherwise
  // only ever throw persist_error.
  const std::string path = temp_path("hostile_chain.cidelog");
  const std::vector<std::string> other =
      rotated_chain(temp_path("hostile_chain_other.cidelog"), 96, 4);
  const std::vector<std::string> chain = rotated_chain(path, 96, 5);
  const std::size_t k = chain.size();
  ASSERT_GE(k, 4u);
  ASSERT_GE(other.size(), k);
  write_chain(path, chain);
  ASSERT_EQ(read_event_log_series(path).rounds.size(), 96u);

  std::vector<std::pair<std::string, std::vector<std::string>>> cases;
  for (std::size_t i = 1; i + 1 < k; ++i) {
    auto shorter = chain;
    shorter.erase(shorter.begin() + static_cast<std::ptrdiff_t>(i));
    cases.emplace_back("segment " + std::to_string(i) + " removed",
                       std::move(shorter));
  }
  for (std::size_t i = 0; i + 1 < k; ++i) {
    auto swapped = chain;
    std::swap(swapped[i], swapped[i + 1]);
    cases.emplace_back("segments " + std::to_string(i) + " and " +
                           std::to_string(i + 1) + " swapped",
                       std::move(swapped));
  }
  for (std::size_t i = 0; i < k; ++i) {
    auto foreign = chain;
    foreign[i] = i + 1 < k ? other[i] : other.back();
    cases.emplace_back("segment " + std::to_string(i) + " of another run",
                       std::move(foreign));
    // The header's chain totals are the last 16 bytes of its params
    // section, which ends the header: prior v1 bytes, then prior end round.
    const std::string& seg = chain[i];
    const std::size_t header = 12 + read_le32(seg.data() + 8);
    for (const std::size_t field : {header - 16, header - 8}) {
      for (const std::uint64_t delta :
           {std::uint64_t{1}, std::uint64_t{8}, std::uint64_t{1} << 40}) {
        auto inflated = chain;
        const std::uint64_t value = read_le64(seg.data() + field) + delta;
        for (int b = 0; b < 8; ++b) {
          inflated[i][field + static_cast<std::size_t>(b)] =
              static_cast<char>((value >> (8 * b)) & 0xFF);
        }
        cases.emplace_back("segment " + std::to_string(i) +
                               " totals inflated at " + std::to_string(field),
                           std::move(inflated));
      }
    }
  }
  // Damage is reported, not refused: a CRC-bad block in the first
  // segment, or a first segment that is not an event log at all, still
  // reads the rest; but segments swapped after the damage are refused.
  auto damaged = chain;
  damaged[0][crc_frames(damaged[0]).front().first + 2] ^= 0x10;
  write_chain(path, damaged);
  EXPECT_GT(read_event_log_series(path).corrupt_blocks, 0u);
  auto unreadable = chain;
  unreadable[0][0] = 'X';
  write_chain(path, unreadable);
  EXPECT_EQ(read_event_log_series(path).corrupt_segments.size(), 1u);
  for (const auto& broken_head : {damaged, unreadable}) {
    for (std::size_t i = 1; i + 1 < k; ++i) {
      auto swapped = broken_head;
      std::swap(swapped[i], swapped[i + 1]);
      cases.emplace_back("segments " + std::to_string(i) + " and " +
                             std::to_string(i + 1) +
                             " swapped after a damaged first segment",
                         std::move(swapped));
    }
  }
  // A hole: the chain walk stops at the first missing sequence number.
  write_chain(path, chain);
  std::remove(chain_segment_path(path, 2).c_str());
  EXPECT_THROW(read_event_log_series(path), persist_error) << "hole at .2";
  for (const auto& [name, segments] : cases) {
    write_chain(path, segments);
    EXPECT_THROW(read_event_log_series(path), persist_error) << name;
  }

  Rng rng(0xE106);
  int decoded = 0;
  int refused = 0;
  for (int c = 0; c < 2000; ++c) {
    auto mutated = chain;
    std::string& seg = mutated[rng.uniform_int(k)];
    seg = c % 2 == 0 ? mutate(seg, rng) : mutate_sealed_frame(seg, rng);
    write_chain(path, mutated);
    try {
      read_event_log_series(path);
      ++decoded;
    } catch (const persist_error&) {
      ++refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << c << ": " << e.what();
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(decoded, 0);
  write_chain(path, {});
}

}  // namespace
}  // namespace cid::persist
