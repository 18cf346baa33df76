#include "persist/eventlog.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "persist/binio.hpp"
#include "persist/block.hpp"

namespace cid::persist {

namespace {

constexpr std::size_t kV1HeaderSize = 7 + 1;  // magic + version
// codec:u8 raw:u32 stored:u32 first_round:u64 round_count:u32
constexpr std::size_t kBlockHeaderSize = 1 + 4 + 4 + 8 + 4;
constexpr std::uint16_t kElogSecParams = 1;
constexpr std::uint32_t kMaxMovesPerRound = 1u << 26;
constexpr AppendArtifact kEventLogFile{"event log", "eventlog.header",
                                       "eventlog.flush", "eventlog.rotate"};

/// The fixed-width v1 size of one round record — the "uncompressed
/// baseline" the observability counters compare against.
std::uint64_t v1_record_bytes(std::size_t moves) noexcept {
  return 8 + 4 + static_cast<std::uint64_t>(moves) * (4 + 4 + 8) + 4;
}

/// Parses one v1 record starting at `pos`, in place (no copies — logs of
/// million-round runs are scanned on every resume); returns false when
/// the remaining bytes are not one intact record.
bool parse_v1_record(const std::string& data, std::size_t pos,
                     std::size_t& next_pos, RoundEvents& events) {
  constexpr std::size_t kFixed = 8 + 4;  // round + move_count
  if (data.size() - pos < kFixed + 4) return false;
  const std::uint32_t move_count = read_le32(data.data() + pos + 8);
  const std::size_t payload_size =
      kFixed + static_cast<std::size_t>(move_count) * (4 + 4 + 8);
  if (data.size() - pos < payload_size + 4) return false;
  const std::uint32_t stored = read_le32(data.data() + pos + payload_size);
  if (stored != crc32(data.data() + pos, payload_size)) return false;

  BinReader record(std::string_view(data).substr(pos, payload_size),
                   "event log record");
  events.round = static_cast<std::int64_t>(record.u64());
  record.u32();  // move_count, already decoded
  events.moves.resize(move_count);
  for (Migration& m : events.moves) {
    m.from = record.i32();
    m.to = record.i32();
    m.count = record.i64();
  }
  next_pos = pos + payload_size + 4;
  return true;
}

// ---- v2 block encoding ------------------------------------------------------

/// Delta + varint encoding of a run of consecutive rounds. The delta
/// context (previous round's move list) starts empty so blocks decode
/// independently of one another.
std::string encode_block_rounds(std::span<const RoundEvents> rounds) {
  BinWriter raw;
  static const std::vector<Migration> kNoMoves;
  const std::vector<Migration>* prev = &kNoMoves;
  for (const RoundEvents& r : rounds) {
    raw.vu64(r.moves.size());
    for (std::size_t j = 0; j < r.moves.size(); ++j) {
      const Migration base =
          j < prev->size() ? (*prev)[j] : Migration{0, 0, 0};
      raw.vi64(static_cast<std::int64_t>(r.moves[j].from) - base.from);
      raw.vi64(static_cast<std::int64_t>(r.moves[j].to) - base.to);
      raw.vi64(r.moves[j].count - base.count);
    }
    prev = &r.moves;
  }
  return raw.take();
}

std::string frame_block(std::span<const RoundEvents> rounds) {
  const std::string raw = encode_block_rounds(rounds);
  auto [codec, stored] = encode_block(raw);
  if (raw.size() > 0xFFFFFFFFull || stored.size() > 0xFFFFFFFFull) {
    // The u32 header fields would wrap and the block would be unreadable;
    // fail at write time like BinWriter::str and write_section do.
    throw persist_error("event log block exceeds 4 GiB (" +
                        std::to_string(raw.size()) +
                        " raw bytes) — lower block_rounds");
  }
  BinWriter out;
  out.u8(codec);
  out.u32(static_cast<std::uint32_t>(raw.size()));
  out.u32(static_cast<std::uint32_t>(stored.size()));
  out.u64(static_cast<std::uint64_t>(rounds.front().round));
  out.u32(static_cast<std::uint32_t>(rounds.size()));
  out.raw(stored.data(), stored.size());
  const std::uint32_t crc = crc32(out.buffer().data(), out.buffer().size());
  out.u32(crc);
  return out.take();
}

/// Outcome of scanning one v2 block slot. kTruncated = the remaining
/// bytes cannot hold one framed block (killed-writer tail: stop the
/// scan). kCorrupt = the framing parses but the CRC disagrees (bit rot:
/// `next_pos` points past the claimed frame so a tolerant reader can skip
/// the slot and continue).
enum class BlockParse { kOk, kTruncated, kCorrupt };

/// Parses one v2 block at `pos`, appending its rounds to `out` (untouched
/// unless the result is kOk).
BlockParse parse_block(const std::string& data, std::size_t pos,
                       std::size_t& next_pos, std::vector<RoundEvents>& out,
                       const std::string& context) {
  if (data.size() - pos < kBlockHeaderSize + 4) return BlockParse::kTruncated;
  const std::uint8_t codec =
      static_cast<std::uint8_t>(static_cast<unsigned char>(data[pos]));
  const std::uint32_t raw_size = read_le32(data.data() + pos + 1);
  const std::uint32_t stored_size = read_le32(data.data() + pos + 5);
  const std::uint64_t first_round = read_le64(data.data() + pos + 9);
  const std::uint32_t round_count = read_le32(data.data() + pos + 17);
  const std::size_t framed = kBlockHeaderSize + stored_size;
  if (data.size() - pos < framed + 4) return BlockParse::kTruncated;
  const std::uint32_t stored_crc = read_le32(data.data() + pos + framed);
  if (stored_crc != crc32(data.data() + pos, framed)) {
    // If the size field itself is what rotted, this skip lands on garbage
    // — but framed > 0 guarantees forward progress, and every subsequent
    // misparse is just another counted corrupt/truncated slot.
    next_pos = pos + framed + 4;
    return BlockParse::kCorrupt;
  }

  // Past the CRC the block is known-intact: structural violations from
  // here on are real corruption (or a format bug) and throw.
  const std::string raw = decode_block(
      codec,
      std::string_view(data).substr(pos + kBlockHeaderSize, stored_size),
      raw_size, context);
  BinReader in(raw, context);
  // Decode straight into `out`, referencing the previous round by index —
  // no per-round copy of the delta context (this runs over every block of
  // a possibly million-round log on each read/resume).
  const std::size_t base_index = out.size();
  static const std::vector<Migration> kNoMoves;
  for (std::uint32_t i = 0; i < round_count; ++i) {
    RoundEvents events;
    events.round = static_cast<std::int64_t>(first_round + i);
    const std::uint64_t move_count = in.vu64();
    // Each move is three varints of at least one byte: a count the rest
    // of the block cannot hold is corruption, refused before the resize.
    if (move_count > kMaxMovesPerRound || move_count > in.remaining() / 3) {
      in.fail("absurd move count");
    }
    events.moves.resize(static_cast<std::size_t>(move_count));
    const std::vector<Migration>& prev =
        i == 0 ? kNoMoves : out[base_index + i - 1].moves;
    for (std::size_t j = 0; j < events.moves.size(); ++j) {
      const Migration base = j < prev.size() ? prev[j] : Migration{0, 0, 0};
      events.moves[j].from =
          static_cast<std::int32_t>(base.from + in.vi64());
      events.moves[j].to = static_cast<std::int32_t>(base.to + in.vi64());
      events.moves[j].count = base.count + in.vi64();
    }
    out.push_back(std::move(events));
  }
  in.expect_done();
  next_pos = pos + framed + 4;
  return BlockParse::kOk;
}

/// Rotated segments carry the chain's running totals in their header, so
/// a resume never has to decompress immutable history: `prior_v1_bytes`
/// is the v1-equivalent size of every earlier segment's rounds (0 for a
/// fresh, chainless log) and `prior_end_round` is the round the previous
/// segment ended before (0 = no prior chain).
std::string encode_v2_header(const EventLogOptions& options,
                             std::uint64_t prior_v1_bytes,
                             std::int64_t prior_end_round) {
  BinWriter params;
  params.u32(static_cast<std::uint32_t>(options.block_rounds));
  params.u64(prior_v1_bytes);
  params.u64(static_cast<std::uint64_t>(prior_end_round));
  BinWriter sections;
  write_section(sections, kElogSecParams, params.buffer());
  BinWriter header;
  header.raw(kEventLogMagic, 7);
  header.u8(kEventLogVersion);
  header.u32(static_cast<std::uint32_t>(sections.buffer().size()));
  header.raw(sections.buffer().data(), sections.buffer().size());
  return header.take();
}

struct V2Header {
  std::size_t size = 0;           // bytes up to the first block
  std::int64_t block_rounds = 0;  // 0 when the params section is absent
  std::uint64_t prior_v1_bytes = 0;
  std::int64_t prior_end_round = 0;  // 0 = no rotated chain before this
};

V2Header parse_v2_header(const std::string& data, const std::string& path) {
  if (data.size() < kV1HeaderSize + 4) {
    throw persist_error(path + ": truncated event log header");
  }
  const std::uint32_t sections_len = read_le32(data.data() + kV1HeaderSize);
  if (data.size() - kV1HeaderSize - 4 < sections_len) {
    throw persist_error(path + ": event log header sections truncated");
  }
  V2Header header;
  header.size = kV1HeaderSize + 4 + sections_len;
  const SectionScan scan(
      std::string_view(data).substr(kV1HeaderSize + 4, sections_len), path);
  if (const auto params = scan.find(kElogSecParams)) {
    BinReader in(*params, path);
    header.block_rounds = static_cast<std::int64_t>(in.u32());
    // Field-granular forward compatibility: later writers may extend the
    // params section — read what we know, ignore the rest.
    if (in.remaining() >= 16) {
      header.prior_v1_bytes = in.u64();
      header.prior_end_round = static_cast<std::int64_t>(in.u64());
    }
  }
  return header;
}

std::uint8_t sniff_version(const std::string& data, const std::string& path) {
  if (data.size() < kV1HeaderSize ||
      data.compare(0, 7, kEventLogMagic) != 0) {
    throw persist_error(path + ": not a CIDELOG event log");
  }
  const auto version =
      static_cast<std::uint8_t>(static_cast<unsigned char>(data[7]));
  if (version < 1) {
    throw persist_error(path + ": bad event log version 0");
  }
  // Versions newer than ours are still readable as long as the block
  // framing parses — the TLV header carries anything they add.
  return version;
}

}  // namespace

namespace {

/// read_event_log, also returning the v2 header (left default for v1).
EventLog read_log(const std::string& path, V2Header& header) {
  const std::string data = slurp_file(path);
  EventLog log;
  log.version = sniff_version(data, path);
  log.file_bytes = data.size();
  std::size_t pos = kV1HeaderSize;
  if (log.version >= 2) {
    header = parse_v2_header(data, path);
    pos = header.size;
  }

  while (pos < data.size()) {
    std::size_t next_pos = pos;
    if (log.version == 1) {
      RoundEvents events;
      if (!parse_v1_record(data, pos, next_pos, events)) {
        log.truncated_tail = true;
        break;
      }
      log.rounds.push_back(std::move(events));
    } else {
      const BlockParse parsed = parse_block(data, pos, next_pos, log.rounds,
                                            path + ": event log block");
      if (parsed == BlockParse::kTruncated) {
        log.truncated_tail = true;
        break;
      }
      if (parsed == BlockParse::kCorrupt) {
        ++log.corrupt_blocks;
        pos = next_pos;
        continue;
      }
    }
    pos = next_pos;
  }
  if (log.corrupt_blocks > 0) {
    std::fprintf(stderr,
                 "cid: event log '%s' is damaged: %zu corrupt block(s) "
                 "skipped — %zu intact round(s) recovered (replay across "
                 "the gap will fail)\n",
                 path.c_str(), log.corrupt_blocks, log.rounds.size());
  }
  for (const RoundEvents& events : log.rounds) {
    log.v1_equivalent_bytes += v1_record_bytes(events.moves.size());
  }
  log.v1_equivalent_bytes += kV1HeaderSize;
  return log;
}

}  // namespace

EventLog read_event_log(const std::string& path) {
  V2Header header;
  return read_log(path, header);
}

EventLog read_event_log_series(const std::string& path) {
  EventLog merged;
  // Chain continuity: a segment's header carries the totals of every
  // segment before it (round they end before, v1-equivalent bytes), so a
  // missing, swapped, foreign or re-totalled segment disagrees with what
  // the chain read so far adds up to. While that history read intact the
  // header must equal it; after a skipped or damaged segment (corrupt
  // blocks, torn tail), whose gap is already reported, it can only be
  // ahead of it, and the check resumes from the header's own totals.
  bool first = true;   // no segment before this one, read or skipped
  bool intact = true;  // next_round and v1_bytes are exact
  std::size_t skipped = 0;
  std::int64_t next_round = 0;
  std::uint64_t v1_bytes = kV1HeaderSize;
  std::string broken;
  walk_chain(path, "event log", merged.corrupt_segments,
             [&](const std::string& segment) {
               V2Header header;
               EventLog log = read_log(segment, header);
               if (merged.corrupt_segments.size() != skipped) {
                 skipped = merged.corrupt_segments.size();
                 first = false;
                 intact = false;
               }
               if (log.version >= 2 && broken.empty()) {
                 const bool fits =
                     first ? header.prior_end_round == 0 &&
                                 header.prior_v1_bytes == 0
                     : intact ? header.prior_end_round == next_round &&
                                    header.prior_v1_bytes == v1_bytes
                              : header.prior_end_round >= next_round &&
                                    header.prior_v1_bytes >= v1_bytes;
                 if (!fits) {
                   broken = segment +
                            ": event log segment does not continue the "
                            "chain (its header says the segments before "
                            "it end at round " +
                            std::to_string(header.prior_end_round) +
                            ", they read to round " +
                            std::to_string(next_round) + ")";
                 }
                 if (!first) {
                   next_round = header.prior_end_round;
                   v1_bytes = header.prior_v1_bytes;
                 }
               }
               first = false;
               intact = log.corrupt_blocks == 0 && !log.truncated_tail;
               if (!log.rounds.empty()) {
                 next_round = log.rounds.back().round + 1;
               }
               v1_bytes += log.v1_equivalent_bytes - kV1HeaderSize;
               merged.version = log.version;
               merged.truncated_tail =
                   merged.truncated_tail || log.truncated_tail;
               merged.file_bytes += log.file_bytes;
               merged.v1_equivalent_bytes += log.v1_equivalent_bytes;
               merged.corrupt_blocks += log.corrupt_blocks;
               for (RoundEvents& events : log.rounds) {
                 merged.rounds.push_back(std::move(events));
               }
             });
  if (!broken.empty()) throw persist_error(broken);
  return merged;
}

EventLogWriter::EventLogWriter(AppendFile file, EventLogOptions options)
    : file_(std::move(file)), options_(options) {}

void EventLogWriter::close_quietly() noexcept {
  // Best effort: persist the partial block, then close. Errors are
  // swallowed (this runs from the destructor, where throwing is not an
  // option); close() is the reporting path.
  std::string block;
  if (!pending_.empty()) {
    try {
      block = frame_block(pending_);
    } catch (...) {
      // Unencodable pending block (allocation failure, >4 GiB): the tail
      // is lost, exactly as a hard kill would lose it.
    }
  }
  file_.close_quietly(block);
}

EventLogWriter::~EventLogWriter() { close_quietly(); }

EventLogWriter EventLogWriter::create(const std::string& path,
                                      const EventLogOptions& options) {
  if (options.block_rounds < 1) {
    throw persist_error(path + ": event log block_rounds must be >= 1");
  }
  EventLogWriter writer(AppendFile::create(path, kEventLogFile), options);
  writer.v1_equivalent_bytes_ = kV1HeaderSize;
  writer.file_.write(encode_v2_header(options, 0, 0),
                     kEventLogFile.header_site);
  writer.file_.flush();
  return writer;
}

EventLogWriter EventLogWriter::open_for_append(const std::string& path,
                                               std::int64_t next_round,
                                               const EventLogOptions& options) {
  const std::string data = slurp_file(path);
  if (sniff_version(data, path) < 2) {
    // v1 logs come from runs no snapshot of this build resumes, and the
    // fixed-width v1 writer is gone: they stay readable, never appendable.
    throw persist_error(path +
                        ": CIDELOG v1 event logs are read-only — start a "
                        "fresh log to record a new run");
  }

  EventLogOptions effective = options;
  const V2Header header = parse_v2_header(data, path);
  if (header.block_rounds >= 1) {
    // The file's own block cadence wins: mixed cadences would make the
    // resumed framing diverge from the uninterrupted run's.
    effective.block_rounds = header.block_rounds;
  }
  if (effective.block_rounds < 1) effective.block_rounds = 256;

  std::size_t keep = header.size;
  std::vector<RoundEvents> rebuffer;
  std::int64_t last_retained = -1;
  bool any_retained = false;
  std::int64_t first_round_in_file = -1;
  std::uint64_t retained_v1_bytes = 0;

  std::size_t pos = header.size;
  while (pos < data.size()) {
    std::vector<RoundEvents> block;
    std::size_t next_pos = pos;
    // Anything that is not an intact block — truncated tail OR bit rot —
    // ends the intact prefix; the resume truncates it away and rewrites,
    // keeping the resumed file byte-identical to an uninterrupted run.
    if (parse_block(data, pos, next_pos, block,
                    path + ": event log block") != BlockParse::kOk) {
      break;
    }
    if (block.empty()) break;  // defensive: zero-round blocks end scan
    if (first_round_in_file < 0) first_round_in_file = block.front().round;
    const std::int64_t block_end = block.back().round + 1;
    const bool complete = block_end % effective.block_rounds == 0;
    if (complete && block_end <= next_round) {
      keep = next_pos;
      last_retained = block.back().round;
      any_retained = true;
      for (const RoundEvents& events : block) {
        retained_v1_bytes += v1_record_bytes(events.moves.size());
      }
      pos = next_pos;
      continue;
    }
    // Boundary-spanning or partial tail block: re-buffer the rounds the
    // resume keeps so the next flush reproduces the uninterrupted run's
    // framing, then stop (everything beyond is dropped).
    for (RoundEvents& events : block) {
      if (events.round >= next_round) break;
      last_retained = events.round;
      any_retained = true;
      retained_v1_bytes += v1_record_bytes(events.moves.size());
      rebuffer.push_back(std::move(events));
    }
    break;
  }

  // Rotated-chain bookkeeping: segment sizes and round range feed the
  // observability counters AND the cross-segment resume guards (an active
  // segment that is still header-only after a rotation would otherwise
  // skip both checks below and silently duplicate the chain's rounds).
  // Immutable history is never decompressed here: the active header
  // carries the chain totals and disk sizes come from stat.
  const std::vector<std::string> segments = chain_segments(path);
  std::uint64_t rotated_disk_bytes = 0;
  for (const std::string& segment : segments) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(segment, ec);
    if (!ec) rotated_disk_bytes += size;
  }
  const std::int64_t chain_last_round =
      segments.empty() ? -1 : header.prior_end_round - 1;

  if (first_round_in_file >= 0 && first_round_in_file > next_round) {
    throw persist_error(
        path + ": resume round " + std::to_string(next_round) +
        " predates this log segment (first recorded round is " +
        std::to_string(first_round_in_file) +
        "); rotated segments are immutable");
  }
  if (first_round_in_file < 0 && chain_last_round >= 0) {
    // Active segment holds no rounds yet; the chain's rotated segments
    // define the continuation point instead.
    if (next_round <= chain_last_round) {
      throw persist_error(
          path + ": resume round " + std::to_string(next_round) +
          " lands inside a rotated segment (chain ends at round " +
          std::to_string(chain_last_round) +
          "); rotated segments are immutable");
    }
    if (next_round > chain_last_round + 1) {
      throw persist_error(
          path + ": rotated chain ends at round " +
          std::to_string(chain_last_round) +
          " but the resume starts at round " + std::to_string(next_round) +
          " — refusing to leave a gap");
    }
  }
  if (any_retained && last_retained + 1 < next_round) {
    throw persist_error(
        path + ": event log ends at round " + std::to_string(last_retained) +
        " but the resume starts at round " + std::to_string(next_round) +
        " — refusing to leave a gap (a kill loses the open block: "
        "checkpoint at multiples of block_rounds)");
  }
  if (!any_retained && first_round_in_file < 0 && chain_last_round < 0 &&
      next_round > 0) {
    // Nothing anywhere proves rounds [0, next_round) exist: the log is
    // empty or its first block is damaged. Appending would leave a
    // permanent hole in the replay record — delete the file to start a
    // fresh log instead.
    throw persist_error(
        path + ": log holds no intact rounds before resume round " +
        std::to_string(next_round) +
        " — refusing to leave a gap (delete the log to restart it)");
  }

  EventLogWriter writer(AppendFile::open(path, kEventLogFile, keep),
                        effective);
  writer.next_expected_ = next_round;
  writer.pending_ = std::move(rebuffer);
  writer.rotated_disk_bytes_ = rotated_disk_bytes;
  // Chain totals already include the one-header base; otherwise add it.
  writer.v1_equivalent_bytes_ =
      (segments.empty() ? kV1HeaderSize : header.prior_v1_bytes) +
      retained_v1_bytes;
  return writer;
}

void EventLogWriter::append(std::int64_t round,
                            std::span<const Migration> moves) {
  if (next_expected_ >= 0 && round != next_expected_) {
    throw persist_error(file_.path() +
                        ": event log rounds must be gapless (got " +
                        std::to_string(round) + ", expected " +
                        std::to_string(next_expected_) + ")");
  }
  next_expected_ = round + 1;
  v1_equivalent_bytes_ += v1_record_bytes(moves.size());
  RoundEvents events;
  events.round = round;
  events.moves.assign(moves.begin(), moves.end());
  pending_.push_back(std::move(events));
  // Deterministic boundary: a pure function of the round number, so kill
  // and resume cannot perturb the block framing.
  if ((round + 1) % options_.block_rounds == 0) flush_block();
}

void EventLogWriter::flush_block() {
  if (pending_.empty()) return;
  // Every completed block reaches the OS at its boundary, so a kill
  // loses at most the open block.
  file_.write(frame_block(pending_), "eventlog.block");
  file_.flush();
  pending_.clear();
  // The fresh segment's header carries the chain's running totals so a
  // later resume never decodes the immutable history (open_for_append).
  const std::uint64_t active_bytes = file_.bytes();
  if (file_.rotate(options_.rotate_bytes,
                   encode_v2_header(options_, v1_equivalent_bytes_,
                                    next_expected_))) {
    rotated_disk_bytes_ += active_bytes;
  }
}

void EventLogWriter::close() {
  if (!pending_.empty()) flush_block();
  file_.close();
}

RoundObserver EventLogWriter::observer() {
  return [this](const CongestionGame&, const State&,
                std::span<const Migration> moves, std::int64_t round,
                bool final) {
    if (!final) append(round, moves);
  };
}

std::int64_t replay_rounds(const CongestionGame& game, State& x,
                           std::span<const RoundEvents> log,
                           std::int64_t from_round, std::int64_t to_round) {
  std::int64_t applied = 0;
  for (const RoundEvents& events : log) {
    if (events.round < from_round) continue;
    if (events.round >= to_round) break;
    if (events.round != from_round + applied) {
      throw persist_error("event log round " + std::to_string(events.round) +
                          " breaks gapless ordering (expected " +
                          std::to_string(from_round + applied) + ")");
    }
    x.apply(game, events.moves);
    ++applied;
  }
  return applied;
}

}  // namespace cid::persist
