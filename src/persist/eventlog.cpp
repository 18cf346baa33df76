#include "persist/eventlog.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "persist/binio.hpp"
#include "persist/block.hpp"
#include "util/fault.hpp"

namespace cid::persist {

namespace {

constexpr std::size_t kV1HeaderSize = 7 + 1;  // magic + version
// codec:u8 raw:u32 stored:u32 first_round:u64 round_count:u32
constexpr std::size_t kBlockHeaderSize = 1 + 4 + 4 + 8 + 4;
constexpr std::uint16_t kElogSecParams = 1;
constexpr std::uint32_t kMaxMovesPerRound = 1u << 26;

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
    if (move_count > kMaxMovesPerRound) in.fail("absurd move count");
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

EventLog read_event_log(const std::string& path) {
  const std::string data = slurp_file(path);
  EventLog log;
  log.version = sniff_version(data, path);
  log.file_bytes = data.size();
  std::size_t pos = kV1HeaderSize;
  if (log.version >= 2) pos = parse_v2_header(data, path).size;

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

EventLog read_event_log_series(const std::string& path) {
  std::vector<std::string> segments = chain_segments(path);
  segments.push_back(path);

  EventLog merged;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EventLog log;
    try {
      log = read_event_log(segments[i]);
    } catch (const persist_error& e) {
      // An unreadable ROTATED segment is skipped (its rounds are gone but
      // the rest of the chain still reads); the active segment stays
      // fatal — there is nothing newer to fall back to.
      if (i + 1 == segments.size()) throw;
      std::fprintf(stderr,
                   "cid: skipping corrupt event log segment '%s': %s\n",
                   segments[i].c_str(), e.what());
      merged.corrupt_segments.push_back(segments[i]);
      continue;
    }
    merged.version = log.version;
    merged.truncated_tail = merged.truncated_tail || log.truncated_tail;
    merged.file_bytes += log.file_bytes;
    merged.v1_equivalent_bytes += log.v1_equivalent_bytes;
    merged.corrupt_blocks += log.corrupt_blocks;
    for (RoundEvents& events : log.rounds) {
      merged.rounds.push_back(std::move(events));
    }
  }
  return merged;
}

EventLogWriter::EventLogWriter(std::string path, std::FILE* file,
                               EventLogOptions options)
    : path_(std::move(path)), file_(file), options_(options) {}

EventLogWriter::EventLogWriter(EventLogWriter&& other) noexcept
    : path_(std::move(other.path_)),
      file_(std::exchange(other.file_, nullptr)),
      options_(other.options_),
      bytes_written_(other.bytes_written_),
      rotated_disk_bytes_(other.rotated_disk_bytes_),
      v1_equivalent_bytes_(other.v1_equivalent_bytes_),
      next_expected_(other.next_expected_),
      pending_(std::move(other.pending_)),
      rotate_seq_(other.rotate_seq_) {}

EventLogWriter& EventLogWriter::operator=(EventLogWriter&& other) noexcept {
  if (this != &other) {
    close_quietly();  // preserves a buffered partial block, like the dtor
    path_ = std::move(other.path_);
    file_ = std::exchange(other.file_, nullptr);
    options_ = other.options_;
    bytes_written_ = other.bytes_written_;
    rotated_disk_bytes_ = other.rotated_disk_bytes_;
    v1_equivalent_bytes_ = other.v1_equivalent_bytes_;
    next_expected_ = other.next_expected_;
    pending_ = std::move(other.pending_);
    rotate_seq_ = other.rotate_seq_;
  }
  return *this;
}

void EventLogWriter::close_quietly() noexcept {
  // Best effort: persist the partial block, then close. Errors are
  // swallowed (this runs from the destructor and move-assignment, where
  // throwing is not an option); close() is the reporting path.
  if (file_ == nullptr) return;
  if (!pending_.empty()) {
    try {
      const std::string block = frame_block(pending_);
      std::fwrite(block.data(), 1, block.size(), file_);
    } catch (...) {
      // Unencodable pending block (allocation failure, >4 GiB): the tail
      // is lost, exactly as a hard kill would lose it.
    }
  }
  std::fclose(file_);
  file_ = nullptr;
}

EventLogWriter::~EventLogWriter() { close_quietly(); }

void EventLogWriter::check(bool ok, const char* what) const {
  if (!ok) {
    throw persist_error(path_ + ": event log " + what + " failed");
  }
}

void EventLogWriter::recover_file() {
  if (file_ != nullptr) {
    std::fclose(file_);  // flushes what it can; the size check judges it
    file_ = nullptr;
  }
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path_, ec);
  if (ec) {
    throw persist_error(path_ + ": event log recovery failed: " +
                        ec.message());
  }
  if (size < bytes_written_) {
    throw persist_error(path_ + ": event log lost durable bytes (file holds " +
                        std::to_string(size) + ", writer acknowledged " +
                        std::to_string(bytes_written_) +
                        ") — durability lost, not retrying");
  }
  if (size > bytes_written_) {
    std::filesystem::resize_file(path_, bytes_written_, ec);
    if (ec) {
      throw persist_error(path_ + ": cannot drop torn event log bytes: " +
                          ec.message());
    }
  }
  std::FILE* file = std::fopen(path_.c_str(), "ab");
  if (file == nullptr) {
    throw persist_error("cannot reopen '" + path_ +
                        "' after event log write failure");
  }
  file_ = file;
}

void EventLogWriter::write_raw(const std::string& bytes, const char* site,
                               const char* what) {
  constexpr int kMaxWriteAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    try {
      check(file_ != nullptr, what);
      checked_fwrite(file_, bytes.data(), bytes.size(), site, path_);
      bytes_written_ += bytes.size();
      obs::record_persist_write(bytes.size(), /*fsyncs=*/0);
      return;
    } catch (const persist_error& e) {
      obs::record_persist_write_failure();
      if (attempt >= kMaxWriteAttempts) throw;
      obs::record_persist_write_retry();
      std::fprintf(stderr,
                   "cid: %s — recovering event log and retrying %s "
                   "(attempt %d/%d)\n",
                   e.what(), what, attempt + 1, kMaxWriteAttempts);
      recover_file();  // throws when durability is actually lost
    }
  }
}

EventLogWriter EventLogWriter::create(const std::string& path,
                                      const EventLogOptions& options) {
  if (options.block_rounds < 1) {
    throw persist_error(path + ": event log block_rounds must be >= 1");
  }
  // A fresh log owns its rotation chain: stale segments from an earlier
  // run at the same path would otherwise pollute read_event_log_series.
  remove_chain(path);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw persist_error("cannot open '" + path + "' for writing");
  }
  EventLogWriter writer(path, file, options);
  writer.v1_equivalent_bytes_ = kV1HeaderSize;
  writer.write_raw(encode_v2_header(options, 0, 0), "eventlog.header",
                   "header write");
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
  const std::uint32_t last_seq = static_cast<std::uint32_t>(segments.size());
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
        " — refusing to leave a gap (was the log written with a larger "
        "checkpoint cadence, or hard-killed with a block still buffered?)");
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

  std::error_code ec;
  std::filesystem::resize_file(path, keep, ec);
  if (ec) {
    throw persist_error(path + ": cannot truncate event log tail: " +
                        ec.message());
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    throw persist_error("cannot open '" + path + "' for appending");
  }
  EventLogWriter writer(path, file, effective);
  writer.bytes_written_ = keep;
  writer.next_expected_ = next_round;
  writer.pending_ = std::move(rebuffer);
  writer.rotate_seq_ = last_seq;
  writer.rotated_disk_bytes_ = rotated_disk_bytes;
  // Chain totals already include the one-header base; otherwise add it.
  writer.v1_equivalent_bytes_ =
      (segments.empty() ? kV1HeaderSize : header.prior_v1_bytes) +
      retained_v1_bytes;
  return writer;
}

void EventLogWriter::append(std::int64_t round,
                            std::span<const Migration> moves) {
  check(file_ != nullptr, "append after close");
  if (next_expected_ >= 0 && round != next_expected_) {
    throw persist_error(path_ + ": event log rounds must be gapless (got " +
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
  write_raw(frame_block(pending_), "eventlog.block", "block write");
  pending_.clear();
  maybe_rotate();
}

void EventLogWriter::maybe_rotate() {
  if (options_.rotate_bytes == 0 ||
      bytes_written_ < options_.rotate_bytes) {
    return;
  }
  obs::trace_instant("eventlog.rotate");
  bool renamed = false;
  try {
    const bool flushed = std::fflush(file_) == 0 && std::ferror(file_) == 0;
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    check(flushed && closed, "pre-rotation flush");
    obs::record_persist_flush();
    const std::string segment = chain_segment_path(path_, rotate_seq_ + 1);
    if (util::faults_armed() &&
        util::fault_point("eventlog.rotate").kind != util::FaultKind::kNone) {
      throw persist_error(path_ + ": injected event log rotation failure");
    }
    if (std::rename(path_.c_str(), segment.c_str()) != 0) {
      throw persist_error(path_ + ": cannot rotate event log to '" + segment +
                          "'");
    }
    renamed = true;
    fsync_parent_dir(path_);  // make the rename itself durable
    rotated_disk_bytes_ += bytes_written_;
    ++rotate_seq_;
    std::FILE* file = std::fopen(path_.c_str(), "wb");
    if (file == nullptr) {
      throw persist_error("cannot open '" + path_ +
                          "' for writing after rotation");
    }
    file_ = file;
    bytes_written_ = 0;
    // The fresh segment's header carries the chain's running totals so a
    // later resume never decodes the immutable history (open_for_append).
    write_raw(encode_v2_header(options_, v1_equivalent_bytes_, next_expected_),
              "eventlog.header", "post-rotation header write");
  } catch (const persist_error& e) {
    obs::record_persist_write_failure();
    if (renamed) {
      // The active file is already renamed away and the fresh segment
      // could not be established — nothing writable left to degrade to.
      throw;
    }
    // Graceful degradation: rotation bounds file sizes, it is not a
    // durability requirement. Validate/reopen the unrotated file, disable
    // further rotation, and say so loudly.
    options_.rotate_bytes = 0;
    if (file_ == nullptr) recover_file();
    std::fprintf(stderr,
                 "cid: %s — event log rotation disabled, continuing "
                 "unrotated\n",
                 e.what());
  }
}

void EventLogWriter::flush() {
  check(file_ != nullptr, "flush");
  try {
    checked_fflush(file_, "eventlog.flush", path_);
  } catch (const persist_error& e) {
    obs::record_persist_write_failure();
    obs::record_persist_write_retry();
    std::fprintf(stderr,
                 "cid: %s — reopening event log after flush failure\n",
                 e.what());
    // recover_file closes (flushing what the OS will take) and verifies
    // every acknowledged byte reached the file, or throws durability-lost.
    recover_file();
  }
  obs::record_persist_flush();
}

void EventLogWriter::close() {
  check(file_ != nullptr, "double close");
  if (!pending_.empty()) flush_block();
  const bool ok = std::fflush(file_) == 0 && std::ferror(file_) == 0;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  check(ok && closed, "close");
  obs::record_persist_flush();
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
