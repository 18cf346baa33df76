// Append-only round event log.
//
// One record per simulation round, holding that round's aggregated
// Migration list (drawn against the pre-round state — exactly what the
// RoundObserver contract delivers). A snapshot plus the event log from its
// round onward reconstructs any later state by pure replay, with zero RNG
// draws; the log alone (from round 0) is a complete, compact audit trail
// of a run.
//
// Format v2 — the one format the writer emits — delta-encoded,
// block-compressed:
//
//   magic "CIDELOG" version:u8=2
//   header_len:u32 header_sections[header_len]      (TLV, binio.hpp; tag 1
//                                                    = params: block_rounds)
//   block*: codec:u8 raw_size:u32 stored_size:u32
//           first_round:u64 round_count:u32
//           stored[stored_size] crc32(block header + stored):u32
//
// Inside a block (before compression) each round is `move_count:vu64` then
// per move zigzag varints of the (from, to, count) DELTAS against the same
// move index of the previous round (absent moves delta against zero; the
// context resets at each block boundary so blocks decode independently).
// Steady-state rounds — no movers, or the same few cohorts shuffling — thus
// cost a byte or two before the LZ pass (persist/block.hpp) collapses the
// repetition; long runs shrink well over 5x against the v1 encoding.
//
// Blocks are flushed at DETERMINISTIC round boundaries ((round + 1) %
// block_rounds == 0), never at kill points, so a resumed file is
// byte-identical to the one an uninterrupted run would have written
// (tests/test_resume.cpp): open_for_append re-buffers the partial tail
// block and re-compresses it later with exactly the content the
// uninterrupted run would have used.
//
// Format v1 is still read (fixtures, cid_replay inspect) but never written
// or appended to — open_for_append refuses it with persist_error. It is one
// independently-checksummed fixed-width record per round, and its size is
// the "uncompressed-equivalent" baseline the byte counters report:
//
//   magic "CIDELOG" version:u8=1
//   record*: round:u64 move_count:u32 (from:i32 to:i32 count:i64)*
//            crc32(record payload):u32
//
// Both versions survive the one corruption mode an append-only file
// actually has — a truncated tail from a killed writer: per-record CRCs
// (v1) or per-block CRCs (v2) let the reader drop the damaged tail, and
// open_for_append truncates a v2 log back to its last intact prefix.
// Beyond that, the v2 READ path also tolerates bit rot: a CRC-bad block whose framing
// still parses is skipped (counted in EventLog::corrupt_blocks, reported
// on stderr) and the scan continues at the next block — replay across the
// resulting round gap still fails loudly, but inspection and partial
// recovery keep working. An unreadable ROTATED segment of a chain is
// skipped whole (EventLog::corrupt_segments); the active segment stays
// fatal (the chain walk is walk_chain, shared with the manifest). The
// writer keeps only the format; its bytes reach disk through AppendFile
// (binio.hpp), which retries transient write failures by truncating torn
// bytes and rewriting (fault sites "eventlog.block" / "eventlog.header" /
// "eventlog.flush") and degrades a failed rotation to unrotated output
// instead of aborting. Every completed block is flushed to the OS at its
// boundary, so a kill loses at most the open block.
//
// Rotation (EventLogOptions::rotate_bytes): once the active file exceeds
// the limit at a block boundary it is renamed to "<path>.<seq>" and a
// fresh segment continues at "<path>"; read_event_log_series() reads the
// whole chain back in order. Segments are immutable once rotated —
// resuming at a round that predates the active segment fails loudly, and
// each segment's header carries the chain's running totals so a resume
// never decompresses the immutable history. Rotation points are
// byte-size-driven (a graceful close flushes a partial block), so for
// ROTATED chains the kill/resume guarantee is decoded-content identity
// (replay reconstructs the same states), not framing-level byte
// identity; single-file logs keep the byte-identical guarantee above.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dynamics/engine.hpp"
#include "game/state.hpp"
#include "persist/binio.hpp"

namespace cid::persist {

inline constexpr char kEventLogMagic[] = "CIDELOG";
inline constexpr std::uint8_t kEventLogVersion = 2;

struct RoundEvents {
  std::int64_t round = 0;
  std::vector<Migration> moves;
};

struct EventLog {
  std::uint8_t version = 0;
  std::vector<RoundEvents> rounds;
  /// True when the file ended in a partial or corrupt record/block (the
  /// intact prefix is still returned — a killed writer is an expected
  /// condition).
  bool truncated_tail = false;
  /// Bytes the log occupies on disk, and the bytes the same rounds would
  /// occupy in the fixed-width v1 encoding — the compression observability
  /// pair cid_replay reports (for a v1 file the two are equal).
  std::uint64_t file_bytes = 0;
  std::uint64_t v1_equivalent_bytes = 0;
  /// CRC-bad v2 blocks skipped mid-file (their rounds are missing from
  /// `rounds`; replay across the gap fails loudly).
  std::size_t corrupt_blocks = 0;
  /// Rotated segments skipped whole (unreadable header / wrong magic).
  std::vector<std::string> corrupt_segments;
};

struct EventLogOptions {
  /// Rounds per block. Larger blocks compress better but buffer more
  /// in memory and lose more tail on a hard kill: each completed block
  /// reaches the OS at its boundary, the open one only at close.
  std::int64_t block_rounds = 256;
  /// When > 0, rotate the active file to "<path>.<seq>" once it exceeds
  /// this many bytes (checked at block granularity). 0 = off.
  std::uint64_t rotate_bytes = 0;
};

/// Reads and validates a whole log (either version). Throws persist_error
/// on a missing file or bad header; a damaged tail sets truncated_tail
/// instead of throwing.
EventLog read_event_log(const std::string& path);

/// Reads a rotated chain: "<path>.1", "<path>.2", ..., then "<path>"
/// itself, concatenated in that order (a plain un-rotated log degenerates
/// to just "<path>"). Byte counters are summed; version/truncated_tail
/// come from the active segment.
EventLog read_event_log_series(const std::string& path);

/// Streaming writer. All write errors throw persist_error naming the path.
class EventLogWriter {
 public:
  /// Creates (truncating) a fresh log.
  static EventLogWriter create(const std::string& path,
                               const EventLogOptions& options = {});

  /// Opens an existing v2 log to continue at `next_round`: validates the
  /// header, scans blocks, truncates the file after the last intact data
  /// below `next_round` (dropping any tail a killed writer left beyond the
  /// snapshot being resumed from), and re-buffers a partial tail block so
  /// future boundaries stay deterministic. The file must already exist; a
  /// v1 log, or a log that ends more than zero rounds BEFORE `next_round`,
  /// throws persist_error and is left untouched (resuming over a gap would
  /// corrupt replay).
  static EventLogWriter open_for_append(const std::string& path,
                                        std::int64_t next_round,
                                        const EventLogOptions& options = {});

  EventLogWriter(EventLogWriter&& other) noexcept = default;
  ~EventLogWriter();

  /// Appends one round record. Rounds must be appended gaplessly in
  /// increasing order (enforced since v2); empty rounds (no movers) are
  /// recorded too, so round numbering in the log is gapless and replay
  /// needs no bookkeeping. A round that completes a block writes and
  /// flushes it (fault sites "eventlog.block"/"eventlog.flush").
  void append(std::int64_t round, std::span<const Migration> moves);

  /// Writes any partial block, flushes, and closes; throws on any pending
  /// stream error. The destructor closes too but swallows errors
  /// (destructors must not throw) — call close() explicitly where
  /// durability matters.
  void close();

  /// RoundObserver adapter: appends every non-final observer call (the
  /// final call is a sentinel carrying no moves). The writer must outlive
  /// the run.
  RoundObserver observer();

  /// Bytes written to the ACTIVE segment so far (flushed blocks only).
  std::uint64_t bytes_written() const noexcept { return file_.bytes(); }

  /// On-disk bytes across the whole rotation chain (rotated segments plus
  /// the active one). Valid after close() too — the summary lines of the
  /// tools read these counters instead of re-reading the files.
  std::uint64_t disk_bytes() const noexcept {
    return rotated_disk_bytes_ + file_.bytes();
  }

  /// What the chain's rounds would occupy in the fixed-width v1 encoding
  /// (the uncompressed baseline). Initialized from retained content on
  /// open_for_append, then maintained per append.
  std::uint64_t v1_equivalent_bytes() const noexcept {
    return v1_equivalent_bytes_;
  }

 private:
  EventLogWriter(AppendFile file, EventLogOptions options);

  void flush_block();
  /// Best-effort pending-block write + close for the destructor (never
  /// throws; close() is the reporting path).
  void close_quietly() noexcept;

  AppendFile file_;
  EventLogOptions options_;
  std::uint64_t rotated_disk_bytes_ = 0;
  std::uint64_t v1_equivalent_bytes_ = 0;
  std::int64_t next_expected_ = -1;  // -1 = first append sets the base
  std::vector<RoundEvents> pending_;  // rounds of the open block
};

/// Replays `log` rounds in [from_round, to_round) onto `x` (mutating it),
/// validating gapless round numbering against the log contents. Pure
/// application of recorded migrations: no RNG is involved, by construction.
/// Returns the number of rounds applied.
std::int64_t replay_rounds(const CongestionGame& game, State& x,
                           std::span<const RoundEvents> log,
                           std::int64_t from_round, std::int64_t to_round);

}  // namespace cid::persist
