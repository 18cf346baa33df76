// Binary I/O primitives for the persistence subsystem.
//
// Every on-disk artifact in src/persist/ (snapshots, event logs, sweep
// manifests) is built from the same vocabulary: little-endian fixed-width
// integers, bit-exact doubles (IEEE-754 words, never decimal round trips),
// length-prefixed strings, and CRC-32 checksums. BinWriter serializes into
// an in-memory buffer; BinReader deserializes with hard bounds checks and
// throws persist_error on any structural violation, so a truncated or
// bit-flipped file can never be half-read into a live simulation.
//
// File framing (single-blob artifacts — snapshots; the streaming event log
// and manifest define their own record framing on top of these primitives):
//
//   magic[7] version:u8 payload_size:u64 payload[...] crc32(payload):u32
//
// write_file_atomic stages through "<path>.tmp" + rename, so a crash while
// checkpointing leaves the previous checkpoint intact — the property that
// makes overwrite-in-place checkpoint cadence safe.
//
// The append-only artifacts (event logs, manifests) reach disk through one
// AppendFile: its recovery, rotation and chain walk are the durability
// policy of both, and each writer keeps only its format.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cid::persist {

/// Version of the outcome semantics: what the bits of a recorded trial
/// outcome mean. Stamped into the grid fingerprint, the CIDMANI header and
/// the CIDSNAP config, so artifacts of another version never resume or
/// merge; readers still decode them.
///   1: Φ summed step by step in extended precision, trial streams replayed
///      split by split, δ-test on summed masses with a 1e-12 slack.
///   2: closed-form Φ (Faulhaber sums) with Neumaier sums in double, one
///      keyed split per trial stream, integer δ-test on player counts.
inline constexpr std::uint32_t kOutcomeSemantics = 2;

/// Thrown for any persistence failure: unopenable paths, short reads,
/// checksum mismatches, version skew, malformed payloads. The message
/// always names the offending path or field.
class persist_error : public std::runtime_error {
 public:
  explicit persist_error(const std::string& message)
      : std::runtime_error(message) {}
};

/// Thrown when an artifact belongs to a different sweep grid (manifest
/// fingerprint, dimension or outcome-semantics mismatch). A subclass so
/// corruption-tolerant chain readers can skip unreadable segments WITHOUT
/// ever swallowing a wrong-grid error — mixing grids is never tolerable.
class grid_mismatch_error : public persist_error {
 public:
  explicit grid_mismatch_error(const std::string& message)
      : persist_error(message) {}
};

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) over `size`
/// bytes, continuing from `seed` (pass the previous return value to
/// checksum a stream piecewise; start from 0).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0) noexcept;

/// Raw little-endian loads. The ONE place the byte order lives when
/// scanning record streams in place (BinReader uses them too); callers
/// must have bounds-checked `p` themselves.
std::uint32_t read_le32(const char* p) noexcept;
std::uint64_t read_le64(const char* p) noexcept;

/// Append-only little-endian serializer into an owned byte buffer.
class BinWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Bit-exact: the IEEE-754 word, not a decimal rendering.
  void f64(double v);
  /// LEB128 varint: 7 value bits per byte, high bit = continuation. The
  /// workhorse of the v2 event-log record encoding (round deltas and
  /// migration fields are tiny in steady state — one byte, not eight).
  void vu64(std::uint64_t v);
  /// Zigzag-mapped varint for signed deltas (small magnitudes of either
  /// sign stay one byte).
  void vi64(std::int64_t v);
  /// Length-prefixed (u32) byte string.
  void str(std::string_view s);
  void raw(const void* data, std::size_t size);

  const std::string& buffer() const noexcept { return buffer_; }
  std::string take() noexcept { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked little-endian deserializer over a borrowed buffer (which
/// must outlive the reader — a string_view so record slices of a larger
/// file can be parsed in place, without substr copies). Every read past
/// the end throws persist_error naming `context` (typically the file
/// path), so corruption surfaces as a diagnosable error, not UB.
class BinReader {
 public:
  BinReader(std::string_view buffer, std::string context)
      : buffer_(buffer), context_(std::move(context)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::uint64_t vu64();
  std::int64_t vi64();
  std::string str();
  /// The next `size` bytes, borrowed from the buffer.
  std::string_view bytes(std::size_t size);

  std::size_t remaining() const noexcept {
    return buffer_.size() - position_;
  }
  bool done() const noexcept { return remaining() == 0; }

  /// Asserts the payload was consumed exactly — catches payloads with
  /// trailing garbage that a field-by-field parse would silently ignore.
  void expect_done() const;

  [[noreturn]] void fail(const std::string& message) const;

 private:
  const void* take(std::size_t size);

  std::string_view buffer_;
  std::string context_;
  std::size_t position_ = 0;
};

// ---- TLV section framing (format v2+) ---------------------------------------
//
// Since v2, every artifact payload is a flat sequence of sections:
//
//   section*: tag:u16 length:u32 body[length]
//
// Readers locate the sections they understand by tag and SKIP unknown tags,
// so a v(N+1) writer can add sections without locking out v(N) readers —
// the schema-evolution policy that replaces v1's "refuse anything newer".
// Removing or renumbering an existing tag is still a breaking change and
// requires a major-version bump.

struct Section {
  std::uint16_t tag = 0;
  std::string_view body;  // borrowed from the scanned payload
};

/// Appends one TLV section to `out`. Bodies are limited to 4 GiB (u32
/// length); persist_error beyond that.
void write_section(BinWriter& out, std::uint16_t tag, std::string_view body);

/// Parses a whole payload as a TLV section sequence, eagerly and with hard
/// bounds checks (a truncated section throws persist_error naming
/// `context`). The payload must outlive the scan (bodies are views).
class SectionScan {
 public:
  SectionScan(std::string_view payload, std::string context);

  /// First section with `tag`, or nullopt when absent (the caller decides
  /// whether absence is an error — optional sections default).
  std::optional<std::string_view> find(std::uint16_t tag) const noexcept;

  /// Like find, but throws persist_error naming the missing section.
  std::string_view require(std::uint16_t tag, const char* name) const;

  const std::vector<Section>& sections() const noexcept { return sections_; }

 private:
  std::vector<Section> sections_;
  std::string context_;
};

/// Fault-aware fwrite: consults util::fault_point(site), then writes all
/// `size` bytes to `file`. Throws persist_error naming `path` on a real
/// short write / stream error or an injected fault. Injected short-write
/// faults put HALF the payload into the stream (and flush it) before
/// failing, so recovery paths are exercised against genuinely torn files.
/// The one integration point between the fault layer and every persist
/// writer — new writers should write through it.
void checked_fwrite(std::FILE* file, const void* data, std::size_t size,
                    const char* site, const std::string& path);

/// Fault-aware fflush: consults util::fault_point(site), then flushes.
/// Throws persist_error naming `path` on failure (real or injected).
void checked_fflush(std::FILE* file, const char* site,
                    const std::string& path);

/// Best-effort fsync of `path`'s parent directory — what makes a rename
/// or file creation itself durable, not just the file contents (a crashed
/// kernel journal can otherwise forget the directory entry). Returns true
/// when an fsync was issued (some filesystems refuse directory fsync).
bool fsync_parent_dir(const std::string& path) noexcept;

/// Replaces `path` with `bytes` via "<path>.tmp" + fsync + rename +
/// parent-directory fsync. The write consults fault site `write_site`; a
/// non-null `rename_site` is consulted just before the rename. Transient
/// failures (real or injected) are retried once with a fresh tmp file;
/// the rename is last, so the previous file survives every failure mode.
/// Throws persist_error (naming the path) when the retry fails too.
void write_bytes_atomic(const std::string& path, std::string_view bytes,
                        const char* write_site, const char* rename_site);

/// Frames magic+version+payload+crc and writes it with write_bytes_atomic
/// at sites "snapshot.write"/"snapshot.rename".
void write_file_atomic(const std::string& path, const std::string& magic,
                       std::uint8_t version, const std::string& payload);

struct FramedFile {
  std::uint8_t version = 0;
  std::string payload;
};

/// Accept-any-version sentinel for read_file_checked: TLV-era readers
/// (format v2+) tolerate newer versions by skipping unknown sections, so
/// they pass this instead of a hard ceiling.
inline constexpr std::uint8_t kAnyVersion = 0xFF;

/// Reads and validates a framed file: magic must match, version must be in
/// [1, max_version], size and CRC must agree. Pre-TLV formats pass their
/// own version as the ceiling (refuse-newer); TLV formats pass kAnyVersion
/// and branch on FramedFile::version themselves.
FramedFile read_file_checked(const std::string& path,
                             const std::string& magic,
                             std::uint8_t max_version);

/// Reads a whole file into memory; throws persist_error when unreadable.
std::string slurp_file(const std::string& path);

// ---- Rotation chains --------------------------------------------------------
//
// Rotating writers (event logs, manifests) rename the active file to
// "<path>.<seq>" segments, 1-based and contiguous; the active tail stays
// at "<path>". These helpers are the ONE place the naming scheme lives —
// writers, readers, and the tools' summaries all go through them.

/// Path of segment `seq` of `path`'s rotation chain.
std::string chain_segment_path(const std::string& path, std::uint32_t seq);

/// Existing rotated segments of `path`, in rotation order (oldest first).
/// Does not include the active file itself.
std::vector<std::string> chain_segments(const std::string& path);

/// Highest existing segment index; 0 when the chain is empty.
std::uint32_t chain_last_seq(const std::string& path);

/// Deletes every rotated segment of `path` (a freshly created artifact
/// owns its chain — stale segments would pollute later chain reads).
void remove_chain(const std::string& path);

/// Visits `path`'s chain in order: every rotated segment, then the active
/// file. A rotated segment whose visit throws persist_error is skipped
/// with one stderr line naming the `artifact` ("manifest", "event log")
/// and appended to `skipped`. The active segment's errors, and a
/// grid_mismatch_error from any segment, propagate.
void walk_chain(const std::string& path, const char* artifact,
                std::vector<std::string>& skipped,
                const std::function<void(const std::string&)>& visit);

/// The artifact an AppendFile writes, as data: its name for messages and
/// its fault sites (string literals — the rotate site doubles as the trace
/// instant's name).
struct AppendArtifact {
  const char* name;         // "manifest"
  const char* header_site;  // "manifest.header": a rotated segment's header
  const char* flush_site;   // "manifest.flush"
  const char* rotate_site;  // "manifest.rotate"
};

/// How the bytes of an append-only artifact reach disk. Every write and
/// flush is acknowledged only when it succeeded; a failure (real, or
/// injected at the caller's fault site) closes the file, truncates it back
/// to the acknowledged byte count, reopens it and retries, up to 3
/// attempts — so the recovered file is byte-identical to a fault-free
/// writer's. A file holding FEWER bytes than acknowledged means
/// durability is already lost: that throws persist_error instead.
/// util::fault_crash always propagates (a crash is a kill, not an error).
class AppendFile {
 public:
  /// Deletes any stale rotation chain of `path` and opens it empty.
  static AppendFile create(std::string path, AppendArtifact artifact);

  /// Truncates `path` to `intact_bytes` (the length the caller's scan
  /// found intact) and opens it for appending after its rotation chain.
  static AppendFile open(std::string path, AppendArtifact artifact,
                         std::uint64_t intact_bytes);

  AppendFile(AppendFile&& other) noexcept;
  AppendFile& operator=(AppendFile&& other) noexcept;
  ~AppendFile() { close_quietly(); }

  /// Appends `bytes`, consulting fault site `site`.
  void write(std::string_view bytes, const char* site);
  /// Hands buffered bytes to the OS (fault site: the artifact's flush).
  void flush();

  /// Once the active file holds at least `limit` bytes (0 = never),
  /// renames it to the next "<path>.<seq>", fsyncs the directory, and
  /// starts a fresh file with `header` (written at the header site),
  /// flushed. A failure before the rename degrades — rotation stays off
  /// for good, with a warning; after it, persist_error propagates (the
  /// chain on disk is ambiguous). Returns true when a rotation happened.
  bool rotate(std::uint64_t limit, std::string_view header);

  /// Flushes and closes; throws persist_error on any stream error.
  void close();

  /// Best-effort write of `tail`, then close, for destructors: no fault
  /// site, no retry, errors swallowed.
  void close_quietly(std::string_view tail = {}) noexcept;

  const std::string& path() const noexcept { return path_; }
  /// Acknowledged bytes of the active segment (valid after close too).
  std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  AppendFile(std::string path, AppendArtifact artifact, std::FILE* file);
  void check(bool ok, const char* what) const;
  /// Close, truncate back to bytes_, reopen for append.
  void recover();
  /// fflush + fclose; throws persist_error naming `what` on failure.
  void flush_and_close(const char* what);

  std::string path_;
  AppendArtifact artifact_;
  std::FILE* file_ = nullptr;
  std::uint64_t bytes_ = 0;
  std::uint32_t rotate_seq_ = 0;  // last segment index on disk
  bool rotation_off_ = false;
};

}  // namespace cid::persist
