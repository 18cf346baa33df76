// Resumable-sweep manifest.
//
// A sweep grid interrupted at cell 900/1000 must not restart from zero: as
// each trial completes, the runner appends one checksummed record of its
// (cell, trial) key and full TrialOutcome to the manifest; on restart the
// runner loads the manifest, fills those outcomes in directly, and runs
// only the missing trials. Because trial outcomes are a pure function of
// the grid (streams derive from master_seed by (cell, trial)), the merged
// result — and every per-trial output file written from it — is
// byte-identical to an uninterrupted run's, at any thread count
// (tests/test_sweep_resume.cpp proves both properties).
//
// The header binds the manifest to its grid with a fingerprint (a hash of
// every grid field that influences outcomes); resuming with a different
// grid fails loudly instead of stitching together incompatible results.
// Doubles in records are bit-exact IEEE words, never decimal renderings —
// byte-identity of resumed CSV/JSONL output depends on it.
//
// Format v2 header (TLV, binio.hpp — readers skip unknown sections):
//
//   magic "CIDMANI" version:u8=2 header_len:u32
//   section grid(1): fingerprint:u64 cells:u32 trials:u32
//   section semantics(2): outcome_semantics:u32 (absent => 1)
//
// Format v1 header (still read, never resumed or merged with today's
// outcomes — every v1 file predates the semantics stamp, so it is
// outcome semantics 1):
//
//   magic "CIDMANI" version:u8=1 fingerprint:u64 cells:u32 trials:u32
//
// The outcome-semantics version (kOutcomeSemantics, binio.hpp) is also
// folded into the grid fingerprint. Resuming, appending to, or merging a
// manifest of another version throws grid_mismatch_error: outcomes of two
// semantics never share one record set.
//
// Records (both versions; 45 bytes each, write_record / read_record —
// the serve protocol's `complete` carries the same bytes):
//
//   record*: cell:u32 trial:u32 rounds:f64 converged:u8 movers:i64
//            potential:f64 social_cost:f64 crc32(record payload):u32
//
// converged is 0 or 1; a CRC-valid record holding any other byte is
// refused like a record outside the grid.
//
// Append order is completion order (scheduling-dependent); the manifest is
// a set keyed by (cell, trial), so that nondeterminism never reaches the
// merged results. A damaged tail record (killed writer) is dropped on
// load, exactly like the event log.
//
// Corruption tolerance (load paths): a CRC-bad record SLOT mid-file is
// skipped (records are fixed-size, so the scan just advances one slot),
// and an unreadable ROTATED segment is skipped whole — both counted,
// reported loudly on stderr, and surfaced in ManifestContents so callers
// can refuse to proceed. Only the active segment and the grid fingerprint
// stay fatal: resuming without a readable active header, or against the
// wrong grid, must never silently stitch results together (the chain walk
// is walk_chain, shared with the event log). The writer keeps only the
// format; its bytes reach disk through AppendFile (binio.hpp), whose
// recovery truncates torn bytes and rewrites, so manifests stay
// byte-identical to a fault-free run's.
//
// Rotation (`rotate_bytes`): once the active file exceeds the limit it is
// renamed to "<path>.<seq>" and a fresh segment (with its own header)
// continues at "<path>". load_manifest merges the whole chain — segments
// of one sweep are disjoint by construction, and the (cell, trial) keying
// makes the merge order-insensitive. A failed rotation degrades to
// unrotated output (loudly) instead of aborting the sweep.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "persist/binio.hpp"
#include "sweep/runner.hpp"

namespace cid::persist {

inline constexpr char kManifestMagic[] = "CIDMANI";
inline constexpr std::uint8_t kManifestVersion = 2;

// ---- The trial record (disk and wire) ---------------------------------------

/// Bytes of one record: the fields, then the CRC-32 of the fields.
inline constexpr std::size_t kRecordFieldBytes = 4 + 4 + 8 + 1 + 8 + 8 + 8;
inline constexpr std::size_t kRecordBytes = kRecordFieldBytes + 4;

/// One trial record's fields.
struct Record {
  std::uint32_t cell = 0;
  std::uint32_t trial = 0;
  sweep::TrialOutcome outcome;
};

/// Appends the kRecordBytes of one record to `out`: what
/// ManifestWriter::append writes, and what a serve `complete` carries.
void write_record(BinWriter& out, std::uint32_t cell, std::uint32_t trial,
                  const sweep::TrialOutcome& outcome);

/// Decodes the record in `bytes` (exactly kRecordBytes long). Returns
/// nullopt when its CRC does not match (a bit-rotted slot); throws
/// persist_error naming `where` when the length is wrong or a CRC-valid
/// record's converged byte is neither 0 nor 1 (not bit rot: a foreign or
/// buggy writer).
std::optional<Record> read_record(std::string_view bytes,
                                  std::string_view where);

/// Hash of kOutcomeSemantics and every SweepGrid field that influences
/// trial outcomes (scenario name + params, protocol specs, ns, trials,
/// master seed, dynamics). Two grids with equal fingerprints produce
/// interchangeable trial results.
std::uint64_t grid_fingerprint(const sweep::SweepGrid& grid);

struct ManifestContents {
  std::uint64_t fingerprint = 0;
  std::uint32_t outcome_semantics = kOutcomeSemantics;
  std::uint32_t cells = 0;
  std::uint32_t trials_per_cell = 0;
  /// Completed trials keyed by (cell, trial).
  std::map<std::pair<std::uint32_t, std::uint32_t>, sweep::TrialOutcome>
      completed;
  /// Raw intact records parsed (>= completed.size(); duplicates collapse).
  std::size_t record_count = 0;
  bool truncated_tail = false;
  /// Bytes across every segment of the chain (observability).
  std::uint64_t file_bytes = 0;
  /// CRC-bad full-size record slots skipped during the scan.
  std::size_t corrupt_records = 0;
  /// Rotated segments skipped whole (unreadable header / wrong magic).
  std::vector<std::string> corrupt_segments;
};

/// Loads a manifest chain ("<path>.1", ..., then "<path>"); throws
/// persist_error on a missing active file or bad active header, and
/// grid_mismatch_error on a fingerprint/dimension mismatch against `grid`
/// in any segment. CRC-bad record slots and unreadable ROTATED segments
/// are skipped with a loud stderr report (see corrupt_records /
/// corrupt_segments) — a torn chain yields every intact trial instead of
/// nothing.
ManifestContents load_manifest(const std::string& path,
                               const sweep::SweepGrid& grid);

/// Like load_manifest, but grid-less: the ACTIVE segment's header is the
/// authority for fingerprint/cells/trials/semantics (rotated segments must
/// still match it). For tooling — cid_merge merges shards without
/// re-deriving the grid, and any version decodes.
ManifestContents load_manifest_raw(const std::string& path);

// ---- Shard merging (tools/cid_merge.cpp) ------------------------------------

struct MergeOptions {
  /// How many unreadable INPUTS (bad/missing active header) to tolerate
  /// before aborting the merge. Corruption inside a readable input is
  /// handled by load_manifest_raw's record/segment skipping instead.
  std::size_t max_corrupt_inputs = 1;
  /// When two inputs disagree on one (cell, trial) outcome: false (the
  /// default) aborts — identical duplicates are always fine — while true
  /// keeps the record of the EARLIER input in argument order.
  bool keep_first_on_conflict = false;
};

struct MergeReport {
  std::uint64_t fingerprint = 0;
  std::uint32_t outcome_semantics = kOutcomeSemantics;
  std::uint32_t cells = 0;
  std::uint32_t trials_per_cell = 0;
  /// The union of every input's completed trials, keyed by (cell, trial)
  /// — map order IS the canonical record order write_manifest_canonical
  /// emits.
  std::map<std::pair<std::uint32_t, std::uint32_t>, sweep::TrialOutcome>
      completed;
  std::size_t duplicate_records = 0;  // identical duplicates collapsed
  std::size_t conflicts = 0;          // differing duplicates (keep-first)
  std::size_t corrupt_records = 0;    // summed over inputs
  bool truncated_tail = false;
  std::vector<std::string> corrupt_inputs;    // skipped whole
  std::vector<std::string> corrupt_segments;  // summed over inputs
};

/// Merges manifest chains (shards of one sweep, or partial runs) into one
/// record set. All readable inputs must agree on fingerprint/cells/trials
/// (grid_mismatch_error otherwise — never tolerated; the fingerprint
/// covers the outcome semantics); up to `max_corrupt_inputs` unreadable
/// inputs are skipped loudly.
MergeReport merge_manifests(const std::vector<std::string>& inputs,
                            const MergeOptions& options = {});

/// Writes `report` as a single canonical v2 manifest: one segment, records
/// sorted by (cell, trial), written by write_bytes_atomic at fault site
/// "manifest.merge" (tmp + fsync + rename + parent fsync, one retry).
/// Canonical means reproducible: merging the same trials in any
/// input order/sharding yields byte-identical files — and equals a
/// threads=1 unsharded sweep's manifest, whose completion order is already
/// (cell, trial). Returns bytes written.
std::uint64_t write_manifest_canonical(const std::string& path,
                                       const MergeReport& report);

/// Append-only manifest writer. NOT thread-safe: the sweep runner
/// serializes appends behind its own mutex (workers complete trials
/// concurrently, but record writes are rare relative to trial work).
class ManifestWriter {
 public:
  /// Creates a fresh manifest for `grid` (truncating any existing file and
  /// deleting any stale rotation chain at the same path).
  static ManifestWriter create(const std::string& path,
                               const sweep::SweepGrid& grid);

  /// Opens an existing manifest for appending; the active file's header
  /// must match `grid` and today's outcome semantics.
  static ManifestWriter open_for_append(const std::string& path,
                                        const sweep::SweepGrid& grid);

  /// Appends one record through AppendFile's recovery: a transient write
  /// or flush failure (real, or injected at fault sites
  /// "manifest.append"/"manifest.flush") truncates the torn bytes and
  /// rewrites, so the file stays byte-identical to a fault-free writer's.
  /// Throws persist_error only when recovery is impossible.
  void append(std::uint32_t cell, std::uint32_t trial,
              const sweep::TrialOutcome& outcome);

  /// append() flushes every `every`-th record (default 1: every record
  /// reaches the OS as it completes); 0 leaves every flush to flush().
  void set_flush_every(std::int64_t every);

  /// Hands every appended record to the OS now, through the same
  /// recovery as append() (fault site "manifest.flush").
  void flush();

  /// When > 0, rotate the active file to "<path>.<seq>" once it exceeds
  /// this many bytes (checked after each append).
  void set_rotate_bytes(std::uint64_t bytes);

  void close();

 private:
  ManifestWriter(AppendFile file, const sweep::SweepGrid& grid);

  AppendFile file_;
  std::int64_t flush_every_ = 1;
  std::int64_t since_flush_ = 0;
  std::uint64_t rotate_bytes_ = 0;
  /// Header template for post-rotation segments (owned copy of the bytes,
  /// not the grid — the grid reference does not outlive the factories).
  std::string segment_header_;
};

/// A resume-or-create manifest, as run_sweep and the cid_serve
/// coordinator open one: the trials an existing file already holds and
/// the writer that appends to it, or no trials and a fresh file.
struct OpenManifest {
  std::map<std::pair<std::uint32_t, std::uint32_t>, sweep::TrialOutcome>
      completed;
  ManifestWriter writer;
};

/// Opens `path` for `grid`: an existing manifest chain is loaded
/// (load_manifest, fingerprint-checked) and opened for append; otherwise
/// a fresh one is created. Inline, so its load_manifest and
/// ManifestWriter calls are made from its callers' objects, where the
/// traced e2ebench build's --wrap sees them.
inline OpenManifest open_manifest(const std::string& path,
                                  const sweep::SweepGrid& grid) {
  if (!std::filesystem::exists(path)) {
    return {{}, ManifestWriter::create(path, grid)};
  }
  auto completed = load_manifest(path, grid).completed;
  return {std::move(completed), ManifestWriter::open_for_append(path, grid)};
}

}  // namespace cid::persist
