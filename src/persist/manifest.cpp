#include "persist/manifest.hpp"

#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "persist/binio.hpp"
#include "util/fault.hpp"

namespace cid::persist {

namespace {

constexpr std::size_t kV1HeaderSize = 7 + 1 + 8 + 4 + 4;
constexpr std::size_t kRecordPayload = 4 + 4 + 8 + 1 + 8 + 8 + 8;
constexpr std::size_t kRecordSize = kRecordPayload + 4;
constexpr std::uint16_t kManiSecGrid = 1;
constexpr std::uint16_t kManiSecSemantics = 2;
constexpr int kMaxWriteAttempts = 3;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint32_t grid_cells(const sweep::SweepGrid& grid) {
  return static_cast<std::uint32_t>(grid.ns.size() * grid.protocols.size());
}

/// The header facts every segment carries, grid or no grid.
struct ManifestInfo {
  std::uint64_t fingerprint = 0;
  std::uint32_t cells = 0;
  std::uint32_t trials = 0;
  std::uint32_t outcome_semantics = kOutcomeSemantics;
};

ManifestInfo grid_info(const sweep::SweepGrid& grid) {
  return {grid_fingerprint(grid), grid_cells(grid),
          static_cast<std::uint32_t>(grid.trials), kOutcomeSemantics};
}

std::string header_bytes(const ManifestInfo& info) {
  BinWriter body;
  body.u64(info.fingerprint);
  body.u32(info.cells);
  body.u32(info.trials);
  BinWriter sections;
  write_section(sections, kManiSecGrid, body.buffer());
  BinWriter semantics;
  semantics.u32(info.outcome_semantics);
  write_section(sections, kManiSecSemantics, semantics.buffer());
  BinWriter out;
  out.raw(kManifestMagic, 7);
  out.u8(kManifestVersion);
  out.u32(static_cast<std::uint32_t>(sections.buffer().size()));
  out.raw(sections.buffer().data(), sections.buffer().size());
  return out.take();
}

std::string record_bytes(std::uint32_t cell, std::uint32_t trial,
                         const sweep::TrialOutcome& outcome) {
  BinWriter out;
  out.u32(cell);
  out.u32(trial);
  out.f64(outcome.rounds);
  out.u8(outcome.converged ? 1 : 0);
  out.i64(outcome.movers);
  out.f64(outcome.potential);
  out.f64(outcome.social_cost);
  BinWriter framed;
  framed.raw(out.buffer().data(), out.buffer().size());
  framed.u32(crc32(out.buffer().data(), out.buffer().size()));
  return framed.take();
}

[[noreturn]] void semantics_mismatch(const std::string& path,
                                     std::uint32_t found,
                                     std::uint32_t expected) {
  throw grid_mismatch_error(
      path + ": manifest records outcome semantics v" +
      std::to_string(found) + ", expected v" + std::to_string(expected) +
      " — outcomes of two semantics versions never resume or merge");
}

[[noreturn]] void grid_mismatch(const std::string& path) {
  throw grid_mismatch_error(
      path +
      ": manifest does not match this sweep grid (different scenario, "
      "protocols, n axis, trials, seed, or dynamics) — refusing to merge");
}

/// Parses one segment's header without judging it against anything;
/// returns the byte offset of the first record and the grid facts the
/// header claims.
std::pair<std::size_t, ManifestInfo> parse_header_fields(
    const std::string& data, const std::string& path) {
  if (data.size() < 7 + 1 || data.compare(0, 7, kManifestMagic) != 0) {
    throw persist_error(path + ": not a CIDMANI sweep manifest");
  }
  const auto version =
      static_cast<std::uint8_t>(static_cast<unsigned char>(data[7]));
  if (version < 1) {
    throw persist_error(path + ": bad manifest version 0");
  }
  ManifestInfo info;
  info.outcome_semantics = 1;  // files that predate the stamp
  if (version == 1) {
    if (data.size() < kV1HeaderSize) {
      throw persist_error(path + ": truncated manifest header");
    }
    info.fingerprint = read_le64(data.data() + 8);
    info.cells = read_le32(data.data() + 16);
    info.trials = read_le32(data.data() + 20);
    return {kV1HeaderSize, info};
  }
  // v2+: TLV header — find the grid section, skip anything else (a newer
  // writer may have added sections; that must not lock this reader out).
  if (data.size() < 7 + 1 + 4) {
    throw persist_error(path + ": truncated manifest header");
  }
  const std::uint32_t sections_len = read_le32(data.data() + 8);
  if (data.size() - 12 < sections_len) {
    throw persist_error(path + ": manifest header sections truncated");
  }
  const SectionScan scan(std::string_view(data).substr(12, sections_len),
                         path);
  BinReader in(scan.require(kManiSecGrid, "grid"), path + ": grid section");
  info.fingerprint = in.u64();
  info.cells = in.u32();
  info.trials = in.u32();
  if (const auto body = scan.find(kManiSecSemantics)) {
    BinReader semantics(*body, path + ": semantics section");
    info.outcome_semantics = semantics.u32();
  }
  return {12 + static_cast<std::size_t>(sections_len), info};
}

/// Validates one segment's header against the expected grid facts;
/// returns the byte offset of the first record.
std::size_t check_header(const std::string& data, const std::string& path,
                         const ManifestInfo& expected) {
  const auto [offset, info] = parse_header_fields(data, path);
  if (info.outcome_semantics != expected.outcome_semantics) {
    semantics_mismatch(path, info.outcome_semantics,
                       expected.outcome_semantics);
  }
  if (info.fingerprint != expected.fingerprint ||
      info.cells != expected.cells || info.trials != expected.trials) {
    grid_mismatch(path);
  }
  return offset;
}

struct SegmentScan {
  std::size_t header_size = 0;
  std::size_t record_count = 0;  // intact records in THIS segment
  std::size_t corrupt_records = 0;  // CRC-bad full-size slots skipped
  bool truncated_tail = false;
  /// End offset of the last INTACT record (what open_for_append keeps —
  /// trailing corrupt slots and partial tails both fall off).
  std::size_t last_intact_end = 0;
  std::size_t file_size = 0;
};

/// Parses one segment's records into `contents`, skipping CRC-bad slots
/// (records are fixed-size, so one bad slot never desyncs the scan);
/// returns the layout facts open_for_append needs to truncate damage.
SegmentScan load_segment(const std::string& path, const ManifestInfo& expected,
                         ManifestContents& contents) {
  const std::string data = slurp_file(path);
  SegmentScan scan;
  scan.header_size = check_header(data, path, expected);
  scan.last_intact_end = scan.header_size;
  scan.file_size = data.size();
  contents.file_bytes += data.size();

  std::size_t pos = scan.header_size;
  while (pos < data.size()) {
    if (data.size() - pos < kRecordSize) {
      scan.truncated_tail = true;
      break;
    }
    const std::uint32_t stored = read_le32(data.data() + pos + kRecordPayload);
    if (stored != crc32(data.data() + pos, kRecordPayload)) {
      ++scan.corrupt_records;
      ++contents.corrupt_records;
      pos += kRecordSize;
      continue;
    }
    BinReader record(std::string_view(data).substr(pos, kRecordPayload),
                     path);
    const std::uint32_t cell = record.u32();
    const std::uint32_t trial = record.u32();
    sweep::TrialOutcome outcome;
    outcome.rounds = record.f64();
    outcome.converged = record.u8() != 0;
    outcome.movers = record.i64();
    outcome.potential = record.f64();
    outcome.social_cost = record.f64();
    if (cell >= contents.cells || trial >= contents.trials_per_cell) {
      // CRC-valid but outside the grid: not bit rot — mixed manifests or
      // a builder bug. Tolerating it would stitch foreign results in.
      throw persist_error(path + ": manifest record (" +
                          std::to_string(cell) + ", " +
                          std::to_string(trial) + ") outside the grid");
    }
    contents.completed[{cell, trial}] = outcome;
    ++contents.record_count;
    ++scan.record_count;
    pos += kRecordSize;
    scan.last_intact_end = pos;
  }
  return scan;
}

/// Shared chain walk behind load_manifest / load_manifest_raw: merges
/// every segment, skipping unreadable ROTATED segments (the active one
/// stays fatal — without it there is nothing trustworthy to resume), and
/// reports corruption loudly.
void load_chain(const std::string& path, const ManifestInfo& expected,
                ManifestContents& contents) {
  std::vector<std::string> chain = chain_segments(path);
  chain.push_back(path);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const bool active = i + 1 == chain.size();
    SegmentScan scan;
    try {
      scan = load_segment(chain[i], expected, contents);
    } catch (const grid_mismatch_error&) {
      throw;  // wrong grid is never "corruption to skip"
    } catch (const persist_error& e) {
      if (active) throw;
      std::fprintf(stderr,
                   "cid: skipping corrupt manifest segment '%s': %s\n",
                   chain[i].c_str(), e.what());
      contents.corrupt_segments.push_back(chain[i]);
      continue;
    }
    // Only the active (last) segment may legitimately end mid-record — a
    // rotated segment was closed cleanly, so damage there is corruption
    // worth surfacing, but its intact prefix still merges.
    if (scan.truncated_tail) contents.truncated_tail = true;
  }
  if (contents.corrupt_records > 0 || !contents.corrupt_segments.empty()) {
    std::fprintf(stderr,
                 "cid: manifest '%s' is damaged: %zu corrupt record slot(s) "
                 "and %zu unreadable segment(s) skipped — %zu intact trial(s) "
                 "recovered\n",
                 path.c_str(), contents.corrupt_records,
                 contents.corrupt_segments.size(), contents.completed.size());
  }
}

}  // namespace

std::uint64_t grid_fingerprint(const sweep::SweepGrid& grid) {
  BinWriter out;
  out.u32(kOutcomeSemantics);
  out.str(grid.scenario.name);
  out.u32(static_cast<std::uint32_t>(grid.scenario.params.size()));
  for (const auto& [key, value] : grid.scenario.params) {  // map: sorted
    out.str(key);
    out.f64(value);
  }
  out.u32(static_cast<std::uint32_t>(grid.protocols.size()));
  for (const sweep::ProtocolSpec& p : grid.protocols) {
    out.str(p.name);
    out.f64(p.lambda);
    out.f64(p.p_explore);
    out.u8(p.nu_cutoff ? 1 : 0);
    out.u8(p.damping ? 1 : 0);
    out.i64(p.virtual_agents);
  }
  out.u32(static_cast<std::uint32_t>(grid.ns.size()));
  for (std::int64_t n : grid.ns) out.i64(n);
  out.i64(grid.trials);
  out.u64(grid.master_seed);
  out.i64(grid.dynamics.max_rounds);
  out.i64(grid.dynamics.check_interval);
  out.u8(static_cast<std::uint8_t>(grid.dynamics.mode));
  out.u8(static_cast<std::uint8_t>(grid.dynamics.stop));
  out.f64(grid.dynamics.delta);
  out.f64(grid.dynamics.eps);
  return fnv1a(out.buffer());
}

ManifestContents load_manifest(const std::string& path,
                               const sweep::SweepGrid& grid) {
  const ManifestInfo info = grid_info(grid);
  ManifestContents contents;
  contents.fingerprint = info.fingerprint;
  contents.outcome_semantics = info.outcome_semantics;
  contents.cells = info.cells;
  contents.trials_per_cell = info.trials;
  load_chain(path, info, contents);
  return contents;
}

ManifestContents load_manifest_raw(const std::string& path) {
  // The ACTIVE segment's header is the authority; parse it first so every
  // segment (including rotated ones) is judged against the same facts.
  const std::string data = slurp_file(path);
  const ManifestInfo info = parse_header_fields(data, path).second;
  ManifestContents contents;
  contents.fingerprint = info.fingerprint;
  contents.outcome_semantics = info.outcome_semantics;
  contents.cells = info.cells;
  contents.trials_per_cell = info.trials;
  load_chain(path, info, contents);
  return contents;
}

MergeReport merge_manifests(const std::vector<std::string>& inputs,
                            const MergeOptions& options) {
  if (inputs.empty()) {
    throw persist_error("manifest merge: no input manifests");
  }
  MergeReport report;
  bool have_reference = false;
  for (const std::string& input : inputs) {
    ManifestContents contents;
    try {
      contents = load_manifest_raw(input);
    } catch (const grid_mismatch_error&) {
      throw;
    } catch (const persist_error& e) {
      std::fprintf(stderr, "cid: skipping unreadable manifest input: %s\n",
                   e.what());
      report.corrupt_inputs.push_back(input);
      if (report.corrupt_inputs.size() > options.max_corrupt_inputs) {
        throw persist_error(
            "manifest merge aborted: " +
            std::to_string(report.corrupt_inputs.size()) +
            " unreadable input(s), tolerance is " +
            std::to_string(options.max_corrupt_inputs));
      }
      continue;
    }
    if (!have_reference) {
      report.fingerprint = contents.fingerprint;
      report.outcome_semantics = contents.outcome_semantics;
      report.cells = contents.cells;
      report.trials_per_cell = contents.trials_per_cell;
      have_reference = true;
    } else if (contents.fingerprint != report.fingerprint ||
               contents.cells != report.cells ||
               contents.trials_per_cell != report.trials_per_cell) {
      throw grid_mismatch_error(
          input + ": manifest belongs to a different sweep grid or outcome "
                  "semantics than the other inputs — refusing to merge");
    }
    report.corrupt_records += contents.corrupt_records;
    report.truncated_tail = report.truncated_tail || contents.truncated_tail;
    report.corrupt_segments.insert(report.corrupt_segments.end(),
                                   contents.corrupt_segments.begin(),
                                   contents.corrupt_segments.end());
    for (const auto& [key, outcome] : contents.completed) {
      const auto [it, inserted] = report.completed.emplace(key, outcome);
      if (inserted) continue;
      if (it->second == outcome) {
        ++report.duplicate_records;
        continue;
      }
      ++report.conflicts;
      if (!options.keep_first_on_conflict) {
        throw persist_error(
            input + ": conflicting outcomes for trial (cell " +
            std::to_string(key.first) + ", trial " +
            std::to_string(key.second) +
            ") — identical duplicates merge fine; differing ones need "
            "--keep-first to resolve (earlier input wins)");
      }
      // keep-first: the earlier input (argument order) already holds the
      // slot; drop this one deterministically.
    }
  }
  if (!have_reference) {
    throw persist_error("manifest merge aborted: no readable input manifest");
  }
  return report;
}

std::uint64_t write_manifest_canonical(const std::string& path,
                                       const MergeReport& report) {
  ManifestInfo info;
  info.fingerprint = report.fingerprint;
  info.cells = report.cells;
  info.trials = report.trials_per_cell;
  info.outcome_semantics = report.outcome_semantics;
  std::string bytes = header_bytes(info);
  for (const auto& [key, outcome] : report.completed) {  // map: sorted
    bytes += record_bytes(key.first, key.second, outcome);
  }

  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    throw persist_error("cannot open '" + tmp + "' for writing");
  }
  try {
    checked_fwrite(file, bytes.data(), bytes.size(), "manifest.merge", tmp);
    if (std::fflush(file) != 0 || ::fsync(::fileno(file)) != 0) {
      throw persist_error(tmp + ": flush/fsync failed");
    }
  } catch (...) {
    std::fclose(file);
    std::remove(tmp.c_str());
    throw;
  }
  if (std::fclose(file) != 0) {
    std::remove(tmp.c_str());
    throw persist_error(tmp + ": close failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw persist_error("cannot rename '" + tmp + "' to '" + path + "'");
  }
  const bool dir_synced = fsync_parent_dir(path);
  obs::record_persist_write(bytes.size(), dir_synced ? 2 : 1);
  return bytes.size();
}

ManifestWriter::ManifestWriter(std::string path, std::FILE* file,
                               const sweep::SweepGrid* grid)
    : path_(std::move(path)), file_(file) {
  if (grid != nullptr) segment_header_ = header_bytes(grid_info(*grid));
}

ManifestWriter::ManifestWriter(ManifestWriter&& other) noexcept
    : path_(std::move(other.path_)),
      file_(std::exchange(other.file_, nullptr)),
      flush_every_(other.flush_every_),
      since_flush_(other.since_flush_),
      rotate_bytes_(other.rotate_bytes_),
      bytes_written_(other.bytes_written_),
      rotate_seq_(other.rotate_seq_),
      segment_header_(std::move(other.segment_header_)) {}

ManifestWriter& ManifestWriter::operator=(ManifestWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    path_ = std::move(other.path_);
    file_ = std::exchange(other.file_, nullptr);
    flush_every_ = other.flush_every_;
    since_flush_ = other.since_flush_;
    rotate_bytes_ = other.rotate_bytes_;
    bytes_written_ = other.bytes_written_;
    rotate_seq_ = other.rotate_seq_;
    segment_header_ = std::move(other.segment_header_);
  }
  return *this;
}

ManifestWriter::~ManifestWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void ManifestWriter::check(bool ok, const char* what) const {
  if (!ok) throw persist_error(path_ + ": manifest " + what + " failed");
}

void ManifestWriter::recover_file() {
  if (file_ != nullptr) {
    // A failing close is fine here: whatever it could not flush is
    // re-established by the size check + rewrite below.
    std::fclose(file_);
    file_ = nullptr;
  }
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path_, ec);
  if (ec) {
    throw persist_error(path_ + ": manifest recovery failed: " +
                        ec.message());
  }
  if (size < bytes_written_) {
    // Bytes already acknowledged to the caller never reached the file:
    // durability is genuinely lost, and rewriting the CURRENT payload
    // cannot restore the missing earlier records. Fail loudly.
    throw persist_error(path_ + ": manifest lost durable bytes (file holds " +
                        std::to_string(size) + ", writer acknowledged " +
                        std::to_string(bytes_written_) +
                        ") — durability lost, not retrying");
  }
  if (size > bytes_written_) {
    std::filesystem::resize_file(path_, bytes_written_, ec);
    if (ec) {
      throw persist_error(path_ + ": cannot drop torn manifest bytes: " +
                          ec.message());
    }
  }
  std::FILE* file = std::fopen(path_.c_str(), "ab");
  if (file == nullptr) {
    throw persist_error("cannot reopen '" + path_ +
                        "' after manifest write failure");
  }
  file_ = file;
}

void ManifestWriter::write_resilient(const std::string& bytes,
                                     const char* site, const char* what) {
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
                   "cid: %s — recovering manifest and retrying %s "
                   "(attempt %d/%d)\n",
                   e.what(), what, attempt + 1, kMaxWriteAttempts);
      recover_file();  // throws when durability is actually lost
    }
  }
}

ManifestWriter ManifestWriter::create(const std::string& path,
                                      const sweep::SweepGrid& grid) {
  // A fresh manifest owns its rotation chain (stale segments would merge
  // into future loads).
  remove_chain(path);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw persist_error("cannot open '" + path + "' for writing");
  }
  ManifestWriter writer(path, file, &grid);
  writer.write_resilient(writer.segment_header_, "manifest.header",
                         "header write");
  writer.flush();
  return writer;
}

ManifestWriter ManifestWriter::open_for_append(const std::string& path,
                                               const sweep::SweepGrid& grid) {
  // Validate the ACTIVE segment's header/records and locate any damaged
  // tail (rotated segments are immutable; the full-chain merge happens in
  // load_manifest).
  const ManifestInfo info = grid_info(grid);
  ManifestContents probe;
  probe.fingerprint = info.fingerprint;
  probe.cells = info.cells;
  probe.trials_per_cell = info.trials;
  const SegmentScan scan = load_segment(path, info, probe);
  // Keep through the last intact record: a partial tail record AND any
  // trailing corrupt slots are dropped, so the rewrite lands on clean
  // bytes. (Corrupt slots FOLLOWED by intact records stay — truncating
  // would throw away good trials; load skips the bad slots instead.)
  const std::size_t keep = scan.last_intact_end;
  if (keep < scan.file_size) {
    std::error_code ec;
    std::filesystem::resize_file(path, keep, ec);
    if (ec) {
      throw persist_error(path + ": cannot drop damaged manifest tail: " +
                          ec.message());
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    throw persist_error("cannot open '" + path + "' for appending");
  }
  ManifestWriter writer(path, file, &grid);
  writer.bytes_written_ = keep;
  writer.rotate_seq_ = chain_last_seq(path);
  return writer;
}

void ManifestWriter::append(std::uint32_t cell, std::uint32_t trial,
                            const sweep::TrialOutcome& outcome) {
  check(file_ != nullptr, "append after close");
  write_resilient(record_bytes(cell, trial, outcome), "manifest.append",
                  "record write");
  if (++since_flush_ >= flush_every_) {
    flush();
    since_flush_ = 0;
  }
  maybe_rotate();
}

void ManifestWriter::maybe_rotate() {
  if (rotate_bytes_ == 0 || bytes_written_ < rotate_bytes_) return;
  obs::trace_instant("manifest.rotate");
  bool renamed = false;
  try {
    const bool flushed = std::fflush(file_) == 0 && std::ferror(file_) == 0;
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    check(flushed && closed, "pre-rotation flush");
    obs::record_persist_flush();
    const std::string segment = chain_segment_path(path_, rotate_seq_ + 1);
    if (util::faults_armed() &&
        util::fault_point("manifest.rotate").kind != util::FaultKind::kNone) {
      throw persist_error(path_ + ": injected manifest rotation failure");
    }
    if (std::rename(path_.c_str(), segment.c_str()) != 0) {
      throw persist_error(path_ + ": cannot rotate manifest to '" + segment +
                          "'");
    }
    renamed = true;
    fsync_parent_dir(path_);  // make the rename itself durable
    ++rotate_seq_;
    std::FILE* file = std::fopen(path_.c_str(), "wb");
    if (file == nullptr) {
      throw persist_error("cannot open '" + path_ +
                          "' for writing after rotation");
    }
    file_ = file;
    bytes_written_ = 0;
    write_resilient(segment_header_, "manifest.header",
                    "post-rotation header write");
    flush();
  } catch (const persist_error& e) {
    obs::record_persist_write_failure();
    if (renamed) {
      // The active file is already renamed away and the fresh segment
      // could not be established even after write_resilient's retries —
      // there is nothing writable left to degrade to.
      throw;
    }
    // Graceful degradation: rotation bounds file sizes, it is not a
    // durability requirement. Keep appending to the unrotated file,
    // disable further rotation, and say so loudly.
    rotate_bytes_ = 0;
    if (file_ == nullptr) {
      std::FILE* file = std::fopen(path_.c_str(), "ab");
      if (file == nullptr) {
        throw persist_error(path_ +
                            ": manifest unwritable after failed rotation (" +
                            e.what() + ")");
      }
      file_ = file;
    }
    std::fprintf(stderr,
                 "cid: %s — manifest rotation disabled, continuing "
                 "unrotated\n",
                 e.what());
  }
}

void ManifestWriter::flush() {
  check(file_ != nullptr, "flush");
  try {
    checked_fflush(file_, "manifest.flush", path_);
  } catch (const persist_error& e) {
    obs::record_persist_write_failure();
    obs::record_persist_write_retry();
    std::fprintf(stderr, "cid: %s — reopening manifest after flush failure\n",
                 e.what());
    // recover_file closes (flushing what the OS will take) and verifies
    // every acknowledged byte is on disk; afterwards nothing is buffered,
    // so the flush's goal is met or persist_error says durability is lost.
    recover_file();
  }
  obs::record_persist_flush();
}

void ManifestWriter::set_flush_every(std::int64_t every) {
  check(every >= 1, "flush cadence must be >= 1; set");
  flush_every_ = every;
}

void ManifestWriter::set_rotate_bytes(std::uint64_t bytes) {
  rotate_bytes_ = bytes;
}

void ManifestWriter::close() {
  check(file_ != nullptr, "double close");
  const bool ok = std::fflush(file_) == 0 && std::ferror(file_) == 0;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  check(ok && closed, "close");
  obs::record_persist_flush();
}

}  // namespace cid::persist
