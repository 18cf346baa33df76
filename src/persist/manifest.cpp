#include "persist/manifest.hpp"

#include <cstdio>
#include <utility>
#include <vector>

#include "persist/binio.hpp"

namespace cid::persist {

namespace {

constexpr std::size_t kV1HeaderSize = 7 + 1 + 8 + 4 + 4;
constexpr std::size_t kRecordPayload = 4 + 4 + 8 + 1 + 8 + 8 + 8;
constexpr std::size_t kRecordSize = kRecordPayload + 4;
constexpr std::uint16_t kManiSecGrid = 1;
constexpr std::uint16_t kManiSecSemantics = 2;
constexpr AppendArtifact kManifestFile{"manifest", "manifest.header",
                                       "manifest.flush", "manifest.rotate"};

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
  bool truncated_tail = false;
  /// End offset of the last INTACT record (what open_for_append keeps —
  /// trailing corrupt slots and partial tails both fall off).
  std::size_t last_intact_end = 0;
};

/// Parses one segment's records into `contents`, skipping CRC-bad slots
/// (records are fixed-size, so one bad slot never desyncs the scan);
/// returns the layout facts open_for_append needs to truncate damage.
SegmentScan load_segment(const std::string& path, const ManifestInfo& expected,
                         ManifestContents& contents) {
  const std::string data = slurp_file(path);
  SegmentScan scan;
  std::size_t pos = check_header(data, path, expected);
  scan.last_intact_end = pos;
  contents.file_bytes += data.size();

  while (pos < data.size()) {
    if (data.size() - pos < kRecordSize) {
      scan.truncated_tail = true;
      break;
    }
    const std::uint32_t stored = read_le32(data.data() + pos + kRecordPayload);
    if (stored != crc32(data.data() + pos, kRecordPayload)) {
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
    pos += kRecordSize;
    scan.last_intact_end = pos;
  }
  return scan;
}

/// Shared chain walk behind load_manifest / load_manifest_raw: merges
/// every segment (walk_chain skips unreadable ROTATED ones) and reports
/// corruption loudly.
void load_chain(const std::string& path, const ManifestInfo& expected,
                ManifestContents& contents) {
  walk_chain(path, "manifest", contents.corrupt_segments,
             [&](const std::string& segment) {
               // Only the active (last) segment may legitimately end
               // mid-record — a rotated segment was closed cleanly, so
               // damage there is corruption worth surfacing, but its
               // intact prefix still merges.
               if (load_segment(segment, expected, contents).truncated_tail) {
                 contents.truncated_tail = true;
               }
             });
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

  write_bytes_atomic(path, bytes, "manifest.merge", nullptr);
  return bytes.size();
}

ManifestWriter::ManifestWriter(AppendFile file, const sweep::SweepGrid& grid)
    : file_(std::move(file)), segment_header_(header_bytes(grid_info(grid))) {}

ManifestWriter ManifestWriter::create(const std::string& path,
                                      const sweep::SweepGrid& grid) {
  ManifestWriter writer(AppendFile::create(path, kManifestFile), grid);
  writer.file_.write(writer.segment_header_, kManifestFile.header_site);
  writer.file_.flush();
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
  // Keep through the last intact record: a partial tail record AND any
  // trailing corrupt slots are dropped, so the rewrite lands on clean
  // bytes. (Corrupt slots FOLLOWED by intact records stay — truncating
  // would throw away good trials; load skips the bad slots instead.)
  const std::size_t keep = load_segment(path, info, probe).last_intact_end;
  return ManifestWriter(AppendFile::open(path, kManifestFile, keep), grid);
}

void ManifestWriter::append(std::uint32_t cell, std::uint32_t trial,
                            const sweep::TrialOutcome& outcome) {
  file_.write(record_bytes(cell, trial, outcome), "manifest.append");
  if (flush_every_ > 0 && ++since_flush_ >= flush_every_) flush();
  file_.rotate(rotate_bytes_, segment_header_);
}

void ManifestWriter::set_flush_every(std::int64_t every) {
  if (every < 0) {
    throw persist_error(file_.path() + ": manifest flush cadence must be >= 0");
  }
  flush_every_ = every;
}

void ManifestWriter::flush() {
  file_.flush();
  since_flush_ = 0;
}

void ManifestWriter::set_rotate_bytes(std::uint64_t bytes) {
  rotate_bytes_ = bytes;
}

void ManifestWriter::close() { file_.close(); }

}  // namespace cid::persist
