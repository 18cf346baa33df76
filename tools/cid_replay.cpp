// cid_replay — inspect, diff, and replay persistence artifacts.
//
//   cid_replay inspect FILE
//   cid_replay diff A B
//   cid_replay replay --snapshot S --log L [--to ROUND]
//                     [--save-state PATH] [--expect SNAPSHOT]
//                     [--metrics PATH] [--metrics-prom PATH]
//   cid_replay telemetry --snapshot S --log L --telemetry PATH
//                     [--to ROUND] [--telemetry-every N]
//   cid_replay export SNAPSHOT [--game PATH] [--state PATH]
//
// inspect   sniffs the magic (CIDSNAP snapshot, CIDELOG event log, CIDMANI
//           sweep manifest) and prints a structural summary, including
//           the outcome-semantics version of snapshots and manifests.
// diff      compares two snapshots (field by field) or two event logs
//           (first diverging round); exit code 1 when they differ.
// replay    reconstructs a state by applying the event log's recorded
//           migrations to the snapshot's state — ZERO RNG draws, pure
//           deterministic replay — and prints the same final quantities as
//           cid_sim; --expect verifies the result against another
//           snapshot; --metrics/--metrics-prom export replay.* counters
//           plus the persist I/O deltas.
// telemetry regenerates the convergence telemetry series offline from a
//           snapshot + event log — byte-identical to what a live run with
//           --telemetry at the same sampling stride captured, with zero
//           RNG draws (every record is a pure function of the replayed
//           pre-round state and the logged moves).
// export    converts a binary snapshot to the cid-game/cid-state v1 text
//           formats for diffing and editing.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "cid/cid.hpp"

namespace {

using namespace cid;

[[noreturn]] void usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: cid_replay inspect FILE\n"
      "       cid_replay diff A B\n"
      "       cid_replay replay --snapshot S --log L [--to ROUND]\n"
      "                  [--save-state PATH] [--expect SNAPSHOT]\n"
      "                  [--metrics PATH] [--metrics-prom PATH]\n"
      "       cid_replay telemetry --snapshot S --log L --telemetry PATH\n"
      "                  [--to ROUND] [--telemetry-every N]\n"
      "       cid_replay export SNAPSHOT [--game PATH] [--state PATH]\n");
  std::exit(error == nullptr ? 0 : 2);
}

enum class ArtifactKind { kSnapshot, kEventLog, kManifest, kUnknown };

ArtifactKind sniff(const std::string& path) {
  const std::string data = persist::slurp_file(path);
  if (data.rfind("CIDSNAP", 0) == 0) return ArtifactKind::kSnapshot;
  if (data.rfind("CIDELOG", 0) == 0) return ArtifactKind::kEventLog;
  if (data.rfind("CIDMANI", 0) == 0) return ArtifactKind::kManifest;
  return ArtifactKind::kUnknown;
}

/// The outcome-semantics line every artifact prints (CI reads it to tell
/// whether two builds' outcome bits are meant to agree).
void print_semantics(std::uint32_t version) {
  std::printf("  outcome semantics v%u%s\n", version,
              version == persist::kOutcomeSemantics
                  ? ""
                  : " (decodes, but this build refuses to resume it)");
}

void print_snapshot(const persist::Snapshot& snapshot,
                    const std::string& path) {
  std::printf("%s: snapshot (symmetric family)\n", path.c_str());
  std::printf("  round            %lld\n",
              static_cast<long long>(snapshot.round));
  std::printf("  protocol         %s (lambda=%g, p_explore=%g, nu_cutoff=%d, "
              "damping=%d, virtual=%lld)\n",
              snapshot.config.protocol.c_str(), snapshot.config.lambda,
              snapshot.config.p_explore, snapshot.config.nu_cutoff ? 1 : 0,
              snapshot.config.damping ? 1 : 0,
              static_cast<long long>(snapshot.config.virtual_agents));
  std::printf("  engine / stop    %s / %s\n",
              snapshot.config.engine == 1 ? "aggregate" : "perplayer",
              snapshot.config.stop.c_str());
  print_semantics(snapshot.config.outcome_semantics);
  std::printf("  rng state        %016llx %016llx %016llx %016llx\n",
              static_cast<unsigned long long>(snapshot.rng_state[0]),
              static_cast<unsigned long long>(snapshot.rng_state[1]),
              static_cast<unsigned long long>(snapshot.rng_state[2]),
              static_cast<unsigned long long>(snapshot.rng_state[3]));
  std::printf("  game             %s\n", snapshot.game.describe().c_str());
  const State x = snapshot.state();
  std::printf(
      "  state            support %zu of %d strategies, potential %.6g\n",
      x.support().size(), snapshot.game.num_strategies(),
      snapshot.game.potential(x));
}

void print_asymmetric_snapshot(const persist::AsymmetricSnapshot& snapshot,
                               const std::string& path) {
  std::printf("%s: snapshot (asymmetric family)\n", path.c_str());
  std::printf("  round            %lld (movers so far %lld)\n",
              static_cast<long long>(snapshot.round),
              static_cast<long long>(snapshot.movers));
  print_semantics(snapshot.config.outcome_semantics);
  std::printf("  rng state        %016llx %016llx %016llx %016llx\n",
              static_cast<unsigned long long>(snapshot.rng_state[0]),
              static_cast<unsigned long long>(snapshot.rng_state[1]),
              static_cast<unsigned long long>(snapshot.rng_state[2]),
              static_cast<unsigned long long>(snapshot.rng_state[3]));
  std::printf("  game             %s\n", snapshot.game.describe().c_str());
  const AsymmetricState x = snapshot.state();
  std::printf("  state            %d classes, potential %.6g\n",
              snapshot.game.num_classes(), snapshot.game.potential(x));
}

void print_threshold_snapshot(const persist::ThresholdSnapshot& snapshot,
                              const std::string& path) {
  std::printf("%s: snapshot (threshold family)\n", path.c_str());
  std::printf("  steps            %lld\n",
              static_cast<long long>(snapshot.round));
  std::printf("  construction     %s over %d-node MaxCut\n",
              snapshot.tripled ? "tripled imitation (Theorem 6)"
                               : "quadratic best-response",
              snapshot.instance.num_nodes());
  std::printf("  players          %zu\n", snapshot.in_bits.size());
  print_semantics(snapshot.config.outcome_semantics);
}

int inspect(const std::string& path) {
  switch (sniff(path)) {
    case ArtifactKind::kSnapshot:
      switch (persist::peek_snapshot_family(path)) {
        case persist::SnapshotFamily::kSymmetric:
          print_snapshot(persist::load_snapshot(path), path);
          break;
        case persist::SnapshotFamily::kAsymmetric:
          print_asymmetric_snapshot(persist::load_asymmetric_snapshot(path),
                                    path);
          break;
        case persist::SnapshotFamily::kThreshold:
          print_threshold_snapshot(persist::load_threshold_snapshot(path),
                                   path);
          break;
      }
      return 0;
    case ArtifactKind::kEventLog: {
      // The whole rotation chain, not just the active segment — inspect
      // must agree with what replay would consume.
      const persist::EventLog log = persist::read_event_log_series(path);
      const std::size_t segments = persist::chain_segments(path).size();
      std::int64_t movers = 0;
      for (const auto& r : log.rounds) {
        for (const Migration& m : r.moves) movers += m.count;
      }
      const std::string chain_note =
          segments == 0 ? ""
                        : " (+" + std::to_string(segments) +
                              " rotated segments)";
      std::printf("%s: event log v%d%s\n", path.c_str(),
                  static_cast<int>(log.version), chain_note.c_str());
      std::printf("  rounds           %zu%s\n", log.rounds.size(),
                  log.truncated_tail ? " (tail truncated by a killed writer)"
                                     : "");
      if (!log.rounds.empty()) {
        std::printf("  round range      [%lld, %lld]\n",
                    static_cast<long long>(log.rounds.front().round),
                    static_cast<long long>(log.rounds.back().round));
      }
      std::printf("  total migrations %lld\n", static_cast<long long>(movers));
      if (log.corrupt_blocks > 0) {
        std::printf("  CORRUPT blocks   %zu skipped (their rounds are "
                    "missing; replay across the gap will fail)\n",
                    log.corrupt_blocks);
      }
      for (const std::string& segment : log.corrupt_segments) {
        std::printf("  CORRUPT segment  %s skipped whole\n", segment.c_str());
      }
      std::printf(
          "  bytes            %llu on disk, %llu uncompressed-equivalent "
          "(%.1fx)\n",
          static_cast<unsigned long long>(log.file_bytes),
          static_cast<unsigned long long>(log.v1_equivalent_bytes),
          log.file_bytes == 0
              ? 0.0
              : static_cast<double>(log.v1_equivalent_bytes) /
                    static_cast<double>(log.file_bytes));
      return 0;
    }
    case ArtifactKind::kManifest: {
      // Header-only inspection (a full parse needs the grid for the
      // fingerprint check); record count from the fixed record size.
      const std::string data = persist::slurp_file(path);
      if (data.size() < 8) usage("manifest too short");
      const auto version = static_cast<unsigned char>(data[7]);
      std::uint64_t fingerprint = 0;
      std::uint32_t cells = 0, trials = 0;
      std::size_t header_size = 0;
      if (version == 1) {
        header_size = 7 + 1 + 8 + 4 + 4;
        if (data.size() < header_size) usage("manifest too short");
        fingerprint = persist::read_le64(data.data() + 8);
        cells = persist::read_le32(data.data() + 16);
        trials = persist::read_le32(data.data() + 20);
      } else {
        if (data.size() < 12) usage("manifest too short");
        const std::uint32_t sections_len = persist::read_le32(data.data() + 8);
        if (data.size() - 12 < sections_len) usage("manifest header damaged");
        const persist::SectionScan scan(
            std::string_view(data).substr(12, sections_len), path);
        const auto grid = scan.require(1, "grid");
        persist::BinReader in(grid, path);
        fingerprint = in.u64();
        cells = in.u32();
        trials = in.u32();
        header_size = 12 + sections_len;
      }
      constexpr std::size_t kRecordSize = 4 + 4 + 8 + 1 + 8 + 8 + 8 + 4;
      const std::size_t records = (data.size() - header_size) / kRecordSize;
      const double total = static_cast<double>(cells) * trials;
      // Full tolerant chain scan (CRC-checked, grid-less): counts the
      // records that actually verify and surfaces any damage.
      const persist::ManifestContents contents =
          persist::load_manifest_raw(path);
      std::printf("%s: sweep manifest v%d\n", path.c_str(),
                  static_cast<int>(version));
      print_semantics(contents.outcome_semantics);
      std::printf("  grid fingerprint %016llx\n",
                  static_cast<unsigned long long>(fingerprint));
      std::printf("  grid size        %u cells x %u trials = %llu\n", cells,
                  trials, static_cast<unsigned long long>(cells) * trials);
      std::printf("  completed        %zu trials in this segment (%.1f%%)\n",
                  records,
                  total == 0.0 ? 0.0
                               : 100.0 * static_cast<double>(records) / total);
      if (contents.completed.size() != records ||
          contents.record_count != records) {
        std::printf("  chain total      %zu distinct trials intact "
                    "(%zu records across the chain)\n",
                    contents.completed.size(), contents.record_count);
      }
      if (contents.truncated_tail) {
        std::printf("  TRUNCATED tail   (killed writer; intact prefix "
                    "kept)\n");
      }
      if (contents.corrupt_records > 0) {
        std::printf("  CORRUPT records  %zu CRC-bad slot(s) skipped\n",
                    contents.corrupt_records);
      }
      for (const std::string& segment : contents.corrupt_segments) {
        std::printf("  CORRUPT segment  %s skipped whole\n",
                    segment.c_str());
      }
      return 0;
    }
    case ArtifactKind::kUnknown:
      usage("unrecognized artifact (expected CIDSNAP, CIDELOG, or CIDMANI)");
  }
  return 2;
}

int diff(const std::string& a_path, const std::string& b_path) {
  const ArtifactKind kind = sniff(a_path);
  if (kind != sniff(b_path)) {
    std::printf("different artifact kinds\n");
    return 1;
  }
  if (kind == ArtifactKind::kSnapshot) {
    const persist::SnapshotFamily family_a =
        persist::peek_snapshot_family(a_path);
    if (family_a != persist::peek_snapshot_family(b_path)) {
      std::printf("different snapshot families\n");
      return 1;
    }
    if (family_a != persist::SnapshotFamily::kSymmetric) {
      // Non-symmetric families: bytewise payload comparison (their
      // sections are already canonical encodings).
      const bool same =
          persist::read_file_checked(a_path, "CIDSNAP", 0xFF).payload ==
          persist::read_file_checked(b_path, "CIDSNAP", 0xFF).payload;
      std::printf(same ? "snapshots identical\n" : "snapshots differ\n");
      return same ? 0 : 1;
    }
    const persist::Snapshot a = persist::load_snapshot(a_path);
    const persist::Snapshot b = persist::load_snapshot(b_path);
    if (persist::snapshot_payload(a) == persist::snapshot_payload(b)) {
      std::printf("snapshots identical\n");
      return 0;
    }
    if (a.round != b.round) {
      std::printf("round: %lld vs %lld\n", static_cast<long long>(a.round),
                  static_cast<long long>(b.round));
    }
    if (!(a.config == b.config)) std::printf("protocol config differs\n");
    if (a.rng_state != b.rng_state) std::printf("rng state differs\n");
    if (serialize_game(a.game) != serialize_game(b.game)) {
      std::printf("game differs\n");
    }
    if (a.counts != b.counts) {
      std::size_t diverged = 0;
      for (std::size_t i = 0; i < std::min(a.counts.size(), b.counts.size());
           ++i) {
        if (a.counts[i] != b.counts[i]) ++diverged;
      }
      std::printf("state differs on %zu strategies\n", diverged);
    }
    return 1;
  }
  if (kind == ArtifactKind::kEventLog) {
    const persist::EventLog a = persist::read_event_log(a_path);
    const persist::EventLog b = persist::read_event_log(b_path);
    const std::size_t common = std::min(a.rounds.size(), b.rounds.size());
    for (std::size_t i = 0; i < common; ++i) {
      const auto& ra = a.rounds[i];
      const auto& rb = b.rounds[i];
      bool same = ra.round == rb.round && ra.moves.size() == rb.moves.size();
      for (std::size_t m = 0; same && m < ra.moves.size(); ++m) {
        same = ra.moves[m].from == rb.moves[m].from &&
               ra.moves[m].to == rb.moves[m].to &&
               ra.moves[m].count == rb.moves[m].count;
      }
      if (!same) {
        std::printf("logs diverge at record %zu (round %lld)\n", i,
                    static_cast<long long>(ra.round));
        return 1;
      }
    }
    if (a.rounds.size() != b.rounds.size()) {
      std::printf("logs agree on %zu rounds; lengths differ (%zu vs %zu)\n",
                  common, a.rounds.size(), b.rounds.size());
      return 1;
    }
    std::printf("event logs identical (%zu rounds)\n", common);
    return 0;
  }
  usage("diff supports snapshots and event logs");
}

int replay(int argc, char** argv) {
  std::string snapshot_path, log_path, save_state_path, expect_path;
  std::string metrics_path, prom_path;
  std::int64_t to_round = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto need_value = [&](int& j) -> const char* {
      if (j + 1 >= argc) usage("missing value for flag");
      return argv[++j];
    };
    if (flag == "--snapshot") snapshot_path = need_value(i);
    else if (flag == "--log") log_path = need_value(i);
    else if (flag == "--to") to_round = std::atoll(need_value(i));
    else if (flag == "--save-state") save_state_path = need_value(i);
    else if (flag == "--expect") expect_path = need_value(i);
    else if (flag == "--metrics") metrics_path = need_value(i);
    else if (flag == "--metrics-prom") prom_path = need_value(i);
    else usage(("unknown flag: " + flag).c_str());
  }
  if (snapshot_path.empty() || log_path.empty()) {
    usage("replay requires --snapshot and --log");
  }

  const obs::PersistIoTotals io_before = obs::persist_io_totals();
  const persist::Snapshot snapshot = persist::load_snapshot(snapshot_path);
  const persist::EventLog log = persist::read_event_log_series(log_path);
  State x = snapshot.state();
  const std::int64_t end =
      to_round >= 0 ? to_round
                    : (log.rounds.empty() ? snapshot.round
                                          : log.rounds.back().round + 1);
  const std::int64_t applied = persist::replay_rounds(
      snapshot.game, x, log.rounds, snapshot.round, end);
  std::printf("replayed %lld rounds (%lld -> %lld) with zero RNG draws\n",
              static_cast<long long>(applied),
              static_cast<long long>(snapshot.round),
              static_cast<long long>(snapshot.round + applied));
  std::printf(
      "log: %llu bytes compressed on disk, %llu uncompressed-equivalent "
      "(%.1fx)\n",
      static_cast<unsigned long long>(log.file_bytes),
      static_cast<unsigned long long>(log.v1_equivalent_bytes),
      log.file_bytes == 0 ? 0.0
                          : static_cast<double>(log.v1_equivalent_bytes) /
                                static_cast<double>(log.file_bytes));
  std::printf(
      "final: potential=%.6g  L_av=%.6g  makespan=%.6g  support=%zu\n",
      snapshot.game.potential(x), snapshot.game.average_latency(x),
      makespan(snapshot.game, x), x.support().size());
  if (!save_state_path.empty()) {
    const obs::PersistIoTotals before = obs::persist_io_totals();
    save_state(x, save_state_path);
    const std::int64_t bytes =
        obs::persist_io_totals().bytes_written - before.bytes_written;
    std::printf("state written to %s (%lld bytes)\n",
                save_state_path.c_str(), static_cast<long long>(bytes));
  }
  // Observability exports: replay.* counters plus persist I/O deltas
  // accumulated since entry (snapshot/log reads leave the write counters
  // alone; --save-state shows up here). Same sinks cid_sim/cid_sweep use.
  if (!metrics_path.empty() || !prom_path.empty()) {
    std::int64_t migrations = 0;
    for (const persist::RoundEvents& events : log.rounds) {
      if (events.round < snapshot.round) continue;
      if (events.round >= snapshot.round + applied) break;
      for (const Migration& m : events.moves) migrations += m.count;
    }
    obs::MetricsRegistry registry;
    registry.add_named("replay.rounds_applied", applied);
    registry.add_named("replay.migrations_applied", migrations);
    registry.add_named("replay.log_rounds",
                       static_cast<std::int64_t>(log.rounds.size()));
    registry.add_named("replay.log_bytes",
                       static_cast<std::int64_t>(log.file_bytes));
    const obs::PersistIoTotals io = obs::persist_io_totals();
    registry.add_named("persist.bytes_written",
                       io.bytes_written - io_before.bytes_written);
    registry.add_named("persist.writes", io.writes - io_before.writes);
    registry.add_named("persist.fsyncs", io.fsyncs - io_before.fsyncs);
    registry.add_named("persist.fflushes",
                       io.fflushes - io_before.fflushes);
    if (!metrics_path.empty()) {
      obs::JsonlSink sink(metrics_path);
      sink.write(registry.snapshot());
      sink.close();
      std::printf("wrote %s (%llu bytes)\n", sink.path().c_str(),
                  static_cast<unsigned long long>(sink.bytes_written()));
    }
    if (!prom_path.empty()) {
      obs::write_prometheus(prom_path, registry.snapshot());
      std::printf("wrote %s\n", prom_path.c_str());
    }
  }
  if (!expect_path.empty()) {
    const persist::Snapshot expect = persist::load_snapshot(expect_path);
    if (expect.state() == x && expect.round == snapshot.round + applied) {
      std::printf("matches %s exactly\n", expect_path.c_str());
    } else {
      std::printf("MISMATCH against %s\n", expect_path.c_str());
      return 1;
    }
  }
  return 0;
}

// `cid_replay telemetry`: the offline regeneration leg of the telemetry
// purity contract. Walks the event log exactly like replay_rounds (same
// gapless validation) but fires the recorder on the PRE-round state with
// that round's logged moves before applying them — the same observation
// points the live engine observer sees — then mirrors the engines' final
// observer call and resolves convergence through the snapshot's recorded
// stop spec. The resulting file is byte-identical to a live capture at
// the same stride, with zero RNG draws.
int replay_telemetry(int argc, char** argv) {
  std::string snapshot_path, log_path, out_path;
  std::int64_t to_round = -1;
  std::int64_t every = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto need_value = [&](int& j) -> const char* {
      if (j + 1 >= argc) usage("missing value for flag");
      return argv[++j];
    };
    if (flag == "--snapshot") snapshot_path = need_value(i);
    else if (flag == "--log") log_path = need_value(i);
    else if (flag == "--telemetry") out_path = need_value(i);
    else if (flag == "--to") to_round = std::atoll(need_value(i));
    else if (flag == "--telemetry-every") every = std::atoll(need_value(i));
    else usage(("unknown flag: " + flag).c_str());
  }
  if (snapshot_path.empty() || log_path.empty() || out_path.empty()) {
    usage("telemetry requires --snapshot, --log, and --telemetry");
  }
  if (every < 1) usage("--telemetry-every must be >= 1");

  const persist::Snapshot snapshot = persist::load_snapshot(snapshot_path);
  const persist::EventLog log = persist::read_event_log_series(log_path);
  State x = snapshot.state();
  const std::int64_t end =
      to_round >= 0 ? to_round
                    : (log.rounds.empty() ? snapshot.round
                                          : log.rounds.back().round + 1);

  obs::TelemetryRecorder recorder(every);
  std::int64_t applied = 0;
  for (const persist::RoundEvents& events : log.rounds) {
    if (events.round < snapshot.round) continue;
    if (events.round >= end) break;
    if (events.round != snapshot.round + applied) {
      throw std::runtime_error(
          "event log round " + std::to_string(events.round) +
          " breaks gapless ordering (expected " +
          std::to_string(snapshot.round + applied) + ")");
    }
    recorder.observe(snapshot.game, x, events.moves, events.round, false);
    x.apply(snapshot.game, events.moves);
    ++applied;
  }
  const std::int64_t final_round = snapshot.round + applied;
  recorder.observe(snapshot.game, x, {}, final_round, true);
  // The engines cannot know convergence at the final observer call and
  // neither can a replay; a live run's RunResult supplies it there, the
  // snapshot's stop spec evaluated on the final state supplies it here
  // (bitwise-equal verdicts — see dynamics/stop_rule.hpp).
  const StopPredicate stop = make_stop(parse_stop(snapshot.config.stop));
  recorder.finish(stop(snapshot.game, x, final_round));

  const std::uint64_t bytes =
      obs::write_telemetry_file(out_path, recorder.records());
  std::printf("replayed %lld rounds (%lld -> %lld) with zero RNG draws\n",
              static_cast<long long>(applied),
              static_cast<long long>(snapshot.round),
              static_cast<long long>(final_round));
  std::printf("telemetry written to %s (%zu records, %llu bytes)\n",
              out_path.c_str(), recorder.records().size(),
              static_cast<unsigned long long>(bytes));
  return 0;
}

int export_snapshot(int argc, char** argv) {
  if (argc < 3) usage("export requires a snapshot path");
  const std::string snapshot_path = argv[2];
  std::string game_path, state_path;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    auto need_value = [&](int& j) -> const char* {
      if (j + 1 >= argc) usage("missing value for flag");
      return argv[++j];
    };
    if (flag == "--game") game_path = need_value(i);
    else if (flag == "--state") state_path = need_value(i);
    else usage(("unknown flag: " + flag).c_str());
  }
  if (game_path.empty() && state_path.empty()) {
    usage("export requires --game and/or --state output paths");
  }
  const persist::Snapshot snapshot = persist::load_snapshot(snapshot_path);
  // Byte counts come from the persist I/O registry (src/obs/metrics.hpp)
  // — the same counters cid_sweep's summary reports.
  auto written_bytes = [](const obs::PersistIoTotals& before) {
    return static_cast<std::uint64_t>(obs::persist_io_totals().bytes_written -
                                      before.bytes_written);
  };
  std::uint64_t text_bytes = 0;
  if (!game_path.empty()) {
    const obs::PersistIoTotals before = obs::persist_io_totals();
    save_game(snapshot.game, game_path);
    const std::uint64_t bytes = written_bytes(before);
    text_bytes += bytes;
    std::printf("game written to %s (%llu bytes)\n", game_path.c_str(),
                static_cast<unsigned long long>(bytes));
  }
  if (!state_path.empty()) {
    const obs::PersistIoTotals before = obs::persist_io_totals();
    save_state(snapshot.state(), state_path);
    const std::uint64_t bytes = written_bytes(before);
    text_bytes += bytes;
    std::printf("state written to %s (%llu bytes)\n", state_path.c_str(),
                static_cast<unsigned long long>(bytes));
  }
  const std::uint64_t snapshot_bytes =
      persist::slurp_file(snapshot_path).size();
  std::printf("exported %llu text bytes from a %llu-byte binary snapshot\n",
              static_cast<unsigned long long>(text_bytes),
              static_cast<unsigned long long>(snapshot_bytes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand");
  const std::string command = argv[1];
  try {
    if (command == "--help" || command == "-h") usage(nullptr);
    if (command == "inspect") {
      if (argc != 3) usage("inspect takes exactly one file");
      return inspect(argv[2]);
    }
    if (command == "diff") {
      if (argc != 4) usage("diff takes exactly two files");
      return diff(argv[2], argv[3]);
    }
    if (command == "replay") return replay(argc, argv);
    if (command == "telemetry") return replay_telemetry(argc, argv);
    if (command == "export") return export_snapshot(argc, argv);
    usage(("unknown subcommand: " + command).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cid_replay: %s\n", e.what());
    return 1;
  }
}
