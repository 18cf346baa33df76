// Convergence telemetry: downsampled per-round records of the science
// observables the paper reasons about — Rosenthal potential Φ, average /
// plus-average latency, makespan, movers, support size, imitation gap.
// It is the one per-round series: cid_sim prints it as a table or writes
// it behind --telemetry, cid_sweep tags it per trial, and
// `cid_replay telemetry` regenerates it offline from a CIDELOG event log.
//
// Purity contract (what makes live capture, checkpoint/kill/resume
// concatenation, and zero-RNG replay byte-identical): every field of a
// TelemetryRecord is a pure function of (game, pre-round state, the
// round's move list, round number). No cross-round accumulator state is
// kept — Φ is recomputed exactly per sampled round rather than tracked
// incrementally, movers count THIS round's migrations only, and the
// imitation gap is evaluated through a freshly reset latency cache
// (the PR 5 cached predicates, bitwise-equal to the context-free oracle).
//
// Sampling protocol: non-final observer rounds record iff
// round % every == 0 (absolute round numbers, so a resumed run samples
// the same rounds the uninterrupted run would). The engines' final
// observer call is buffered and emitted by finish(converged) ONLY when
// the run converged — a killed (non-converged) leg therefore emits no
// final record and its series concatenates bitwise with the resumed
// leg's.
//
// Asymmetric games run on their flat game (game/asymmetric.hpp), so one
// observer serves every family; a recorder given the AsymmetricGame writes
// the class-wise record instead of the symmetric one.
//
// Observability contract: zero RNG, null/off paths byte-identical.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dynamics/engine.hpp"
#include "game/asymmetric.hpp"
#include "game/expost_table.hpp"
#include "obs/sink.hpp"
#include "util/table.hpp"

namespace cid::obs {

/// Schema version stamped on every telemetry JSONL line
/// ("telemetry_version"). Bump on incompatible field changes; additive
/// fields do not require a bump.
inline constexpr int kTelemetryVersion = 1;

struct TelemetryRecord {
  std::int64_t round = 0;
  double phi = 0.0;        // Rosenthal potential Φ(x), exact
  double l_av = 0.0;       // average latency over players
  double l_plus_av = 0.0;  // plus-average latency L⁺ (Definition 1)
  double makespan = 0.0;   // max latency over used strategies
  std::int64_t movers = 0; // migrations drawn THIS round (0 on final)
  std::int64_t support = 0;  // used strategies (summed over classes)
  double im_gap = 0.0;     // imitation gap via cached predicates
  bool final_record = false;

  friend bool operator==(const TelemetryRecord&, const TelemetryRecord&) =
      default;
};

/// One record from the engine's observer arguments (pre-round state +
/// that round's moves) on a symmetric game. Pure, zero RNG; `scratch` is
/// the caller's ex-post table for the imitation-gap pair loop.
TelemetryRecord make_telemetry_record(const CongestionGame& game,
                                      const State& x,
                                      std::span<const Migration> moves,
                                      std::int64_t round, bool final,
                                      ExpostTable& scratch);

/// The class-wise record of an asymmetric game's run on classes.flat(),
/// read through `ctx` (reset on the flat game and the observed state):
/// support sums the class supports and the imitation gap maximizes over
/// same-class (origin, destination) pairs — the asymmetric analog of
/// dynamics/equilibrium.hpp's imitation_gap.
TelemetryRecord make_telemetry_record(const AsymmetricGame& classes,
                                      const LatencyContext& ctx,
                                      std::span<const Migration> moves,
                                      std::int64_t round, bool final,
                                      ExpostTable& scratch);

/// Accumulates a downsampled series through the engine's observer hook.
class TelemetryRecorder {
 public:
  /// Records every `every`-th round (round % every == 0) plus, when the
  /// run converged, the final observer state. With `classes` set the run
  /// is on classes->flat() and every record is the class-wise one;
  /// `classes` must outlive the recorder.
  explicit TelemetryRecorder(std::int64_t every = 1,
                             const AsymmetricGame* classes = nullptr);

  /// The engine observer; the recorder must outlive the run.
  RoundObserver observer() {
    return [this](const CongestionGame& game, const State& x,
                  std::span<const Migration> moves, std::int64_t round,
                  bool final) { observe(game, x, moves, round, final); };
  }

  void observe(const CongestionGame& game, const State& x,
               std::span<const Migration> moves, std::int64_t round,
               bool final);

  /// Emits the buffered final record iff the run converged. Call once,
  /// after the run returns (the engines cannot know convergence at the
  /// final observer call; the caller's RunResult can).
  void finish(bool converged);

  const std::vector<TelemetryRecord>& records() const noexcept {
    return records_;
  }
  std::vector<TelemetryRecord> take_records() {
    return std::move(records_);
  }
  std::int64_t every() const noexcept { return every_; }

 private:
  TelemetryRecord record(const CongestionGame& game, const State& x,
                         std::span<const Migration> moves, std::int64_t round,
                         bool final);

  std::int64_t every_;
  const AsymmetricGame* classes_;
  ExpostTable expost_;  // the imitation-gap scratch, one per run
  bool pending_ = false;
  TelemetryRecord pending_final_;
  std::vector<TelemetryRecord> records_;
};

// ---- Serialization ----------------------------------------------------------

/// Appends the record's data fields (round, phi, l_av, l_plus_av,
/// makespan, movers, support, im_gap) to a JSON object under construction
/// — the caller controls the preamble (version/kind/identity fields), so
/// cid_sim single-trial lines and cid_sweep tagged multi-trial lines share
/// one field-formatting authority (byte-identical doubles).
void append_telemetry_fields(JsonObject& obj, const TelemetryRecord& rec);

/// One standalone JSONL line:
///   {"telemetry_version":1,"kind":"round"|"final","round":...,...}
std::string telemetry_json_line(const TelemetryRecord& rec);

/// CSV header/row mirroring the JSONL fields (same double formatting).
std::string telemetry_csv_header();
std::string telemetry_csv_row(const TelemetryRecord& rec);

/// The series as a console table (4-digit cells, the record fields in
/// CSV order without "kind"): cid_sim's stdout report.
Table telemetry_table(std::span<const TelemetryRecord> records);

/// Writes the series to `path` — CSV when the path ends in ".csv", JSONL
/// otherwise. Fails loudly on I/O errors; reports bytes through
/// record_persist_write like every other writer. Returns bytes written.
std::uint64_t write_telemetry_file(const std::string& path,
                                   std::span<const TelemetryRecord> records);

// ---- Aggregates -------------------------------------------------------------

/// First recorded round where Φ has completed a (1 - frac) share of its
/// total observed drop: the smallest recorded round r with
/// Φ(r) - Φ_last <= frac * (Φ_first - Φ_last). Returns -1 on an empty
/// series, the first round when Φ never dropped.
std::int64_t rounds_to_phi_fraction(std::span<const TelemetryRecord> records,
                                    double frac);

/// The summary row cid_sweep appends per trial ("kind":"summary").
/// rounds_to_eps uses frac = 0.1 by convention (within 10% of the final
/// potential), phi_half_life frac = 0.5.
struct TelemetrySummary {
  double phi_first = 0.0;
  double phi_last = 0.0;
  std::int64_t rounds_to_eps = -1;
  std::int64_t phi_half_life = -1;
};

TelemetrySummary summarize_telemetry(
    std::span<const TelemetryRecord> records);

}  // namespace cid::obs
