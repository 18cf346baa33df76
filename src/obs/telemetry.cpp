#include "obs/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "dynamics/equilibrium.hpp"
#include "game/expost_table.hpp"
#include "game/latency_context.hpp"
#include "game/singleton.hpp"
#include "util/stats.hpp"

namespace cid::obs {

TelemetryRecord make_telemetry_record(const CongestionGame& game,
                                      const State& x,
                                      std::span<const Migration> moves,
                                      std::int64_t round, bool final,
                                      ExpostTable& scratch) {
  TelemetryRecord rec;
  rec.round = round;
  rec.final_record = final;
  // Exact recomputation per sampled round, NOT an incremental tracker:
  // cross-round accumulator state would make a resumed series diverge
  // from the uninterrupted one at the last ulp.
  rec.phi = game.potential(x);
  rec.l_av = game.average_latency(x);
  rec.l_plus_av = game.plus_average_latency(x);
  rec.makespan = makespan(game, x);
  for (const Migration& mv : moves) rec.movers += mv.count;
  rec.support = static_cast<std::int64_t>(x.support().size());
  LatencyContext ctx;
  ctx.reset(game, x);
  rec.im_gap = imitation_gap(ctx, scratch);
  return rec;
}

TelemetryRecord make_telemetry_record(const AsymmetricGame& classes,
                                      const LatencyContext& ctx,
                                      std::span<const Migration> moves,
                                      std::int64_t round, bool final,
                                      ExpostTable& scratch) {
  TelemetryRecord rec;
  rec.round = round;
  rec.final_record = final;
  const State& x = ctx.state();
  rec.phi = classes.flat().potential(x);
  for (const Migration& mv : moves) rec.movers += mv.count;
  const std::span<const std::int64_t> counts = x.counts();
  const auto n = static_cast<double>(classes.num_players());
  NeumaierSum av;
  NeumaierSum plus_av;
  double worst = 0.0;
  double gap = 0.0;
  scratch.sync(ctx);
  for (std::int32_t c = 0; c < classes.num_classes(); ++c) {
    const StrategyId begin = classes.class_offset(c);
    const StrategyId end = classes.class_offset(c + 1);
    for (StrategyId p = begin; p < end; ++p) {
      if (counts[static_cast<std::size_t>(p)] <= 0) continue;
      ++rec.support;
      const auto count =
          static_cast<double>(counts[static_cast<std::size_t>(p)]);
      const double lp = ctx.strategy_latency(p);
      av.add(count * lp);
      worst = std::max(worst, lp);
      // ℓ⁺_P = Σ_{e∈P} ℓ_e(x_e + 1) — Definition 1's plus-latency.
      plus_av.add(count * ctx.plus_latency(p));
      // Class-local imitation gap: the asymmetric analog of
      // imitation_gap (dynamics/equilibrium.cpp) — max improvement a
      // class-c player could realize by copying a same-class strategy.
      const OriginView origin(scratch, p);
      for (StrategyId q = begin; q < end; ++q) {
        if (q == p || counts[static_cast<std::size_t>(q)] <= 0) continue;
        gap = std::max(gap, lp - origin.expost_latency(q));
      }
    }
  }
  rec.l_av = av.value() / n;
  rec.l_plus_av = plus_av.value() / n;
  rec.makespan = worst;
  rec.im_gap = gap;
  return rec;
}

TelemetryRecorder::TelemetryRecorder(std::int64_t every,
                                     const AsymmetricGame* classes)
    : every_(every), classes_(classes) {
  if (every_ < 1) throw std::invalid_argument("telemetry every must be >= 1");
}

TelemetryRecord TelemetryRecorder::record(const CongestionGame& game,
                                          const State& x,
                                          std::span<const Migration> moves,
                                          std::int64_t round, bool final) {
  if (classes_ == nullptr) {
    return make_telemetry_record(game, x, moves, round, final, expost_);
  }
  LatencyContext ctx;
  ctx.reset(game, x);
  return make_telemetry_record(*classes_, ctx, moves, round, final, expost_);
}

void TelemetryRecorder::observe(const CongestionGame& game, const State& x,
                                std::span<const Migration> moves,
                                std::int64_t round, bool final) {
  if (final) {
    pending_final_ = record(game, x, moves, round, true);
    pending_ = true;
    return;
  }
  if (round % every_ != 0) return;
  records_.push_back(record(game, x, moves, round, false));
}

void TelemetryRecorder::finish(bool converged) {
  if (pending_ && converged) records_.push_back(pending_final_);
  pending_ = false;
}

// ---- Serialization ----------------------------------------------------------

void append_telemetry_fields(JsonObject& obj, const TelemetryRecord& rec) {
  obj.num("round", rec.round);
  obj.num("phi", rec.phi);
  obj.num("l_av", rec.l_av);
  obj.num("l_plus_av", rec.l_plus_av);
  obj.num("makespan", rec.makespan);
  obj.num("movers", rec.movers);
  obj.num("support", rec.support);
  obj.num("im_gap", rec.im_gap);
}

std::string telemetry_json_line(const TelemetryRecord& rec) {
  JsonObject obj;
  obj.num("telemetry_version", std::int64_t{kTelemetryVersion});
  obj.str("kind", rec.final_record ? "final" : "round");
  append_telemetry_fields(obj, rec);
  return obj.take();
}

std::string telemetry_csv_header() {
  return "kind,round,phi,l_av,l_plus_av,makespan,movers,support,im_gap";
}

std::string telemetry_csv_row(const TelemetryRecord& rec) {
  std::string row = rec.final_record ? "final" : "round";
  row += ',';
  row += std::to_string(rec.round);
  row += ',';
  row += format_round_trip(rec.phi);
  row += ',';
  row += format_round_trip(rec.l_av);
  row += ',';
  row += format_round_trip(rec.l_plus_av);
  row += ',';
  row += format_round_trip(rec.makespan);
  row += ',';
  row += std::to_string(rec.movers);
  row += ',';
  row += std::to_string(rec.support);
  row += ',';
  row += format_round_trip(rec.im_gap);
  return row;
}

Table telemetry_table(std::span<const TelemetryRecord> records) {
  Table table({"round", "phi", "l_av", "l_plus_av", "makespan", "movers",
               "support", "im_gap"});
  for (const TelemetryRecord& rec : records) {
    table.row()
        .cell(rec.round)
        .cell(rec.phi)
        .cell(rec.l_av)
        .cell(rec.l_plus_av)
        .cell(rec.makespan)
        .cell(rec.movers)
        .cell(rec.support)
        .cell(rec.im_gap);
  }
  return table;
}

std::uint64_t write_telemetry_file(
    const std::string& path, std::span<const TelemetryRecord> records) {
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  std::string out;
  if (csv) {
    out += telemetry_csv_header();
    out += '\n';
  }
  for (const TelemetryRecord& rec : records) {
    out += csv ? telemetry_csv_row(rec) : telemetry_json_line(rec);
    out += '\n';
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open telemetry output: " + path);
  }
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool ok = written == out.size() && std::fclose(f) == 0;
  if (!ok) {
    throw std::runtime_error("short write on telemetry output: " + path);
  }
  record_persist_write(out.size(), 0);
  return out.size();
}

// ---- Aggregates -------------------------------------------------------------

std::int64_t rounds_to_phi_fraction(std::span<const TelemetryRecord> records,
                                    double frac) {
  if (records.empty()) return -1;
  const double phi_first = records.front().phi;
  const double phi_last = records.back().phi;
  const double drop = phi_first - phi_last;
  if (!(drop > 0.0)) return records.front().round;
  for (const TelemetryRecord& rec : records) {
    if (rec.phi - phi_last <= frac * drop) return rec.round;
  }
  return records.back().round;
}

TelemetrySummary summarize_telemetry(
    std::span<const TelemetryRecord> records) {
  TelemetrySummary summary;
  if (records.empty()) return summary;
  summary.phi_first = records.front().phi;
  summary.phi_last = records.back().phi;
  summary.rounds_to_eps = rounds_to_phi_fraction(records, 0.1);
  summary.phi_half_life = rounds_to_phi_fraction(records, 0.5);
  return summary;
}

}  // namespace cid::obs
