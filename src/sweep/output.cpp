#include "sweep/output.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"

namespace cid::sweep {

namespace {

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
  return out;
}

/// Every writer funnels its stream through here before returning: a full
/// disk or yanked mount must fail loudly with the path, never hand the
/// analysis pipeline a silently truncated file. Returns the bytes written.
std::uint64_t finish_or_throw(std::ofstream& out, const std::string& path) {
  out.flush();
  if (!out) {
    throw std::runtime_error("write failed (disk full?) for '" + path + "'");
  }
  const auto pos = out.tellp();
  const std::uint64_t bytes = pos < 0 ? 0 : static_cast<std::uint64_t>(pos);
  obs::record_persist_write(bytes, /*fsyncs=*/0);
  obs::record_persist_flush();
  return bytes;
}

// Full-precision doubles: round-tripping matters more than prettiness in
// machine-readable output (the determinism test diffs these files).
std::string num(double v) { return obs::format_round_trip(v); }

/// The identity fields every JSONL line starts with.
obs::JsonObject key_fields(const CellKey& key) {
  obs::JsonObject obj;
  obj.num("cell", std::int64_t{key.cell});
  obj.str("scenario", key.scenario);
  obj.str("protocol", key.protocol);
  obj.num("n", key.n);
  return obj;
}

}  // namespace

std::uint64_t write_trials_csv(const std::string& path,
                               const SweepResult& result) {
  auto out = open_or_throw(path);
  out << "cell,scenario,protocol,n,trial,rounds,converged,movers,potential,"
         "social_cost\n";
  for (const TrialRow& row : result.trials) {
    out << row.key.cell << ',' << row.key.scenario << ',' << row.key.protocol
        << ',' << row.key.n << ',' << row.trial << ','
        << num(row.outcome.rounds) << ',' << (row.outcome.converged ? 1 : 0)
        << ',' << row.outcome.movers << ',' << num(row.outcome.potential)
        << ',' << num(row.outcome.social_cost) << '\n';
  }
  return finish_or_throw(out, path);
}

std::uint64_t write_cells_csv(const std::string& path,
                              const SweepResult& result) {
  auto out = open_or_throw(path);
  out << "cell,scenario,protocol,n,trials,rounds_mean,rounds_sem,"
         "rounds_median,rounds_min,rounds_max,fraction_converged,"
         "mean_potential,mean_social_cost,mean_movers,wall_seconds\n";
  for (const CellRow& row : result.cells) {
    out << row.key.cell << ',' << row.key.scenario << ',' << row.key.protocol
        << ',' << row.key.n << ',' << row.trials << ','
        << num(row.rounds.mean) << ',' << num(row.rounds_sem) << ','
        << num(row.rounds.median) << ',' << num(row.rounds.min) << ','
        << num(row.rounds.max) << ',' << num(row.fraction_converged) << ','
        << num(row.mean_potential) << ',' << num(row.mean_social_cost) << ','
        << num(row.mean_movers) << ',' << num(row.wall_seconds) << '\n';
  }
  return finish_or_throw(out, path);
}

std::uint64_t write_trials_jsonl(const std::string& path,
                                 const SweepResult& result) {
  auto out = open_or_throw(path);
  for (const TrialRow& row : result.trials) {
    obs::JsonObject obj = key_fields(row.key);
    obj.num("trial", std::int64_t{row.trial});
    obj.num("rounds", row.outcome.rounds);
    obj.raw("converged", row.outcome.converged ? "true" : "false");
    obj.num("movers", row.outcome.movers);
    obj.num("potential", row.outcome.potential);
    obj.num("social_cost", row.outcome.social_cost);
    out << obj.take() << '\n';
  }
  return finish_or_throw(out, path);
}

std::uint64_t write_cells_jsonl(const std::string& path,
                                const SweepResult& result) {
  auto out = open_or_throw(path);
  for (const CellRow& row : result.cells) {
    obs::JsonObject obj = key_fields(row.key);
    obj.num("trials", std::int64_t{row.trials});
    obj.num("rounds_mean", row.rounds.mean);
    obj.num("rounds_sem", row.rounds_sem);
    obj.num("rounds_median", row.rounds.median);
    obj.num("rounds_min", row.rounds.min);
    obj.num("rounds_max", row.rounds.max);
    obj.num("fraction_converged", row.fraction_converged);
    obj.num("mean_potential", row.mean_potential);
    obj.num("mean_social_cost", row.mean_social_cost);
    obj.num("mean_movers", row.mean_movers);
    obj.num("wall_seconds", row.wall_seconds);
    out << obj.take() << '\n';
  }
  return finish_or_throw(out, path);
}

std::vector<WrittenFile> write_sweep_outputs(const std::string& prefix,
                                             const SweepResult& result) {
  std::vector<WrittenFile> files;
  files.push_back({prefix + "_trials.csv", 0});
  files.back().bytes = write_trials_csv(files.back().path, result);
  files.push_back({prefix + "_cells.csv", 0});
  files.back().bytes = write_cells_csv(files.back().path, result);
  files.push_back({prefix + "_trials.jsonl", 0});
  files.back().bytes = write_trials_jsonl(files.back().path, result);
  files.push_back({prefix + "_cells.jsonl", 0});
  files.back().bytes = write_cells_jsonl(files.back().path, result);
  return files;
}

}  // namespace cid::sweep
