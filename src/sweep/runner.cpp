#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/sink.hpp"
#include "obs/trace_span.hpp"
#include "persist/binio.hpp"
#include "persist/manifest.hpp"
#include "sweep/pool.hpp"
#include "sweep/shard.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace cid::sweep {

namespace {

/// One grid number; the whole token must be read ("100x" is refused).
double parse_axis_number(const std::string& token) {
  std::size_t used = 0;
  const double value = std::stod(token, &used);
  if (used != token.size()) {
    throw std::runtime_error("bad number '" + token + "'");
  }
  return value;
}

std::vector<double> split_numbers(const std::string& text, char sep) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t next = text.find(sep, pos);
    const std::string token =
        text.substr(pos, next == std::string::npos ? next : next - pos);
    if (token.empty()) throw std::runtime_error("empty value in '" + text + "'");
    out.push_back(parse_axis_number(token));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

void push_unique(std::vector<std::int64_t>& values, double v) {
  const auto rounded = static_cast<std::int64_t>(std::llround(v));
  if (rounded < 1) throw std::runtime_error("grid values must be >= 1");
  // Global dedupe (first occurrence wins): a duplicated n would produce two
  // cells with the same (scenario, protocol, n) key but different streams.
  if (std::find(values.begin(), values.end(), rounded) == values.end()) {
    values.push_back(rounded);
  }
}

}  // namespace

std::vector<std::int64_t> parse_grid_axis(const std::string& spec) {
  std::string body = spec;
  const auto eq = body.find('=');
  if (eq != std::string::npos) body = body.substr(eq + 1);
  if (body.empty()) throw std::runtime_error("empty grid spec");

  std::vector<std::int64_t> values;
  if (body.find(':') == std::string::npos) {
    for (double v : split_numbers(body, ',')) push_unique(values, v);
    return values;
  }

  // A:B:scale[:K]
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= body.size()) {
    const std::size_t next = body.find(':', pos);
    parts.push_back(
        body.substr(pos, next == std::string::npos ? next : next - pos));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  if (parts.size() < 3 || parts.size() > 4) {
    throw std::runtime_error("expected A:B:log|lin[:K] in '" + spec + "'");
  }
  const double lo = parse_axis_number(parts[0]);
  const double hi = parse_axis_number(parts[1]);
  const std::string& scale = parts[2];
  if (!(lo >= 1.0 && hi >= lo && std::isfinite(hi))) {
    throw std::runtime_error("grid range requires 1 <= A <= B < inf");
  }
  // The point count K, read whole ("3y" is refused).
  const auto count = [&]() -> int {
    if (parts.size() < 4) return 5;
    int k = 0;
    const std::string& text = parts[3];
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), k);
    if (ec != std::errc() || end != text.data() + text.size()) {
      throw std::runtime_error("bad point count '" + text + "'");
    }
    return k;
  };
  if (scale == "log") {
    if (parts.size() == 4) {
      const int k = count();
      if (k < 2) throw std::runtime_error("log grid needs K >= 2 points");
      for (int i = 0; i < k; ++i) {
        const double t = static_cast<double>(i) / static_cast<double>(k - 1);
        push_unique(values, lo * std::pow(hi / lo, t));
      }
    } else {
      for (double v = lo; v < hi * (1.0 + 1e-12); v *= 10.0) {
        push_unique(values, v);
      }
      push_unique(values, hi);
    }
  } else if (scale == "lin") {
    const int k = count();
    if (k < 2) throw std::runtime_error("lin grid needs K >= 2 points");
    for (int i = 0; i < k; ++i) {
      const double t = static_cast<double>(i) / static_cast<double>(k - 1);
      push_unique(values, lo + (hi - lo) * t);
    }
  } else {
    throw std::runtime_error("unknown grid scale '" + scale +
                             "' (expected log|lin)");
  }
  return values;
}

std::vector<ProtocolSpec> parse_protocol_list(const std::string& csv) {
  std::vector<ProtocolSpec> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t next = csv.find(',', pos);
    const std::string token =
        csv.substr(pos, next == std::string::npos ? next : next - pos);
    if (token.empty()) {
      throw std::runtime_error("empty protocol in '" + csv + "'");
    }
    out.push_back(parse_protocol_spec(token));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

std::int64_t parse_int_flag(const std::string& flag, std::string_view value,
                            std::int64_t min, std::int64_t max) {
  std::int64_t parsed = 0;
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, parsed);
  const bool overflow = ec == std::errc::result_out_of_range;
  if (end != last || (ec != std::errc() && !overflow)) {
    throw UsageError(flag + " must be a whole number");
  }
  // On overflow `parsed` is untouched; the sign says which end was passed.
  if (overflow ? value.front() == '-' : parsed < min) {
    throw UsageError(flag + " must be >= " + std::to_string(min));
  }
  if (overflow || parsed > max) {
    throw UsageError(flag + " must be <= " + std::to_string(max));
  }
  return parsed;
}

double parse_double_flag(const std::string& flag, std::string_view value,
                         double min, double max) {
  double parsed = 0.0;
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, parsed);
  if (end != last || ec != std::errc() || !std::isfinite(parsed)) {
    throw UsageError(flag + " must be a number");
  }
  if (parsed < min) {
    throw UsageError(flag + " must be >= " + obs::format_round_trip(min));
  }
  if (parsed > max) {
    throw UsageError(flag + " must be <= " + obs::format_round_trip(max));
  }
  return parsed;
}

GridFlags::GridFlags() {
  grid.ns = parse_grid_axis("1000:100000:log");
  grid.protocols = parse_protocol_list("imitation");
}

bool parse_grid_flag(int argc, char** argv, int& i, GridFlags& flags) {
  const std::string flag = argv[i];
  const auto value = [&]() -> std::string {
    if (i + 1 >= argc) throw UsageError("missing value for flag");
    return argv[++i];
  };
  SweepGrid& grid = flags.grid;
  DynamicsConfig& dynamics = grid.dynamics;
  if (flag == "--scenario") {
    grid.scenario.name = value();
  } else if (flag == "--grid") {
    grid.ns = parse_grid_axis(value());
  } else if (flag == "--protocols") {
    grid.protocols = parse_protocol_list(value());
  } else if (flag == "--trials") {
    grid.trials = static_cast<int>(
        parse_int_flag(flag, value(), 1, std::numeric_limits<int>::max()));
  } else if (flag == "--seed") {
    grid.master_seed =
        static_cast<std::uint64_t>(parse_int_flag(flag, value(), 0));
  } else if (flag == "--rounds") {
    dynamics.max_rounds = parse_int_flag(flag, value(), 0);
  } else if (flag == "--check-interval") {
    dynamics.check_interval = parse_int_flag(flag, value(), 1);
  } else if (flag == "--stop") {
    const std::string v = value();
    try {
      const StopSpec stop = parse_stop(v);
      dynamics.stop = stop.rule;
      dynamics.delta = stop.delta;
      dynamics.eps = stop.eps;
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
  } else if (flag == "--engine") {
    const std::string v = value();
    if (v == "aggregate") {
      dynamics.mode = EngineMode::kAggregate;
    } else if (v == "perplayer") {
      dynamics.mode = EngineMode::kPerPlayer;
    } else {
      throw UsageError("unknown engine");
    }
  } else if (flag == "--param") {
    const std::string kv = value();
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw UsageError("expected --param K=V");
    }
    grid.scenario.params[kv.substr(0, eq)] = parse_double_flag(
        "--param " + kv.substr(0, eq), std::string_view(kv).substr(eq + 1));
  } else if (flag == "--lambda") {
    flags.lambda = parse_double_flag(flag, value());
  } else {
    return false;
  }
  return true;
}

SweepGrid finish_grid_flags(const GridFlags& flags) {
  SweepGrid grid = flags.grid;
  if (grid.scenario.name.empty()) throw UsageError("--scenario is required");
  if (flags.lambda <= 0.0 || flags.lambda > 1.0) {
    throw UsageError("lambda out of (0,1]");
  }
  const Scenario* scenario = find_scenario(grid.scenario.name);
  for (ProtocolSpec& protocol : grid.protocols) {
    if (scenario != nullptr && scenario->imitation_only &&
        protocol.name != "imitation") {
      throw UsageError("scenario '" + scenario->name +
                       "' runs only the imitation protocol");
    }
    protocol.lambda = flags.lambda;
  }
  return grid;
}

Rng derive_trial_rng(std::uint64_t master_seed, std::uint32_t cell,
                     std::uint32_t trial) {
  Rng grid_master(master_seed);
  Rng cell_master = grid_master.split(static_cast<std::uint64_t>(cell));
  // split() advances its parent, but this cell master is a fresh copy, so
  // one keyed split gives trial t its stream with no replay of the others.
  return cell_master.split(static_cast<std::uint64_t>(trial));
}

TrialAttempts run_trial_attempts(
    const ScenarioInstance& instance, const ProtocolSpec& protocol,
    const DynamicsConfig& dynamics, const Rng& rng, TrialStats* stats,
    int max_attempts, double backoff_ms, double backoff_max_ms,
    const std::function<void(int attempt, const std::string& error)>&
        on_retry) {
  TrialAttempts result;
  max_attempts = std::max(1, max_attempts);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    Rng trial_rng = rng;
    if (stats != nullptr) *stats = TrialStats{};
    try {
      if (util::faults_armed()) {
        const util::FaultAction fault = util::fault_point("sweep.trial");
        if (fault.kind != util::FaultKind::kNone) {
          throw std::runtime_error("injected trial fault (" + fault.detail +
                                   ")");
        }
      }
      result.outcome =
          instance.run_trial(protocol, dynamics, trial_rng, stats);
      return result;
    } catch (const util::fault_crash&) {
      throw;
    } catch (const std::exception& e) {
      result.error = e.what();
      if (attempt >= max_attempts) break;
      on_retry(attempt, result.error);
      if (backoff_ms > 0.0) {
        double delay_ms = backoff_ms;
        for (int d = 1; d < attempt; ++d) delay_ms *= 2.0;
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            std::min(delay_ms, backoff_max_ms)));
      }
    }
  }
  return result;
}

SweepResult run_sweep(const SweepGrid& grid, const SweepOptions& options) {
  CID_ENSURE(!grid.ns.empty(), "sweep needs at least one n");
  CID_ENSURE(!grid.protocols.empty(), "sweep needs at least one protocol");
  CID_ENSURE(grid.trials >= 1, "sweep needs at least one trial");
  CID_ENSURE(options.shard_count >= 1, "shard count must be >= 1");
  CID_ENSURE(options.shard_index >= 0 &&
                 options.shard_index < options.shard_count,
             "shard index must be in [0, shard_count)");

  // Instances are built once per n (they can be expensive — path
  // enumeration, MaxCut generation) and shared read-only across all of
  // that n's cells and trials.
  std::vector<std::unique_ptr<ScenarioInstance>> instances;
  instances.reserve(grid.ns.size());
  const std::int64_t build_start_ns = obs::now_ns();
  for (std::int64_t n : grid.ns) {
    instances.push_back(make_scenario(grid.scenario, n));
  }
  const std::int64_t instance_build_ns = obs::now_ns() - build_start_ns;

  const std::size_t num_protocols = grid.protocols.size();
  const std::size_t num_cells = grid.ns.size() * num_protocols;
  const auto trials_per_cell = static_cast<std::size_t>(grid.trials);

  struct Job {
    std::size_t n_index = 0;
    std::size_t protocol_index = 0;
    Rng rng{1};
  };
  std::vector<Job> jobs;
  jobs.reserve(num_cells * trials_per_cell);
  // Stream derivation: a keyed split of the cell master per trial, O(1)
  // each and a pure function of master_seed, so scheduling cannot perturb
  // it. derive_trial_rng is the shared authority (the cid_serve worker
  // derives leased trials through the same function).
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    for (std::size_t t = 0; t < trials_per_cell; ++t) {
      Job job;
      job.n_index = cell / num_protocols;
      job.protocol_index = cell % num_protocols;
      job.rng = derive_trial_rng(grid.master_seed,
                                 static_cast<std::uint32_t>(cell),
                                 static_cast<std::uint32_t>(t));
      jobs.push_back(job);
    }
  }

  SweepResult result;
  result.trials.resize(jobs.size());
  // Keys are a pure function of the grid; fill them serially for every
  // trial (run, resumed, or skipped by budget alike).
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    TrialRow& row = result.trials[i];
    const Job& job = jobs[i];
    row.key.cell =
        static_cast<std::int32_t>(job.n_index * num_protocols +
                                  job.protocol_index);
    row.key.scenario = grid.scenario.name;
    row.key.protocol = grid.protocols[job.protocol_index].name;
    row.key.n = grid.ns[job.n_index];
    row.trial = static_cast<int>(i % trials_per_cell);
  }

  // Resumable mode: load previously completed trials from the manifest
  // (fingerprint-checked against this grid) and append new completions.
  std::optional<persist::ManifestWriter> manifest;
  std::mutex manifest_mutex;
  std::vector<char> done(jobs.size(), 0);
  if (!options.manifest_path.empty()) {
    if (std::filesystem::exists(options.manifest_path)) {
      const persist::ManifestContents contents =
          persist::load_manifest(options.manifest_path, grid);
      for (const auto& [key, outcome] : contents.completed) {
        const std::size_t i =
            static_cast<std::size_t>(key.first) * trials_per_cell +
            static_cast<std::size_t>(key.second);
        result.trials[i].outcome = outcome;
        done[i] = 1;
        ++result.resumed_trials;
      }
      manifest.emplace(persist::ManifestWriter::open_for_append(
          options.manifest_path, grid));
    } else {
      manifest.emplace(
          persist::ManifestWriter::create(options.manifest_path, grid));
    }
    manifest->set_flush_every(options.manifest_flush_every);
    manifest->set_rotate_bytes(options.manifest_rotate_bytes);
  }

  // Pending jobs in deterministic grid order, truncated to the budget.
  // Sharded mode keeps only this shard's trials — the assignment is a
  // pure function of (grid fingerprint, cell, trial), so every shard of a
  // grid agrees on the partition without coordinating.
  result.sharded = options.shard_count > 1;
  const std::uint64_t shard_fingerprint =
      result.sharded ? persist::grid_fingerprint(grid) : 0;
  std::vector<std::size_t> pending;
  pending.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (done[i]) continue;
    if (result.sharded &&
        trial_shard(shard_fingerprint,
                    static_cast<std::uint32_t>(i / trials_per_cell),
                    static_cast<std::uint32_t>(i % trials_per_cell),
                    options.shard_count) != options.shard_index) {
      continue;
    }
    pending.push_back(i);
  }
  if (options.max_new_trials >= 0 &&
      pending.size() > static_cast<std::size_t>(options.max_new_trials)) {
    pending.resize(static_cast<std::size_t>(options.max_new_trials));
    result.complete = false;
  }
  result.ran_trials = pending.size();

  // Progress meter keyed per cell (label "protocol n=..."); totals count
  // only this invocation's pending trials, so a resumed sweep reports the
  // remaining work, not the whole grid.
  std::unique_ptr<obs::ProgressMeter> meter;
  if (options.progress && options.progress_every_seconds > 0.0) {
    std::vector<std::string> labels;
    std::vector<std::int64_t> totals(num_cells, 0);
    labels.reserve(num_cells);
    for (std::size_t cell = 0; cell < num_cells; ++cell) {
      const CellKey& key = result.trials[cell * trials_per_cell].key;
      labels.push_back(key.protocol + " n=" + std::to_string(key.n));
    }
    for (const std::size_t i : pending) ++totals[i / trials_per_cell];
    meter = std::make_unique<obs::ProgressMeter>(std::move(labels),
                                                 std::move(totals));
  }

  std::vector<double> wall(jobs.size(), 0.0);
  std::vector<TrialStats> stats(jobs.size());
  std::vector<char> failed(jobs.size(), 0);
  const std::int64_t launch_ns = obs::now_ns();
  std::atomic<std::int64_t> queue_wait_ns{0};
  std::atomic<std::int64_t> trial_run_ns{0};
  std::atomic<std::int64_t> retries{0};
  std::atomic<std::int64_t> watchdog_flags{0};
  std::mutex hook_mutex;
  std::size_t hooks_fired = 0;
  std::mutex failures_mutex;
  std::vector<TrialFailure> failures;
  // Manifest degradation state, guarded by manifest_mutex while workers
  // run: once an append permanently fails the manifest is abandoned (the
  // in-memory results stay complete; only resumability is lost).
  bool manifest_live = manifest.has_value();
  std::string manifest_err;
  // Watchdog bookkeeping: one obs::now_ns start stamp per pending slot
  // (-1 = not currently running).
  struct TrialClock {
    std::atomic<std::int64_t> start_ns{-1};
    std::atomic<bool> flagged{false};
  };
  std::deque<TrialClock> clocks(pending.size());
  {
    // Heartbeat thread, RAII-stopped so a throwing trial cannot leak it.
    struct Monitor {
      std::mutex mutex;
      std::condition_variable cv;
      bool stop = false;
      std::thread thread;
      ~Monitor() {
        if (!thread.joinable()) return;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          stop = true;
        }
        cv.notify_all();
        thread.join();
      }
    } monitor;
    if (meter != nullptr) {
      monitor.thread = std::thread([&] {
        const auto interval =
            std::chrono::duration<double>(options.progress_every_seconds);
        std::unique_lock<std::mutex> lock(monitor.mutex);
        while (!monitor.cv.wait_for(lock, interval,
                                    [&] { return monitor.stop; })) {
          options.progress(meter->snapshot());
        }
      });
    }
    // Wall-clock watchdog: flags (never cancels — C++ threads cannot be
    // safely killed) trials still running past the limit, once each, so a
    // hung sweep names its stuck trial instead of sitting silent.
    Monitor watchdog;
    if (options.watchdog_seconds > 0.0) {
      watchdog.thread = std::thread([&] {
        const auto limit_ns =
            static_cast<std::int64_t>(options.watchdog_seconds * 1e9);
        const auto poll = std::chrono::duration<double>(
            std::max(0.01, std::min(1.0, options.watchdog_seconds / 4.0)));
        std::unique_lock<std::mutex> lock(watchdog.mutex);
        while (!watchdog.cv.wait_for(lock, poll,
                                     [&] { return watchdog.stop; })) {
          const std::int64_t now = obs::now_ns();
          for (std::size_t p = 0; p < pending.size(); ++p) {
            const std::int64_t start =
                clocks[p].start_ns.load(std::memory_order_relaxed);
            if (start < 0 || now - start < limit_ns) continue;
            if (clocks[p].flagged.exchange(true, std::memory_order_relaxed)) {
              continue;
            }
            watchdog_flags.fetch_add(1, std::memory_order_relaxed);
            const TrialRow& row = result.trials[pending[p]];
            std::fprintf(stderr,
                         "cid sweep: WATCHDOG trial (%s n=%lld trial=%d) "
                         "still running after %.1f s\n",
                         row.key.protocol.c_str(),
                         static_cast<long long>(row.key.n), row.trial,
                         options.watchdog_seconds);
          }
        }
      });
    }
    parallel_for(
        static_cast<std::int64_t>(pending.size()), options.threads,
        [&](std::int64_t p) {
          const std::size_t i = pending[static_cast<std::size_t>(p)];
          const Job& job = jobs[i];
          TrialRow& row = result.trials[i];
          const std::int64_t start_ns = obs::now_ns();
          queue_wait_ns.fetch_add(start_ns - launch_ns,
                                  std::memory_order_relaxed);
          clocks[static_cast<std::size_t>(p)].start_ns.store(
              start_ns, std::memory_order_relaxed);
          const WallTimer timer;
          const int max_attempts = std::max(1, options.trial_max_attempts);
          const TrialAttempts attempts = run_trial_attempts(
              *instances[job.n_index], grid.protocols[job.protocol_index],
              grid.dynamics, job.rng, &stats[i], max_attempts,
              options.retry_backoff_ms, options.retry_backoff_max_ms,
              [&](int attempt, const std::string& error) {
                retries.fetch_add(1, std::memory_order_relaxed);
                std::fprintf(stderr,
                             "cid sweep: trial (%s n=%lld trial=%d) attempt "
                             "%d/%d failed (%s) — retrying\n",
                             row.key.protocol.c_str(),
                             static_cast<long long>(row.key.n), row.trial,
                             attempt, max_attempts, error.c_str());
              });
          wall[i] = timer.seconds();
          clocks[static_cast<std::size_t>(p)].start_ns.store(
              -1, std::memory_order_relaxed);
          const std::int64_t end_ns = obs::now_ns();
          trial_run_ns.fetch_add(end_ns - start_ns,
                                 std::memory_order_relaxed);
          if (!attempts.outcome) {
            // Permanently failed: default outcome, no manifest record
            // (a resume re-runs it), no per-trial hook — but the meter
            // still advances so progress reaches 100%.
            std::fprintf(stderr,
                         "cid sweep: trial (%s n=%lld trial=%d) FAILED "
                         "after %d attempt(s): %s\n",
                         row.key.protocol.c_str(),
                         static_cast<long long>(row.key.n), row.trial,
                         max_attempts, attempts.error.c_str());
            TrialFailure failure;
            failure.trial_index = i;
            failure.key = row.key;
            failure.trial = row.trial;
            failure.attempts = max_attempts;
            failure.error = attempts.error;
            {
              const std::lock_guard<std::mutex> lock(failures_mutex);
              failures.push_back(std::move(failure));
            }
            failed[i] = 1;
            stats[i] = TrialStats{};
            if (meter != nullptr) {
              meter->on_trial_done(i / trials_per_cell, 0);
            }
            return;
          }
          const TrialOutcome& outcome = *attempts.outcome;
          // One complete span per trial on the worker's own timeline.
          // Workers run trials serially, so per-thread spans never
          // overlap; queue wait rides along as an arg rather than its
          // own span to keep the per-tid nesting clean.
          if (obs::trace_enabled()) {
            obs::JsonObject args;
            args.str("scenario", row.key.scenario);
            args.str("protocol", row.key.protocol);
            args.num("n", row.key.n);
            args.num("cell", std::int64_t{row.key.cell});
            args.num("trial", std::int64_t{row.trial});
            args.num("queue_wait_ns", start_ns - launch_ns);
            args.num("rounds", static_cast<std::int64_t>(outcome.rounds));
            obs::trace_emit("sweep.trial", start_ns, end_ns, args.take());
          }
          row.outcome = outcome;
          if (manifest.has_value()) {
            const std::lock_guard<std::mutex> lock(manifest_mutex);
            if (manifest_live) {
              try {
                manifest->append(static_cast<std::uint32_t>(row.key.cell),
                                 static_cast<std::uint32_t>(row.trial),
                                 outcome);
              } catch (const util::fault_crash&) {
                throw;
              } catch (const persist::persist_error& e) {
                // Degrade, don't die: the run's results stay complete in
                // memory; only resumability of later trials is lost.
                manifest_live = false;
                manifest_err = e.what();
                std::fprintf(
                    stderr,
                    "cid sweep: %s — manifest disabled for the rest of this "
                    "run (trials completing from here are not recorded for "
                    "resume)\n",
                    e.what());
              }
            }
          }
          if (meter != nullptr) {
            meter->on_trial_done(
                i / trials_per_cell,
                static_cast<std::int64_t>(outcome.rounds));
          }
          if (options.on_trial_done) {
            const std::lock_guard<std::mutex> lock(hook_mutex);
            options.on_trial_done(row, stats[i], ++hooks_fired,
                                  pending.size());
          }
        });
  }
  // One final heartbeat after the pool drains (still under the same
  // "reporting only" contract).
  if (meter != nullptr) options.progress(meter->snapshot());
  if (manifest.has_value()) {
    try {
      manifest->close();
    } catch (const persist::persist_error& e) {
      if (manifest_live) {
        manifest_live = false;
        manifest_err = e.what();
        std::fprintf(stderr,
                     "cid sweep: %s — manifest close failed (the file may "
                     "be missing its final records)\n",
                     e.what());
      }
    }
  }
  result.manifest_degraded = manifest.has_value() && !manifest_live;
  result.manifest_error = manifest_err;
  // Workers append failures in completion order (scheduling-dependent);
  // report them deterministically.
  std::sort(failures.begin(), failures.end(),
            [](const TrialFailure& a, const TrialFailure& b) {
              return a.trial_index < b.trial_index;
            });
  result.failures = std::move(failures);
  result.trial_retries = retries.load(std::memory_order_relaxed);
  result.watchdog_flags = watchdog_flags.load(std::memory_order_relaxed);
  for (const std::size_t i : pending) {
    if (failed[i]) continue;
    result.ran_rounds +=
        static_cast<std::int64_t>(result.trials[i].outcome.rounds);
    result.latency_evals += stats[i].latency_evals;
    result.engine.merge(stats[i].engine);
  }
  result.queue_wait_ns = queue_wait_ns.load(std::memory_order_relaxed);
  result.trial_run_ns = trial_run_ns.load(std::memory_order_relaxed);
  result.instance_build_ns = instance_build_ns;
  result.stats = std::move(stats);
  // Cells stay un-aggregated when the grid was not fully run here: budget
  // cut (complete = false) or sharding (other shards hold the rest).
  if (!result.complete || result.sharded) return result;

  result.cells.reserve(num_cells);
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    const std::size_t base = cell * trials_per_cell;
    CellRow row;
    row.key = result.trials[base].key;
    std::vector<double> rounds;
    rounds.reserve(trials_per_cell);
    RunningStat rs;
    int converged = 0;
    int included = 0;
    for (std::size_t t = 0; t < trials_per_cell; ++t) {
      if (failed[base + t]) continue;  // failed trials must not skew cells
      const TrialRow& trial = result.trials[base + t];
      rounds.push_back(trial.outcome.rounds);
      rs.add(trial.outcome.rounds);
      converged += trial.outcome.converged ? 1 : 0;
      row.mean_potential += trial.outcome.potential;
      row.mean_social_cost += trial.outcome.social_cost;
      row.mean_movers += static_cast<double>(trial.outcome.movers);
      row.wall_seconds += wall[base + t];
      ++included;
    }
    row.trials = included;
    if (included > 0) {
      const auto count = static_cast<double>(included);
      row.rounds = summarize(rounds);
      row.rounds_sem = rs.sem();
      row.fraction_converged = static_cast<double>(converged) / count;
      row.mean_potential /= count;
      row.mean_social_cost /= count;
      row.mean_movers /= count;
    }
    result.cells.push_back(std::move(row));
  }
  return result;
}

}  // namespace cid::sweep
