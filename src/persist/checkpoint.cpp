#include "persist/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>
#include <vector>

#include "persist/binio.hpp"
#include "protocols/factory.hpp"

namespace cid::persist {

namespace {

/// Enumerates the "<path>.r<round>" checkpoint set as (round, path) pairs.
std::vector<std::pair<std::int64_t, std::string>> list_checkpoint_set(
    const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path full(path);
  const fs::path dir =
      full.parent_path().empty() ? fs::path(".") : full.parent_path();
  const std::string stem = full.filename().string() + ".r";

  std::vector<std::pair<std::int64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= stem.size() || name.compare(0, stem.size(), stem) != 0) {
      continue;
    }
    const std::string digits = name.substr(stem.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::stoll(digits), entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

Checkpointer::Checkpointer(const CongestionGame& game, const Rng& rng,
                           CheckpointConfig checkpoint, SimConfig sim)
    : game_(game),
      rng_(rng),
      checkpoint_(std::move(checkpoint)),
      sim_(std::move(sim)) {
  if (checkpoint_.path.empty()) {
    throw persist_error("checkpoint path must not be empty");
  }
  if (checkpoint_.every < 0) {
    throw persist_error("checkpoint cadence must be >= 0");
  }
  if (checkpoint_.keep_last < 0) {
    throw persist_error("checkpoint keep_last must be >= 0");
  }
}

void Checkpointer::write_now(const State& x, std::int64_t round) const {
  const std::string path =
      checkpoint_.keep_last >= 1
          ? checkpoint_.path + ".r" + std::to_string(round)
          : checkpoint_.path;
  save_snapshot(make_snapshot(game_, x, rng_, round, sim_), path);
  if (checkpoint_.keep_last >= 1) {
    prune_checkpoints(checkpoint_.path, checkpoint_.keep_last);
  }
}

RoundObserver Checkpointer::observer() const {
  return checkpoint_cadence(
      checkpoint_.every, 0,
      [this](const State& x, std::int64_t round, std::int64_t) {
        write_now(x, round);
      });
}

RoundObserver chain_observers(RoundObserver first, RoundObserver second) {
  if (!first) return second;
  if (!second) return first;
  return [first = std::move(first), second = std::move(second)](
             const CongestionGame& game, const State& x,
             std::span<const Migration> moves, std::int64_t round,
             bool final) {
    first(game, x, moves, round, final);
    second(game, x, moves, round, final);
  };
}

RoundObserver checkpoint_cadence(std::int64_t every, std::int64_t base_movers,
                                 SnapshotWrite write) {
  return [every, movers = base_movers, write = std::move(write)](
             const CongestionGame& game, const State& x,
             std::span<const Migration> moves, std::int64_t round,
             bool final) mutable {
    if (final) {
      write(x, round, movers);
      return;
    }
    for (const Migration& move : moves) movers += move.count;
    if (every <= 0 || (round + 1) % every != 0) return;
    State after = x;
    after.apply(game, moves);
    write(after, round + 1, movers);
  };
}

std::string find_latest_checkpoint(const std::string& path) {
  if (std::filesystem::exists(path)) return path;
  const auto set = list_checkpoint_set(path);
  if (set.empty()) {
    throw persist_error("no checkpoint at '" + path +
                        "' (and no '" + path + ".r<round>' set either)");
  }
  return set.back().second;
}

std::size_t prune_checkpoints(const std::string& path,
                              std::int64_t keep_last) {
  if (keep_last < 1) return 0;
  auto set = list_checkpoint_set(path);
  std::size_t removed = 0;
  const std::size_t keep = static_cast<std::size_t>(keep_last);
  if (set.size() <= keep) return 0;
  for (std::size_t i = 0; i + keep < set.size(); ++i) {
    std::error_code ec;
    if (std::filesystem::remove(set[i].second, ec)) ++removed;
  }
  return removed;
}

ResumedRun resume_run(const std::string& snapshot_path) {
  Snapshot snapshot = load_snapshot(snapshot_path);
  require_current_semantics(snapshot.config, snapshot_path);

  auto game = std::make_unique<CongestionGame>(std::move(snapshot.game));
  State state(*game, std::move(snapshot.counts));

  std::unique_ptr<Protocol> protocol =
      make_protocol(snapshot.config.protocol_spec());
  if (protocol == nullptr) {
    throw persist_error(snapshot_path + ": unknown protocol '" +
                        snapshot.config.protocol + "' in snapshot");
  }

  EngineMode mode = EngineMode::kAggregate;
  switch (snapshot.config.engine) {
    case 0:
      mode = EngineMode::kPerPlayer;
      break;
    case 1:
      mode = EngineMode::kAggregate;
      break;
    default:
      throw persist_error(snapshot_path + ": unknown engine byte " +
                          std::to_string(snapshot.config.engine));
  }

  Rng rng;
  rng.set_state(snapshot.rng_state);

  return ResumedRun{std::move(game),    std::move(state),
                    rng,                snapshot.round,
                    snapshot.config,    std::move(protocol),
                    mode};
}

}  // namespace cid::persist
