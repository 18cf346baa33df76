// Checkpoint cadence and resume orchestration.
//
// checkpoint_cadence is the one rule for WHEN a run persists itself: every
// K completed rounds, and at the final observer call. Checkpointer wraps
// it around save_snapshot for cid_sim's symmetric runs, and the scenario
// trials (sweep/scenario.cpp) wrap it around save_snapshot with their
// family's part (persist/snapshot.hpp: one Snapshot type, one codec). The
// subtlety it owns is *when* the tuple is consistent: the observer fires
// with the PRE-round state and that round's moves, at which point the RNG
// has already consumed the round's draws — so the snapshot must pair the
// post-round state (pre-state + moves) with the current RNG and a round
// counter of round+1. Resuming from such a snapshot re-draws nothing and
// skips nothing: the continuation is the uninterrupted run, bit for bit.
//
// resume_run() is the inverse used by cid_sim --resume: it rebuilds the
// game, state, protocol, and RNG from a symmetric snapshot so the caller
// only supplies the remaining-rounds budget, the stop rule (dynamics/
// stop_rule.hpp, from the snapshot's config), and observers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "dynamics/engine.hpp"
#include "persist/snapshot.hpp"
#include "protocols/protocol.hpp"

namespace cid::persist {

struct CheckpointConfig {
  std::string path;
  /// Write a snapshot every `every` completed rounds; 0 = only the final
  /// observer call (still useful: the finished run's tuple on disk).
  std::int64_t every = 0;
  /// Snapshot GC. 0 (default) = overwrite one file at `path` — the
  /// historical behavior. K >= 1 = write "<path>.r<round>" per cadence
  /// point and prune all but the newest K (so a multi-day run keeps a
  /// bounded history of restart points instead of one or millions).
  std::int64_t keep_last = 0;
};

class Checkpointer {
 public:
  /// The game, rng, and config outlive the run; the rng reference must be
  /// the exact stream the dynamics draw from.
  Checkpointer(const CongestionGame& game, const Rng& rng,
               CheckpointConfig checkpoint, SimConfig sim);

  /// Writes a snapshot of (round, x, rng-now) immediately. Used for the
  /// round-0 snapshot (capture *before* run_dynamics consumes any round
  /// draws) and by the observer.
  void write_now(const State& x, std::int64_t round) const;

  /// checkpoint_cadence over this writer.
  RoundObserver observer() const;

 private:
  const CongestionGame& game_;
  const Rng& rng_;
  CheckpointConfig checkpoint_;
  SimConfig sim_;
};

/// Chains two observers (either may be null); calls run in argument order.
RoundObserver chain_observers(RoundObserver first, RoundObserver second);

/// The post-round snapshot writer checkpoint_cadence drives: (state,
/// completed rounds, cumulative movers).
using SnapshotWrite =
    std::function<void(const State&, std::int64_t round, std::int64_t movers)>;

/// THE checkpoint cadence, as an engine observer (see the file comment for
/// why it pairs pre-state + moves with round+1): `write` runs with the
/// post-round state every `every` completed rounds (0 = never) and with
/// the final state at the final observer call. `movers` is `base_movers`
/// plus every migration observed so far.
RoundObserver checkpoint_cadence(std::int64_t every, std::int64_t base_movers,
                                 SnapshotWrite write);

/// Everything cid_sim needs to continue a snapshotted run. The game is
/// owned here (stable address for the protocol/state that reference it).
struct ResumedRun {
  std::unique_ptr<CongestionGame> game;
  State state;
  Rng rng;
  std::int64_t round = 0;
  SimConfig config;
  std::unique_ptr<Protocol> protocol;
  EngineMode mode = EngineMode::kAggregate;
};

/// Loads a snapshot and rebuilds the live simulation tuple. Throws
/// persist_error on a non-symmetric snapshot, another outcome semantics,
/// or an unknown protocol name or engine byte.
ResumedRun resume_run(const std::string& snapshot_path);

/// Resolves a --resume argument against keep-last-K checkpoint sets: when
/// `path` itself exists it wins; otherwise the "<path>.r<round>" sibling
/// with the highest round is returned. Throws persist_error when neither
/// exists.
std::string find_latest_checkpoint(const std::string& path);

/// Deletes all but the newest `keep_last` files of the "<path>.r<round>"
/// set (no-op when keep_last < 1). Returns the number of files removed.
std::size_t prune_checkpoints(const std::string& path,
                              std::int64_t keep_last);

}  // namespace cid::persist
