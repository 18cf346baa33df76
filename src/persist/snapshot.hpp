// Versioned binary simulation snapshots.
//
// A snapshot captures the full simulation tuple at a round boundary:
//
//   * the game itself (binary codec — the file is self-contained),
//   * the state (per-strategy counts / class counts / strategy bits),
//   * the number of completed rounds (steps, for sequential dynamics),
//   * the protocol / engine / stop configuration,
//   * the exact 256-bit xoshiro256++ stream state, and
//   * cumulative trial statistics (movers so far).
//
// Restoring all of these and continuing is bit-exact: the resumed run
// draws the same variates, takes the same migrations, and ends in the same
// state as the run that was never interrupted (tests/test_resume.cpp and
// tests/test_resume_families.cpp prove this byte-for-byte).
//
// Format v2: the payload inside binio's magic/version/size/crc envelope
// (magic "CIDSNAP") is a TLV section sequence (binio.hpp). A family
// section selects which game/state sections apply, so ALL registry
// scenario families — symmetric CongestionGame, asymmetric
// multi-commodity, and threshold lower-bound games — checkpoint through
// one format. Readers skip unknown sections: a v(N+1) writer can add
// sections without locking out v(N) readers (the policy that replaces
// v1's refuse-newer rule). v1 files (fixed field order, symmetric only)
// are still read.
//
// Snapshots are written atomically (tmp + rename) so a crash
// mid-checkpoint preserves the previous one.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "game/asymmetric.hpp"
#include "game/congestion_game.hpp"
#include "game/state.hpp"
#include "lowerbound/maxcut.hpp"
#include "persist/binio.hpp"
#include "protocols/factory.hpp"
#include "util/rng.hpp"

namespace cid::persist {

inline constexpr char kSnapshotMagic[] = "CIDSNAP";
inline constexpr std::uint8_t kSnapshotVersion = 2;

/// Which game family a snapshot captures (section kSnapSecFamily; absent
/// in v1 files, which are symmetric by construction).
enum class SnapshotFamily : std::uint8_t {
  kSymmetric = 0,
  kAsymmetric = 1,
  kThreshold = 2,
};

/// The protocol / engine configuration a run was started with, persisted so
/// a resume needs no CLI flags to reproduce the original setup. `stop` is
/// the textual stop spec of the tools ("stable", "nash", "deltaeps:D,E");
/// `outcome_semantics` the version the run computes its outcomes under
/// (section semantics; 1 when absent, as in every file older than it).
struct SimConfig {
  std::string protocol = "imitation";  // imitation | exploration | combined
  double lambda = 0.25;
  double p_explore = 0.5;
  bool nu_cutoff = true;
  bool damping = true;
  std::int64_t virtual_agents = 0;
  std::uint8_t engine = 0;  // EngineMode underlying value
  std::string stop = "stable";
  std::uint32_t outcome_semantics = kOutcomeSemantics;

  /// The protocol fields, for make_protocol.
  ProtocolSpec protocol_spec() const {
    return {protocol, lambda, p_explore, nu_cutoff, damping, virtual_agents};
  }

  friend bool operator==(const SimConfig&, const SimConfig&) = default;
};

struct Snapshot {
  std::int64_t round = 0;  // completed rounds at capture time
  SimConfig config;
  std::array<std::uint64_t, 4> rng_state{};
  CongestionGame game;
  std::vector<std::int64_t> counts;  // per-strategy player counts
  /// Cumulative migrations over [0, round) — lets a resumed scenario trial
  /// report the same totals as an uninterrupted one. 0 in v1 files.
  std::int64_t movers = 0;

  /// Reconstructs the state (re-validating every invariant).
  State state() const { return State(game, counts); }
};

/// Asymmetric-family snapshot: same tuple, class-structured state.
struct AsymmetricSnapshot {
  std::int64_t round = 0;
  SimConfig config;
  std::array<std::uint64_t, 4> rng_state{};
  AsymmetricGame game;
  std::vector<std::vector<std::int64_t>> counts;  // [class][strategy]
  std::int64_t movers = 0;

  AsymmetricState state() const { return AsymmetricState(game, counts); }
};

/// Threshold-family snapshot. ThresholdGame latencies are opaque
/// callables, so the file stores the MaxCut instance the quadratic /
/// tripled constructions derive from (pure functions of it — rebuilding
/// reproduces the game bit-exactly) plus the per-player strategy bits.
/// `round` counts completed sequential steps.
struct ThresholdSnapshot {
  std::int64_t round = 0;
  SimConfig config;
  std::array<std::uint64_t, 4> rng_state{};
  MaxCutInstance instance;
  bool tripled = false;  // tripled imitation game vs plain quadratic
  std::vector<bool> in_bits;
  std::int64_t movers = 0;
};

/// Captures the current simulation tuple. `x` must belong to `game`.
Snapshot make_snapshot(const CongestionGame& game, const State& x,
                       const Rng& rng, std::int64_t round,
                       const SimConfig& config, std::int64_t movers = 0);

void save_snapshot(const Snapshot& snapshot, const std::string& path);
Snapshot load_snapshot(const std::string& path);

void save_asymmetric_snapshot(const AsymmetricSnapshot& snapshot,
                              const std::string& path);
AsymmetricSnapshot load_asymmetric_snapshot(const std::string& path);

void save_threshold_snapshot(const ThresholdSnapshot& snapshot,
                             const std::string& path);
ThresholdSnapshot load_threshold_snapshot(const std::string& path);

/// Throws persist_error unless `config` records today's outcome semantics:
/// a snapshot of another version still decodes (cid_replay inspects it)
/// but never resumes. `path` names the file in the message.
void require_current_semantics(const SimConfig& config,
                               const std::string& path);

/// Family of the snapshot at `path` without decoding its game (v1 files
/// are symmetric by definition). Throws persist_error when the file is
/// not a CIDSNAP artifact.
SnapshotFamily peek_snapshot_family(const std::string& path);

/// Serialized payload (without the file envelope) — what the checksum
/// covers; exposed for cid_replay's diff and the tests.
std::string snapshot_payload(const Snapshot& snapshot);

}  // namespace cid::persist
