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
// (magic "CIDSNAP") is a TLV section sequence (binio.hpp). Every registry
// scenario family — symmetric CongestionGame, asymmetric multi-commodity,
// and threshold lower-bound games — checkpoints through one Snapshot type
// and one codec: the shared sections (family, round, config, RNG, trial
// stats, semantics) come first, then the two sections of the family's
// part, and the family section selects which part load_snapshot decodes.
// Readers skip unknown sections: a v(N+1) writer can add sections without
// locking out v(N) readers (the policy that replaces v1's refuse-newer
// rule). v1 files (fixed field order, symmetric only) are still read.
// Decoding is strict: any malformed payload throws persist_error.
//
// Snapshots are written atomically (tmp + rename) so a crash
// mid-checkpoint preserves the previous one.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>
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

/// The symmetric family's part: a CongestionGame and per-strategy counts.
struct SymmetricPart {
  static constexpr SnapshotFamily kFamily = SnapshotFamily::kSymmetric;
  CongestionGame game;
  std::vector<std::int64_t> counts;

  /// Reconstructs the state (re-validating every invariant).
  State state() const { return State(game, counts); }
};

/// The asymmetric family's part (paper §3 remark): class-structured counts.
struct AsymmetricPart {
  static constexpr SnapshotFamily kFamily = SnapshotFamily::kAsymmetric;
  AsymmetricGame game;
  std::vector<std::vector<std::int64_t>> counts;  // [class][strategy]

  AsymmetricState state() const { return AsymmetricState(game, counts); }
};

/// The threshold family's part (§3.2). ThresholdGame latencies are opaque
/// callables, so the file stores the MaxCut instance the quadratic /
/// tripled constructions derive from (pure functions of it — rebuilding
/// reproduces the game bit-exactly) plus the per-player strategy bits.
struct ThresholdPart {
  static constexpr SnapshotFamily kFamily = SnapshotFamily::kThreshold;
  MaxCutInstance instance;
  bool tripled = false;  // tripled imitation game vs plain quadratic
  std::vector<bool> in_bits;
};

/// One snapshot for every family: the shared tuple plus the family's part.
/// The variant index IS the SnapshotFamily value, so the family a file
/// records can never disagree with the data it carries.
struct Snapshot {
  std::int64_t round = 0;  // completed rounds (threshold: sequential steps)
  SimConfig config;
  std::array<std::uint64_t, 4> rng_state{};
  /// Cumulative migrations over [0, round) — lets a resumed scenario trial
  /// report the same totals as an uninterrupted one. 0 in v1 files.
  std::int64_t movers = 0;
  std::variant<SymmetricPart, AsymmetricPart, ThresholdPart> part;

  SnapshotFamily family() const {
    return static_cast<SnapshotFamily>(part.index());
  }

  /// The part of family `Part`; throws persist_error naming `path` when
  /// the snapshot holds another family.
  template <typename Part>
  const Part& as(const std::string& path) const {
    require_family(Part::kFamily, path);
    return std::get<Part>(part);
  }

 private:
  void require_family(SnapshotFamily wanted, const std::string& path) const;
};

/// Captures a symmetric simulation tuple. `x` must belong to `game`.
Snapshot make_snapshot(const CongestionGame& game, const State& x,
                       const Rng& rng, std::int64_t round,
                       const SimConfig& config, std::int64_t movers = 0);

/// Writes any family; load_snapshot decodes the part the family section
/// names (v1 files are symmetric).
void save_snapshot(const Snapshot& snapshot, const std::string& path);
Snapshot load_snapshot(const std::string& path);

/// Throws persist_error unless `config` records today's outcome semantics:
/// a snapshot of another version still decodes (cid_replay inspects it)
/// but never resumes. `path` names the file in the message.
void require_current_semantics(const SimConfig& config,
                               const std::string& path);

/// Serialized payload (without the file envelope) — what the checksum
/// covers; exposed for cid_replay's diff and the tests.
std::string snapshot_payload(const Snapshot& snapshot);

}  // namespace cid::persist
