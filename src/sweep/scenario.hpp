// Scenario registry: the paper's game families behind one named interface.
//
// A ScenarioSpec is a name plus a flat bag of numeric parameters; the
// registry turns (spec, n) into a ScenarioInstance — an immutable, built
// game plus the knowledge of how to run ONE independent trial of a given
// protocol on it. Instances are shared across threads (the game objects
// are deeply const), so a sweep builds each instance once per n and fans
// the trials out.
//
// Registered scenarios:
//   singleton-uniform  m monomial links of degree `degree`; identical
//                      (spread=0) or coefficients fanned over [1, 1+spread)
//                      (params: m=10, degree=1, spread=0, start)
//   load-balancing     m heterogeneous linear links a_e spread over
//                      [1, 1+spread); per-link overrides a0..a15
//                      (params: m=10, spread=1, a<i>, start)
//   network-routing    layered width x depth network, mixed linear /
//                      quadratic edges drawn from latency_seed
//                      (params: width=3, depth=2, latency_seed=7, start)
//   asymmetric         c classes, each over its own contiguous window of
//                      singleton links plus one shared fast link
//                      (params: classes=2, links_per_class=2)
//   multicommodity     the two-commodity shared-middle-link routing game
//                      (params: share=0.6 — class-0 player fraction)
//   threshold-lb       tripled quadratic threshold game from a random
//                      MaxCut instance (sequential imitation lower-bound
//                      construction; n is the node count, clamped to
//                      [4, 30]; params: density=0.5, max_weight=64)
//
// The `start` parameter selects the initial state for the symmetric
// scenarios: 0 uniform-random (default), 1 geometric-skew (fixed relative
// imbalance — what Theorem 7 wants held fixed when sweeping n), 2 even
// split, 3 trap (all players on strategies 0 and 1; the §6 start where
// pure imitation provably stabilizes sub-optimally).
//
// Every instance is one TrialDriver over a scenario family
// (sweep/scenario.cpp): the driver implements the three trial entry points
// below once, and a family supplies only its start state, its snapshot
// load (with the check that the snapshot's game is this instance's), and
// its run body. The symmetric and asymmetric families run the one round
// engine (dynamics/engine_kernel.hpp run_dynamics<K>) — the asymmetric ones
// on their game's flat game with ClassImitationKernel — and the one
// checkpoint cadence (persist::checkpoint_cadence); threshold-lb runs its
// sequential dynamics in checkpoint-sized chunks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "dynamics/engine.hpp"
#include "dynamics/stop_rule.hpp"
#include "obs/telemetry.hpp"
#include "protocols/factory.hpp"
#include "protocols/protocol.hpp"
#include "util/rng.hpp"

namespace cid::sweep {

struct ScenarioSpec {
  std::string name;
  std::map<std::string, double> params;

  /// Returns params[key], or fallback when absent.
  double param(const std::string& key, double fallback) const;
};

/// Start-state selector for the symmetric scenarios (param "start").
enum class StartKind : int {
  kUniformRandom = 0,
  kGeometricSkew = 1,
  kEven = 2,
  kTrap = 3,
};

/// Which protocol a trial runs (protocols/factory.hpp). For the symmetric
/// scenarios all three of the paper's protocols apply; the asymmetric
/// scenarios support class-local imitation only (the paper's §3 remark;
/// Scenario::imitation_only), always on the aggregate engine and without
/// virtual agents, and threshold-lb maps "imitation" to the tripled
/// sequential imitation dynamics and any other name to plain best
/// response.
using cid::ProtocolSpec;

/// Parses "imitation", "exploration", "combined" or "combined:P" (explore
/// probability). Throws std::runtime_error on anything else.
ProtocolSpec parse_protocol_spec(const std::string& token);

/// The stop rule (dynamics/stop_rule.hpp). Asymmetric scenarios check
/// kDeltaEps as the stricter class-wise nu-stability and kNash as exact
/// class-wise Nash; threshold-lb runs sequential dynamics to their own
/// local-optimum notion and ignores the stop rule entirely.
using cid::StopRule;

/// The scenario layer's dynamics options. Only the six semantic fields
/// (max_rounds through eps) enter manifest grid fingerprints; the two
/// tuning fields below them can never change a trial's bits, so flipping
/// one resumes an existing sweep. threshold-lb runs sequential dynamics
/// and ignores everything but max_rounds.
struct DynamicsConfig {
  std::int64_t max_rounds = 100'000;
  std::int64_t check_interval = 1;
  EngineMode mode = EngineMode::kAggregate;
  StopRule stop = StopRule::kDeltaEps;
  double delta = 0.1;
  double eps = 0.1;
  /// Collect per-trial obs::EngineMetrics into TrialStats::engine.
  bool collect_metrics = false;
  /// Record one telemetry row every N rounds into TrialStats::telemetry
  /// (0 = off).
  std::int64_t telemetry_every = 0;

  StopSpec stop_spec() const { return {stop, delta, eps}; }
};

/// Everything a trial reports. Deliberately wall-clock-free: these fields
/// are the payload of the determinism contract (bitwise identical across
/// thread counts); timing lives at the cell level in the runner.
struct TrialOutcome {
  double rounds = 0.0;
  bool converged = false;
  std::int64_t movers = 0;
  double potential = 0.0;
  double social_cost = 0.0;

  friend bool operator==(const TrialOutcome&, const TrialOutcome&) = default;
};

/// Checkpoint cadence for run_trial_checkpointed: a CIDSNAP of the full
/// trial tuple (game, state, RNG stream, round, cumulative movers) is
/// written atomically to `path` after every `every`-th completed round
/// (persist::checkpoint_cadence; sequential steps for threshold-lb) and at
/// exit; 0 = exit only.
struct TrialCheckpoint {
  std::string path;
  std::int64_t every = 0;
};

/// Per-trial observability that stays OUT of TrialOutcome (and therefore
/// out of manifests and the cross-thread determinism contract): counters a
/// caller may want in its run summary. Deterministic for a given trial,
/// but unknown for trials merged from a manifest rather than re-run.
struct TrialStats {
  /// Latency-function evaluations the trial performed: the batched round
  /// kernel's cached-context count for the symmetric and asymmetric
  /// scenarios, and the sequential dynamics' per-step latency_of /
  /// latency_if_toggled sweeps for the threshold family.
  std::int64_t latency_evals = 0;
  /// Rounds (or sequential steps, for threshold-lb) this trial executed.
  std::int64_t ran_rounds = 0;
  /// Engine phase timers / work counters, populated only when
  /// DynamicsConfig::collect_metrics is set (zeros otherwise; the
  /// threshold family has no round kernel and leaves it empty).
  obs::EngineMetrics engine;
  /// Downsampled convergence telemetry, populated only when
  /// DynamicsConfig::telemetry_every > 0 (empty otherwise; the threshold
  /// family has no round observables and always leaves it empty). A
  /// resumed trial records only ITS leg — the killed leg's file plus the
  /// resumed leg's concatenates to the uninterrupted series bitwise.
  std::vector<obs::TelemetryRecord> telemetry;
};

class ScenarioInstance {
 public:
  virtual ~ScenarioInstance() = default;

  virtual std::string describe() const = 0;

  /// Runs one independent trial. Must be const and re-entrant: trials of
  /// the same instance run concurrently on different threads, each with
  /// its own Rng stream. `stats`, when non-null, receives per-trial
  /// observability counters (each trial must get its own TrialStats).
  virtual TrialOutcome run_trial(const ProtocolSpec& protocol,
                                 const DynamicsConfig& dynamics, Rng& rng,
                                 TrialStats* stats = nullptr) const = 0;

  /// run_trial plus checkpointing: behaviorally identical (zero extra RNG
  /// draws), but persists restart points per `checkpoint`. Every scenario
  /// family implements this against its own snapshot codec — symmetric
  /// games, asymmetric multi-commodity games, and threshold lower-bound
  /// games all produce CIDSNAP files (src/persist/snapshot.hpp).
  virtual TrialOutcome run_trial_checkpointed(
      const ProtocolSpec& protocol, const DynamicsConfig& dynamics, Rng& rng,
      const TrialCheckpoint& checkpoint,
      TrialStats* stats = nullptr) const = 0;

  /// Continues a trial from a snapshot written by run_trial_checkpointed
  /// against THIS instance with THIS (protocol, dynamics) pair, to the
  /// full dynamics.max_rounds budget. The returned outcome is bitwise
  /// identical to what the uninterrupted run_trial would have produced
  /// (tests/test_resume_families.cpp proves it for every registry
  /// scenario). Throws persist_error when the snapshot's embedded game
  /// does not match this instance (wrong file / wrong scenario).
  virtual TrialOutcome resume_trial(const ProtocolSpec& protocol,
                                    const DynamicsConfig& dynamics,
                                    const std::string& snapshot_path,
                                    TrialStats* stats = nullptr) const = 0;
};

using ScenarioFactory =
    std::unique_ptr<ScenarioInstance> (*)(const ScenarioSpec&, std::int64_t n);

struct Scenario {
  std::string name;
  std::string summary;
  ScenarioFactory make;
  /// The family runs class-local imitation only (the asymmetric families);
  /// sweep::finish_grid_flags rejects any other protocol as a usage error.
  bool imitation_only = false;
};

/// All registered scenarios, in registration order.
std::span<const Scenario> all_scenarios();

/// Looks a scenario up by name; nullptr when unknown.
const Scenario* find_scenario(const std::string& name);

/// Builds an instance; throws std::runtime_error for an unknown name.
std::unique_ptr<ScenarioInstance> make_scenario(const ScenarioSpec& spec,
                                                std::int64_t n);

}  // namespace cid::sweep
