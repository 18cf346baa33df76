// The paper's three stopping notions as one rule: ν-imitation-stable
// states (§2.3), exact Nash equilibria, and Definition 1's
// (δ,ε,ν)-equilibria (§4).
//
// A rule has one spelling — "stable", "nash" or "deltaeps:D,E" — shared by
// the tools' --stop flags, the sweep grid, and the `stop` field of CIDSNAP
// configs. parse_stop is its only parser and format_stop its only printer;
// format_stop writes the shortest decimal that reads back to the same
// double, so a recorded spec re-evaluates exactly what the run checked.
//
// Asymmetric games have no Definition-1 evaluation (the paper states it
// for symmetric games): their make_cached_stop overload checks kDeltaEps
// as the stricter class-wise ν-imitation-stability, kNash as class-wise
// Nash, over the run's LatencyContext on the game's flat game.
#pragma once

#include <string>
#include <string_view>

#include "dynamics/engine.hpp"
#include "game/asymmetric.hpp"

namespace cid {

enum class StopRule {
  kImitationStable,  // support-restricted nu-stability
  kNash,             // exact Nash over the full strategy space
  kDeltaEps,         // Definition 1 (delta, eps, nu)-equilibrium
};

struct StopSpec {
  StopRule rule = StopRule::kDeltaEps;
  double delta = 0.1;  // kDeltaEps only
  double eps = 0.1;    // kDeltaEps only

  friend bool operator==(const StopSpec&, const StopSpec&) = default;
};

/// Parses a spelling; each number must fill its field, 0 <= D <= 1 and
/// 0 <= E < inf. Throws std::invalid_argument: "unknown stop condition",
/// "expected --stop deltaeps:D,E" (a number missing or malformed), or
/// "deltaeps:D,E needs 0 <= D <= 1 and E >= 0".
StopSpec parse_stop(std::string_view text);

/// The rule's spelling; parse_stop(format_stop(s)) == s bit for bit.
std::string format_stop(const StopSpec& spec);

/// A predicate needing no run cache: each call evaluates on a fresh
/// LatencyContext (cached and context-free verdicts agree bit for bit —
/// tests/test_equilibrium_cached.cpp).
StopPredicate make_stop(const StopSpec& spec);

/// The predicate over the run's own latency cache. It owns the ex-post
/// scratch its pair loops read through, so make one per run and call it
/// from one thread at a time.
CachedStopPredicate make_cached_stop(const StopSpec& spec);

/// The class-wise mapping for a run on classes.flat() (see the file
/// comment); `classes` must outlive the predicate.
CachedStopPredicate make_cached_stop(const StopSpec& spec,
                                     const AsymmetricGame& classes);

}  // namespace cid
