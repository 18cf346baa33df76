// Plain-text serialization of games and states.
//
// A downstream user of the library needs to pin down the exact instance an
// experiment ran on; this module gives games and states a stable,
// human-readable, diff-able on-disk form:
//
//   cid-game v1
//   players 400
//   resources 2
//   latency constant 10
//   latency polynomial 2 0 1 0.5
//   strategies 2
//   strategy 1 0
//   strategy 1 1
//   end
//
// Supported latency classes: constant, monomial, polynomial, exponential,
// and scaled (wrapping any of the former). Parsing is strict: any
// unrecognized or malformed line throws parse_error with a line number.
// Parsing is also bounded, with the caps of the binary snapshot codec
// (persist/codec.cpp): a strategy lists at most one of each resource, so
// its length is checked against the resource count before anything is
// allocated, scaled latencies nest at most 16 deep, and the elasticity
// bound (which costs O(d) to build a game) is at most 2^20.
#pragma once

#include <iosfwd>
#include <string>

#include "game/congestion_game.hpp"
#include "game/state.hpp"
#include "util/assert.hpp"

namespace cid {

/// A malformed cid-game or cid-state text: what() reads "parse error at
/// line N: reason". An invariant_violation, like every other input check.
class parse_error : public invariant_violation {
 public:
  parse_error(int line, const std::string& reason)
      : invariant_violation("parse error at line " + std::to_string(line) +
                            ": " + reason),
        line_(line) {}

  /// The 1-based line the parser was on.
  int line() const noexcept { return line_; }

 private:
  int line_;
};

/// Serializes a game; inverse of parse_game. Throws for latency classes
/// outside the supported set (e.g. user-defined subclasses).
std::string serialize_game(const CongestionGame& game);
CongestionGame parse_game(const std::string& text);

/// Serializes per-strategy counts; the game is needed at parse time to
/// validate dimensions.
std::string serialize_state(const State& x);
State parse_state(const CongestionGame& game, const std::string& text);

/// File convenience wrappers. All writers flush and verify the stream
/// before returning, throwing with the path name on any write failure —
/// a full disk must never silently truncate an instance file.
void save_game(const CongestionGame& game, const std::string& path);
CongestionGame load_game(const std::string& path);
void save_state(const State& x, const std::string& path);
State load_state(const CongestionGame& game, const std::string& path);

}  // namespace cid
