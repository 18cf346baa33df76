// The one name → Protocol factory. Sweep scenarios, cid_sim and
// checkpoint resume all describe a symmetric-game protocol by the same six
// fields and build it here, so the three front ends cannot drift.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "protocols/protocol.hpp"

namespace cid {

/// Which of the paper's symmetric-game protocols a run uses, and its knobs
/// (exploration reads lambda only).
struct ProtocolSpec {
  std::string name = "imitation";  // imitation | exploration | combined
  double lambda = 0.25;
  double p_explore = 0.5;          // combined only
  bool nu_cutoff = true;
  bool damping = true;
  std::int64_t virtual_agents = 0;
};

/// Builds the named protocol. Returns nullptr for an unknown name, so each
/// caller reports it through its own error surface.
std::unique_ptr<Protocol> make_protocol(const ProtocolSpec& spec);

}  // namespace cid
