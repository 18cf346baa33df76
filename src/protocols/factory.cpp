#include "protocols/factory.hpp"

#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"

namespace cid {

std::unique_ptr<Protocol> make_protocol(const ProtocolSpec& spec) {
  ImitationParams ip;
  ip.lambda = spec.lambda;
  ip.nu_cutoff = spec.nu_cutoff;
  ip.damping = spec.damping;
  ip.virtual_agents = spec.virtual_agents;
  ExplorationParams ep;
  ep.lambda = spec.lambda;
  if (spec.name == "imitation") return std::make_unique<ImitationProtocol>(ip);
  if (spec.name == "exploration") {
    return std::make_unique<ExplorationProtocol>(ep);
  }
  if (spec.name == "combined") {
    return std::make_unique<CombinedProtocol>(ip, ep, spec.p_explore);
  }
  return nullptr;
}

}  // namespace cid
