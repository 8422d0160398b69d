// Shared helpers for protocol tests: build a Simulator hosting one
// SubProtocol per honest party.
#pragma once

#include <functional>
#include <memory>

#include "net/host.hpp"
#include "net/simulator.hpp"

namespace srds::testing {

/// Factory: party id -> its SubProtocol logic (called for honest ids only).
using ProtoFactory = std::function<std::unique_ptr<SubProtocol>(PartyId)>;

inline std::unique_ptr<Simulator> make_subproto_sim(std::size_t n,
                                                    const std::vector<bool>& corrupt,
                                                    const ProtoFactory& factory,
                                                    std::unique_ptr<Adversary> adversary) {
  std::vector<std::unique_ptr<Party>> parties(n);
  for (PartyId i = 0; i < n; ++i) {
    if (!corrupt[i]) {
      parties[i] = std::make_unique<SubProtocolHost>(factory(i));
    }
  }
  return std::make_unique<Simulator>(std::move(parties), corrupt,
                                     std::move(adversary));
}

/// Access the hosted protocol of an honest party, cast to T.
template <typename T>
T* hosted(Simulator& sim, PartyId i) {
  auto* host = dynamic_cast<SubProtocolHost*>(sim.party(i));
  return host ? dynamic_cast<T*>(host->protocol()) : nullptr;
}

}  // namespace srds::testing
