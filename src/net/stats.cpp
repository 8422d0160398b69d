#include "net/stats.hpp"

namespace srds {

NetworkStats NetworkStats::of(const obs::Ledger& ledger) {
  NetworkStats s(ledger.n_parties());
  const std::vector<std::size_t> peers = ledger.locality();
  for (PartyId i = 0; i < s.party.size(); ++i) s.party[i] = PartyStats{ledger.total(i), peers[i]};
  return s;
}

NetworkStats NetworkStats::of(const obs::Ledger& ledger, std::size_t first_phase,
                              std::size_t last_phase) {
  last_phase = std::min(last_phase, ledger.phase_count());
  NetworkStats s(ledger.n_parties());
  const std::vector<std::size_t> peers = ledger.locality(first_phase, last_phase);
  for (PartyId i = 0; i < s.party.size(); ++i) {
    for (std::size_t p = first_phase; p < last_phase; ++p) s.party[i] += ledger.phase_total(p, i);
    s.party[i].peers = peers[i];
  }
  return s;
}

}  // namespace srds
