// Phase-King Byzantine agreement (Berman-Garay-Perry style, the two-round
// per-phase variant), tolerating t < n/4.
//
// The information-theoretic, setup-free baseline: it needs no signatures
// and no PKI, but every party talks to every other party in every phase —
// Θ(n) communication per party per phase and t+1 phases. It is a tested
// reference implementation (tests/consensus_test.cpp); no protocol or bench
// runs it. The committees' f_ba is CommitteeBaProto over Dolev-Strong.
//
// Phase k (kings are members[0..t] in order):
//   round A: everyone sends its current bit to everyone; each party computes
//            the majority bit `maj` and its multiplicity `mult`;
//   round B: the king sends its `maj`; each party keeps `maj` if
//            mult > c/2 + t, else adopts the king's bit.
// After t+1 phases every honest party holds the same bit; if all honest
// parties started with the same bit, that bit is the output (validity).
#pragma once

#include <optional>
#include <vector>

#include "net/subproto.hpp"

namespace srds {

class PhaseKingProto final : public SubProtocol {
 public:
  /// `members`: the participating parties; `t`: corruptions tolerated
  /// (requires 4t < members.size() for the guarantees to hold);
  /// `input`: my initial bit.
  PhaseKingProto(std::vector<PartyId> members, std::size_t t, PartyId me, bool input);

  std::size_t rounds() const override { return 2 * (t_ + 1) + 1; }

  std::vector<std::pair<PartyId, Bytes>> step(
      std::size_t subround, const std::vector<TaggedMsg>& inbox) override;

  const std::optional<bool>& output() const { return output_; }

 private:
  std::vector<std::pair<PartyId, Bytes>> broadcast_bit(std::uint8_t tag, bool bit) const;

  std::vector<PartyId> members_;
  std::size_t t_;
  PartyId me_;
  bool value_;
  bool maj_ = false;
  std::size_t mult_ = 0;
  std::optional<bool> output_;
};

}  // namespace srds
