// Byzantine agreement inside a committee (the f_ba functionality of §3.1).
//
// Construction: every member Dolev-Strong-broadcasts its input in parallel;
// after the broadcasts complete, each member outputs the most frequent
// delivered value (ties broken by byte order, ⊥ outputs ignored).
//   * Agreement: Dolev-Strong gives all honest members identical delivered
//     vectors, so the local tally is identical.
//   * Validity: with more than half the members honest and all honest inputs
//     equal to v, v has a strict majority of the delivered slots.
// Tolerates t < c/2 corruptions (the supreme committee guarantees t < c/3).
#pragma once

#include <memory>
#include <optional>

#include "consensus/dolev_strong.hpp"
#include "net/parallel.hpp"
#include "obs/budget.hpp"

namespace srds {

class CommitteeBaProto final : public SubProtocol {
 public:
  CommitteeBaProto(SimSigRegistryPtr registry, std::vector<PartyId> members, std::size_t t,
                   Bytes domain, PartyId me, Bytes input);

  /// Per-party communication budget for the f_ba phase: c parallel
  /// Dolev-Strong broadcasts inside a committee of c = Θ(log n) members
  /// with signature chains growing to t+1 = Θ(log n) entries — Θ(log³ n)
  /// bits per member, zero for everyone else. Constant calibrated against
  /// seeded runs (tests/budget_test.cpp).
  static obs::Budget phase_budget() { return {.c = 5'000, .k = 3}; }

  std::size_t rounds() const override { return inner_.rounds(); }

  Outbox step(std::size_t subround, const std::vector<TaggedMsg>& inbox) override;

  /// Agreed value (engaged after the last step; nullopt only if every
  /// broadcast failed, which cannot happen with at least one honest member).
  const std::optional<Bytes>& output() const { return output_; }

  std::uint64_t malformed_frames() const override { return inner_.malformed_frames(); }

 private:
  std::vector<PartyId> members_;
  ParallelProto inner_;
  std::optional<Bytes> output_;
};

}  // namespace srds
