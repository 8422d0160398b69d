// π_ba — the paper's balanced Byzantine agreement protocol (Figure 3).
//
// Boost phases on top of the shared almost-everywhere front end (steps 1-3,
// provided by AeBoostParty):
//   B0           (step 4)  every party signs its received (y, s) under each
//                          of its virtual identities and sends the base
//                          signatures to the corresponding leaf committees;
//   B1..Bh       (step 5)  level-by-level aggregation: members of each node
//                          apply the range checks (step 5c, via
//                          node_range_filter) and the f_aggr-sig
//                          functionality, then pass σ_v to the parent's
//                          committee;
//   Bh+1..B2h+1  (step 6)  certified dissemination of (y, s, σ_root);
//   B2h+2        (step 7)  every certified party sends (y, s, σ) to the
//                          PRF-selected subset C_i = F_s(i);
//   B2h+3        (step 8)  a party accepting a valid (y, s, σ) from some
//                          P_i with me ∈ F_s(i) outputs y.
// Every party's communication is polylog(n)·poly(κ): committee memberships,
// z base signatures, and a PRF fan-out of polylog size.
#pragma once

#include <map>
#include <memory>

#include "ba/ae_boost.hpp"
#include "ba/certified_dissem.hpp"
#include "srds/srds.hpp"

namespace srds {

struct PiBaConfig {
  AeConfig ae;
  // Over ae.tree->virtual_count() signers, finalized; shared read-only by
  // every party (steps may run concurrently, DESIGN.md §7).
  std::shared_ptr<const SrdsScheme> scheme;
  std::size_t prf_fanout = 0;  // 0 = default: committee_size
  std::size_t certificate_redundancy = 3;
  /// Extra retransmission rounds for the certified dissemination (step 6)
  /// under a lossy network; 0 = paper schedule. All parties must agree.
  std::size_t dissem_retries = 0;
};

class PiBaParty final : public AeBoostParty {
 public:
  PiBaParty(PiBaConfig config, PartyId me, bool input);

  /// Whether this party ended with a verifying certificate (diagnostics).
  bool has_certificate() const { return !certificate_.empty(); }

  /// Õ(1) = polylog(n) bits per party — the paper's Theorem 1.1 claim.
  /// Constants differ per SRDS instantiation (SNARK aggregates are compact;
  /// OWF-SRDS ships sortition proofs); both are c·log²(n) with a validity
  /// floor of n = 512, below which ceil(log)-quantized committee sizes
  /// dominate every asymptotic separation (docs/observability.md).
  obs::Budget boost_budget() const override;

 protected:
  std::size_t boost_rounds() const override;
  SendList boost_step(std::size_t k, const std::vector<TaggedMsg>& inbox) override;
  void boost_finish() override;
  /// Under a grace window, delayed step-7 sends are still accepted — they
  /// carry self-certifying (y, s, σ), so late acceptance is always safe.
  void grace_step(const std::vector<TaggedMsg>& inbox) override;
  /// Prefer the verified certificate's value; fall back to the
  /// almost-everywhere value (safe under benign faults only).
  void decide_with_partial_info() override;

 private:
  // Boost channel instances (TaggedMsg::instance): the node id for signing
  // and aggregation traffic, and these two reserved ids for the certified
  // dissemination and the PRF sends.
  static constexpr std::uint64_t kDissemInstance = 1ULL << 62;
  static constexpr std::uint64_t kPrfInstance = (1ULL << 62) + 1;

  SendList step_sign_and_send();                                       // step 4
  void ingest_aggregation(const std::vector<TaggedMsg>& inbox, std::size_t level);
  SendList step_aggregate(std::size_t level, const std::vector<TaggedMsg>& inbox);  // step 5
  SendList step_prf_send();                                            // step 7
  void ingest_prf(const std::vector<TaggedMsg>& inbox);                // step 8

  PiBaConfig cfg2_;
  std::size_t prf_fanout_;
  std::unique_ptr<CertifiedDissemProto> cert_dissem_;

  // Aggregation state: inputs collected per node (only for my nodes).
  std::map<std::uint64_t, std::vector<Bytes>> node_inputs_;
  Bytes sigma_root_;     // set for supreme-committee members after step 5
  Bytes certificate_;    // the certificate I ended with (step 6/8)
  std::optional<Bytes> certified_blob_;  // the (y,s) blob my certificate signs
};

}  // namespace srds
