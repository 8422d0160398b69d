// Baseline boost protocols — the other rows of Table 1, implemented over
// the same almost-everywhere front end as π_ba so the comparison isolates
// the boost step each row is famous for:
//
//   * NaiveBoostParty    — every party sends its signed value to everyone;
//                          1 boost round, Θ(n) bits and Θ(n) locality per
//                          party (the folklore strawman).
//   * MultisigBoostParty — BGT'13-style: multi-signatures aggregate up the
//                          tree, but every multisig ships the Θ(n)-bit
//                          signer bitmap, so per-party communication is
//                          stuck at Θ(n) — the paper's §1.2 culprit,
//                          measured.
//   * SamplingBoostParty — KS'11/KLST'11-style: each party polls Θ(√n·log n)
//                          random parties and takes the majority answer;
//                          Õ(√n) per party, no setup beyond the front end.
//   * StarBoostParty     — ACD+'19-style star: supreme-committee members
//                          push the signed value directly to all n parties;
//                          total communication Õ(n) (amortized Õ(1)/party)
//                          but maximally *unbalanced*: committee members
//                          send Θ(n) while everyone else is Õ(1).
#pragma once

#include <map>

#include "ba/ae_boost.hpp"
#include "ba/certified_dissem.hpp"
#include "crypto/multisig.hpp"

namespace srds {

class NaiveBoostParty final : public AeBoostParty {
 public:
  NaiveBoostParty(AeConfig config, PartyId me, bool input)
      : AeBoostParty(std::move(config), me, input) {}

  /// Θ(n): everyone sends (and receives) a signed value to/from everyone.
  obs::Budget boost_budget() const override { return {.c = 900, .k = 0, .n_exp = 1}; }

 protected:
  std::size_t boost_rounds() const override { return 2; }  // send + ingest
  SendList boost_step(std::size_t k, const std::vector<TaggedMsg>& inbox) override;

 private:
  std::size_t votes_[2] = {0, 0};
};

class MultisigBoostParty final : public AeBoostParty {
 public:
  MultisigBoostParty(AeConfig config, std::shared_ptr<const MultisigRegistry> registry,
                     PartyId me, bool input)
      : AeBoostParty(std::move(config), me, input), msig_(std::move(registry)) {}

  /// Θ(n): every multisig ships the n-bit signer bitmap (§1.2's culprit).
  /// Below the validity floor the additive committee/certificate constants
  /// dominate the linear term, so the claim is only audited from n = 256.
  obs::Budget boost_budget() const override {
    return {.c = 4200, .k = 0, .n_exp = 1, .min_n = 256};
  }

 protected:
  std::size_t boost_rounds() const override;
  SendList boost_step(std::size_t k, const std::vector<TaggedMsg>& inbox) override;

 private:
  static constexpr std::uint64_t kDissemInstance = 1ULL << 62;
  static constexpr std::uint64_t kPrfInstance = (1ULL << 62) + 1;

  /// The single leaf this party contributes its multisig share to
  /// (multisigs carry explicit signer sets, so no virtual identities).
  std::size_t home_leaf() const;
  bool validate(BytesView value, BytesView sigma) const;

  std::shared_ptr<const MultisigRegistry> msig_;
  std::map<std::uint64_t, std::vector<Bytes>> node_inputs_;
  Bytes sigma_root_;
  std::unique_ptr<CertifiedDissemProto> cert_dissem_;
  Bytes certificate_;
  std::optional<Bytes> certified_blob_;
};

class SamplingBoostParty final : public AeBoostParty {
 public:
  /// `samples`: how many random parties to poll (Θ(√n·log n) by default
  /// when 0 is passed).
  SamplingBoostParty(AeConfig config, PartyId me, bool input, std::size_t samples = 0);

  /// Õ(√n): each party polls Θ(√n·log n) random peers (and answers a
  /// comparable number of polls in expectation).
  obs::Budget boost_budget() const override {
    return {.c = 600, .k = 1, .n_exp = 0.5};
  }

 protected:
  std::size_t boost_rounds() const override { return 3; }  // query/respond/ingest
  SendList boost_step(std::size_t k, const std::vector<TaggedMsg>& inbox) override;

 private:
  std::size_t samples_;
  Rng rng_;
  std::size_t votes_[2] = {0, 0};
};

class StarBoostParty final : public AeBoostParty {
 public:
  StarBoostParty(AeConfig config, PartyId me, bool input)
      : AeBoostParty(std::move(config), me, input) {}

  /// Θ(n) *max* per party: supreme-committee members each push to all n
  /// parties (the unbalanced star — amortized Õ(1), worst-case Θ(n)).
  obs::Budget boost_budget() const override { return {.c = 1100, .k = 0, .n_exp = 1}; }

 protected:
  std::size_t boost_rounds() const override { return 2; }  // push + ingest
  SendList boost_step(std::size_t k, const std::vector<TaggedMsg>& inbox) override;

 private:
  std::map<Bytes, std::size_t> committee_votes_;
};

}  // namespace srds
