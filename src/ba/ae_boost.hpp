// Common scaffold for "almost-everywhere agreement + boost" protocols.
//
// Every protocol row reproduced from Table 1 shares the same front end
// (steps 1-3 of Fig. 3):
//   P1  f_ba   — the supreme committee agrees on y from its inputs;
//   P2  f_ct   — the supreme committee tosses the seed s;
//   P3  f_ae-comm — (y, s) is disseminated down the tree, reaching all but
//       the isolated parties.
// Subclasses implement the *boost* that upgrades this certified/uncertified
// almost-everywhere agreement to full agreement — this is exactly the step
// whose per-party cost Table 1 compares (Θ(n) for naive/BGT'13/star,
// Õ(√n) for sampling, Õ(1) for the SRDS protocol of this paper).
//
// Message framing: payload = tag_body(phase, instance, body) with phases
//   1 = committee BA, 2 = coin toss, 3 = dissemination,
//   kBoostPhase (10) = subclass traffic (inner framing is subclass-defined).
#pragma once

#include <memory>
#include <optional>

#include "consensus/coin_toss.hpp"
#include "consensus/committee_ba.hpp"
#include "crypto/simsig.hpp"
#include "net/protocol.hpp"
#include "net/subproto.hpp"
#include "obs/budget.hpp"
#include "tree/comm_tree.hpp"
#include "tree/dissemination.hpp"

namespace srds {

struct AeConfig {
  std::shared_ptr<const CommTree> tree;
  SimSigRegistryPtr registry;
  std::uint64_t seed = 1;  // base for per-party local randomness

  /// Broadcast mode (Corollary 1.2(1)): when set, party inputs are ignored
  /// and the supreme committee agrees on the bit this party injects in an
  /// extra leading round — turning the protocol into a 1-bit broadcast with
  /// the same Õ(1) per-party cost.
  std::optional<PartyId> broadcaster;

  /// Graceful degradation under network faults (docs/fault_model.md): run
  /// this many extra rounds after the boost phase, during which late
  /// boost-phase traffic is still ingested (grace_step), and a party still
  /// undecided at the very end decides from partial information
  /// (decide_with_partial_info) instead of hanging undecided. 0 = paper
  /// schedule, decide only through the protocol's own steps.
  std::size_t grace_rounds = 0;
};

class AeBoostParty : public Party {
 public:
  AeBoostParty(AeConfig config, PartyId me, bool input);

  SendList on_round(std::size_t round, const std::vector<Message>& inbox) final;
  bool done() const final { return done_; }

  /// The decided bit (nullopt = undecided; isolated parties may stay
  /// undecided in protocols without a final boost-to-everyone).
  const std::optional<bool>& output() const { return output_; }

  /// Total protocol length in rounds (identical for all parties),
  /// including any grace rounds.
  std::size_t total_rounds() const {
    return boost_start_ + boost_rounds() + cfg_.grace_rounds;
  }

  /// First round of the boost phase (for phase-marked cost accounting).
  std::size_t boost_start() const { return boost_start_; }

  /// Payloads this party received but could not frame-parse (its own phase
  /// demux plus the committee sub-protocols' child-index demux). run_ba sums
  /// this over the surviving honest parties into stats.faults.malformed_frames.
  std::uint64_t malformed_frames() const {
    std::uint64_t total = malformed_;
    if (ba_) total += ba_->malformed_frames();
    if (ct_) total += ct_->malformed_frames();
    return total;
  }

  // Full phase schedule (round indices), exposed so the harness can
  // register phase marks with an observability TraceSink.
  std::size_t ba_start() const { return ba_start_; }
  std::size_t ct_start() const { return ct_start_; }
  std::size_t dissem_start() const { return dissem_start_; }
  std::size_t grace_start() const { return boost_start_ + boost_rounds(); }

  /// The protocol's declared per-party communication budget for its boost
  /// phase — the Table 1 asymptotic, as an executable claim the harness
  /// registers with an obs::BudgetAuditor (docs/observability.md). Bounds
  /// bits sent+received per honest party during the "boost" ledger phase.
  virtual obs::Budget boost_budget() const = 0;

  static constexpr std::uint32_t kBoostPhase = 10;

 protected:
  /// Rounds the subclass's boost needs (fixed, from public parameters).
  virtual std::size_t boost_rounds() const = 0;

  /// One boost round (k = 0 .. boost_rounds()-1). `inbox` holds the
  /// boost-phase bodies addressed to me this round, each with its channel
  /// tag's instance in TaggedMsg::instance; the bodies are valid only during
  /// this call. Returned bodies must already be fully framed (use
  /// send_boost).
  virtual SendList boost_step(std::size_t k, const std::vector<TaggedMsg>& inbox) = 0;

  /// Called once after the final boost round's arrivals were processed.
  virtual void boost_finish() {}

  /// One grace round (only with cfg.grace_rounds > 0): `inbox` holds late
  /// boost-phase bodies. Subclasses may keep ingesting (e.g., delayed PRF
  /// sends); the default discards them.
  virtual void grace_step(const std::vector<TaggedMsg>& inbox) { (void)inbox; }

  /// Last resort at the very end of the grace window for a party without an
  /// output: decide from partial information. The default adopts the
  /// almost-everywhere value if one arrived. Subclasses with stronger
  /// partial evidence (e.g., a verified certificate) should prefer it.
  virtual void decide_with_partial_info() {
    if (ae_y_.has_value()) output_ = *ae_y_;
  }

  /// Send `body`, framed with the boost tag, to every party in `to` but
  /// `except`, in order. `kind` labels the send for the observability
  /// layer's per-kind breakdowns; it never affects delivery or protocol
  /// behavior.
  template <typename Range>
  static void send_boost(SendList& out, const Range& to, std::uint64_t instance, Bytes body,
                         MsgKind kind, PartyId except = kNoParty) {
    out.send_all(to, tag_body(kBoostPhase, instance, std::move(body)), kind, except);
  }

  void set_output(bool y) { output_ = y; }

  // Available to subclasses once the almost-everywhere phases finished
  // (from boost round 0 on): the (y, s) pair this party received, if any.
  const std::optional<bool>& ae_y() const { return ae_y_; }
  const std::optional<Bytes>& ae_seed() const { return ae_seed_; }
  /// Serialized (y, s) blob — the message the SRDS signs.
  const std::optional<Bytes>& ae_blob() const { return ae_blob_; }

  const AeConfig& config() const { return cfg_; }
  PartyId me() const { return me_; }
  bool in_supreme_committee() const { return in_committee_; }

 private:
  void finish_ae_phase();
  void make_committee_protocols(bool ba_input_bit);

  AeConfig cfg_;
  PartyId me_;
  bool input_;
  bool in_committee_ = false;
  std::size_t committee_t_ = 0;

  // Phase schedule (round indices). In broadcast mode everything shifts by
  // one round for the sender -> supreme-committee injection.
  std::size_t inject_rounds_ = 0;
  std::size_t ba_start_ = 0, ct_start_ = 0, dissem_start_ = 0, boost_start_ = 0;
  std::optional<bool> injected_bit_;  // committee members: bit from the sender

  std::unique_ptr<CommitteeBaProto> ba_;
  std::unique_ptr<CoinTossProto> ct_;
  std::unique_ptr<DisseminationProto> dissem_;

  std::optional<bool> ae_y_;
  std::optional<Bytes> ae_seed_;
  std::optional<Bytes> ae_blob_;

  std::optional<bool> output_;
  bool done_ = false;
  std::uint64_t malformed_ = 0;
};

/// Encode/decode the (y, s) pair disseminated in P3 and signed by the SRDS.
Bytes encode_ys(bool y, BytesView s);
bool decode_ys(BytesView blob, bool& y, Bytes& s);

}  // namespace srds
