// Attack campaigns — named, reusable adaptive-adversary strategies.
//
// A campaign is an Adversary that spends the simulator's corruption budget
// (Simulator::set_corruption_budget) according to a plan: which honest
// parties to flip, when, and what the flipped coalition then does on the
// wire. This header holds the protocol-agnostic base: the campaign taxonomy,
// the deterministic decision hash, and CampaignAdversary — bookkeeping for
// scheduled corruption requests and the set of slots actually granted.
// Protocol-aware campaigns (they need the communication tree, committees and
// the signature registry) live one layer up, in src/ba/attack.*.
//
// Determinism contract: every adaptive decision a campaign makes — target
// selection, timing, which lie to tell — must be a pure function of
// (seed, round, party) via campaign_hash, never of wall-clock, pointer
// values or container iteration order. This is what keeps chaos runs
// replayable (same seed ⇒ byte-identical NetworkStats/Ledger) and is relied
// on by the trace determinism guard and the resilience-frontier bench gate.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/protocol.hpp"

namespace srds {

/// The campaign taxonomy exercised by tests and bench/fig_resilience.
enum class CampaignKind : std::uint8_t {
  kNone,           // no adaptive adversary
  kEclipse,        // cut chosen honest parties off from their comm-tree peers
  kTakeover,       // corrupt supreme-committee members as results become visible
  kPartitionHeal,  // partition the network, heal it during the boost phase
};

inline const char* campaign_name(CampaignKind k) {
  switch (k) {
    case CampaignKind::kNone: return "none";
    case CampaignKind::kEclipse: return "eclipse";
    case CampaignKind::kTakeover: return "takeover";
    case CampaignKind::kPartitionHeal: return "partition_heal";
  }
  return "?";
}

/// The one randomness source campaigns are allowed: an independent 64-bit
/// value per (seed, round, party) tuple, SplitMix64-whitened per component
/// so nearby tuples give unrelated streams (same construction as the fault
/// injector's per-link derivation in net/faults.cpp).
std::uint64_t campaign_hash(std::uint64_t seed, std::uint64_t round, std::uint64_t party);

/// Base class for budgeted adaptive adversaries. Derived campaigns populate
/// a (round -> parties) corruption schedule up front or as the run reveals
/// information, and react to grants via on_granted(). The base keeps the
/// authoritative view of which slots the campaign controls: the static
/// corrupt mask it started from plus every granted adaptive flip.
class CampaignAdversary : public Adversary {
 public:
  CampaignAdversary(std::vector<bool> static_corrupt, std::uint64_t seed)
      : controlled_(std::move(static_corrupt)), seed_(seed) {}

  std::vector<PartyId> corruption_requests(std::size_t round) final {
    auto it = schedule_.find(round);
    return it != schedule_.end() ? it->second : std::vector<PartyId>{};
  }

  void on_corrupted(std::size_t round, PartyId party, Party* seized) final {
    if (party < controlled_.size()) controlled_[party] = true;
    granted_ += 1;
    on_granted(round, party, seized);
  }

  /// Slots this campaign currently speaks for (static + granted adaptive).
  const std::vector<bool>& controlled() const { return controlled_; }
  bool controls(PartyId p) const { return p < controlled_.size() && controlled_[p]; }
  /// Number of adaptive grants received so far.
  std::size_t granted() const { return granted_; }

  /// Default: the coalition stays silent. Campaigns override.
  std::vector<Message> on_round(std::size_t round, const std::vector<Message>& corrupt_inbox,
                                const std::vector<SendList>& honest_sends) override {
    (void)round;
    (void)corrupt_inbox;
    (void)honest_sends;
    return {};
  }

 protected:
  /// Ask the simulator to corrupt `party` at the start of `round` (queued;
  /// granted only if budget remains then). Idempotent per (round, party).
  void schedule_corruption(std::size_t round, PartyId party) {
    auto& at = schedule_[round];
    for (PartyId q : at) {
      if (q == party) return;
    }
    at.push_back(party);
  }

  /// A scheduled corruption was granted; `seized` is the captured honest
  /// logic (valid for the simulator's lifetime).
  virtual void on_granted(std::size_t round, PartyId party, Party* seized) {
    (void)round;
    (void)party;
    (void)seized;
  }

  std::uint64_t seed() const { return seed_; }

 private:
  std::vector<bool> controlled_;
  std::uint64_t seed_;
  std::size_t granted_ = 0;
  std::map<std::size_t, std::vector<PartyId>> schedule_;  // round -> targets
};

}  // namespace srds
