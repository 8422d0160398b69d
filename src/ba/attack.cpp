#include "ba/attack.hpp"

#include <algorithm>
#include <optional>
#include <ranges>

#include "ba/ae_boost.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "net/subproto.hpp"

namespace srds {

namespace {

/// Forged (y', s') blob the attacker pushes everywhere.
Bytes evil_blob() {
  Bytes s(32, 0xEE);
  return encode_ys(false, s);
}

class PiBaAttacker final : public Adversary {
 public:
  explicit PiBaAttacker(PiBaAttackConfig config)
      : cfg_(std::move(config)), rng_(cfg_.seed ^ 0x61747461636bULL) {}

  SendList on_round(std::size_t round, const std::vector<Message>&,
                    const std::vector<SendList>& honest_sends) override {
    SendList out;
    const CommTree& tree = *cfg_.tree;
    const std::size_t h = tree.height();

    // --- Step-3 dissemination window: push a conflicting (y', s') along
    // every edge corrupted members sit on (committee + leaf delivery). ---
    if (round >= cfg_.dissem3_start && round < cfg_.dissem3_start + h) {
      attack_dissemination(round - cfg_.dissem3_start, /*phase=*/3, evil_blob(), out);
    }

    // --- Step-4 signing round: lift honest base signatures from the
    // rushing view and replay them into *every* leaf committee; also spray
    // malformed signatures. ---
    if (round == cfg_.boost_start) {
      attack_signing(honest_sends, out);
    }

    // --- Step-5 aggregation: garbage candidates to every parent committee
    // corrupted parties can reach. ---
    if (round > cfg_.boost_start && round <= cfg_.boost_start + h) {
      attack_aggregation(round - cfg_.boost_start, out);
    }

    // --- Step-6 certified dissemination: conflicting value + garbage σ. ---
    std::size_t dissem6_start = cfg_.boost_start + h + 1;
    if (round >= dissem6_start && round < dissem6_start + h) {
      attack_certified(round - dissem6_start, out);
    }

    // --- Step-7 PRF round: flood everyone with a forged triple. ---
    if (round == cfg_.prf_round) {
      attack_prf_flood(out);
    }
    return out;
  }

 private:
  void for_each_corrupt_member(
      std::size_t level,
      const std::function<void(PartyId member, const TreeNode& node)>& fn) {
    for (std::size_t id : cfg_.tree->level_nodes(level)) {
      const TreeNode& node = cfg_.tree->node(id);
      for (PartyId member : node.committee) {
        if (cfg_.corrupt[member]) fn(member, node);
      }
    }
  }

  void attack_dissemination(std::size_t sub, std::uint32_t phase, const Bytes& value,
                            SendList& out) {
    const CommTree& tree = *cfg_.tree;
    const std::size_t h = tree.height();
    std::size_t level = h - sub;
    for_each_corrupt_member(level, [&](PartyId member, const TreeNode& node) {
      if (level > 1) {
        for (std::size_t child : node.children) {
          Writer w;
          w.u8(0);  // kStageCommittee
          w.u64(child);
          w.raw(value);
          out.send_all(member, tree.node(child).committee, tag_body(phase, 0, std::move(w).take()),
                       MsgKind::kUnknown);
        }
      } else {
        Writer w;
        w.u8(1);  // kStageParty
        w.u64(node.id);
        w.raw(value);
        out.send_all(member, tree.slot_owners(node), tag_body(phase, 0, std::move(w).take()),
                     MsgKind::kUnknown);
      }
    });
  }

  void attack_signing(const std::vector<SendList>& honest_sends, SendList& out) {
    const CommTree& tree = *cfg_.tree;
    // Collect honest base-signature bodies from the rushing view, one per
    // message: a body sent to k recipients is lifted up to k times. untag_body
    // already strips (phase, instance): each body is the signature itself.
    // The views borrow `honest_sends`, which outlives this call.
    std::vector<BytesView> lifted;
    for (const SendList& sends : honest_sends) {
      for (std::size_t k = 0; k < sends.size(); ++k) {
        std::uint32_t phase;
        std::uint64_t instance;
        BytesView body;
        if (!untag_body(sends.body(k), phase, instance, body)) continue;
        if (phase != AeBoostParty::kBoostPhase) continue;
        for (std::size_t c = sends.to(k).size(); c > 0 && lifted.size() < 8; --c) {
          lifted.push_back(body);
        }
      }
    }
    // Replay them into every leaf from every corrupted party, plus garbage.
    std::vector<PartyId> corrupt_ids;
    for (PartyId p = 0; p < cfg_.corrupt.size(); ++p) {
      if (cfg_.corrupt[p]) corrupt_ids.push_back(p);
    }
    if (corrupt_ids.empty()) return;
    for (std::size_t leaf = 0; leaf < tree.leaf_count(); ++leaf) {
      const TreeNode& node = tree.node(leaf);
      PartyId sender = corrupt_ids[leaf % corrupt_ids.size()];
      for (BytesView sig : lifted) {
        out.send_all(sender, node.committee, tag_body(AeBoostParty::kBoostPhase, leaf, sig),
                     MsgKind::kUnknown);
      }
      out.send_all(sender, node.committee,
                   tag_body(AeBoostParty::kBoostPhase, leaf, rng_.bytes(60)), MsgKind::kUnknown);
    }
  }

  void attack_aggregation(std::size_t level, SendList& out) {
    const CommTree& tree = *cfg_.tree;
    if (level > tree.height()) return;
    for_each_corrupt_member(level, [&](PartyId member, const TreeNode& node) {
      if (node.parent == TreeNode::kNoParent) return;
      out.send_all(member, tree.node(node.parent).committee,
                   tag_body(AeBoostParty::kBoostPhase, node.parent,
                            rng_.bytes(80 + rng_.below(64))),
                   MsgKind::kUnknown);
    });
  }

  void attack_certified(std::size_t sub, SendList& out) {
    const CommTree& tree = *cfg_.tree;
    const std::size_t h = tree.height();
    std::size_t level = h - sub;
    Bytes evil = evil_blob();
    Bytes fake_sigma = rng_.bytes(160);
    for_each_corrupt_member(level, [&](PartyId member, const TreeNode& node) {
      auto push = [&](const auto& to, std::uint8_t stage, std::uint64_t nid) {
        Writer w;
        w.u8(stage);
        w.u64(nid);
        w.bytes(evil);
        w.bytes(fake_sigma);
        out.send_all(member, to,
                     tag_body(AeBoostParty::kBoostPhase, 1ULL << 62, std::move(w).take()),
                     MsgKind::kUnknown);
      };
      if (level > 1) {
        for (std::size_t child : node.children) push(tree.node(child).committee, 0, child);
      } else {
        push(tree.slot_owners(node), 1, node.id);
      }
    });
  }

  void attack_prf_flood(SendList& out) {
    const std::size_t n = cfg_.corrupt.size();
    Bytes evil = evil_blob();
    Writer w;
    w.bytes(evil);
    w.bytes(rng_.bytes(160));  // forged certificate (cannot verify)
    const Payload body =
        tag_body(AeBoostParty::kBoostPhase, (1ULL << 62) + 1, std::move(w).take());
    std::vector<PartyId> honest;
    for (PartyId p = 0; p < n; ++p) {
      if (!cfg_.corrupt[p]) honest.push_back(p);
    }
    for (PartyId c = 0; c < n; ++c) {
      if (cfg_.corrupt[c]) out.send_all(c, honest, body, MsgKind::kUnknown);
    }
  }

  PiBaAttackConfig cfg_;
  Rng rng_;
};

// ---------------------------------------------------------------------------
// Adaptive attack campaigns (see attack.hpp / net/campaign.hpp).
//
// All three campaigns first *lift* the honest (y, s) blob from the rushing
// view of the round-dissem_start root push and forge evil = encode_ys(!y, s)
// — same seed, flipped bit, so downstream PRF/signing machinery accepts the
// blob's shape and only the agreement bit is under attack.
//
//   kTakeover     corrupt supreme-committee members (hash order, budget
//                 capped) the round election results become actionable
//                 (dissem_start), out-vote ONE hash-chosen root child's
//                 committee with the evil blob — poisoning ~1/b of the
//                 almost-everywhere values while keeping evil signers well
//                 below the SNARK-SRDS certificate quorum — then split-push
//                 signed star votes (evil to parties [0, n/2), true value to
//                 the rest) and answer sampling polls with the evil bit.
//   kEclipse      pick ~n/128 honest victims by hash; corrupt one member of
//                 a leaf committee serving each victim; cut each victim off
//                 (single-party partition window) just before the leaf
//                 committees report, after slipping the victim an evil
//                 leaf-stage vote — the only dissemination vote it will ever
//                 see. Protocols whose last resort adopts the uncertified
//                 almost-everywhere value decide wrong; certificate-gated
//                 ones stay safely undecided.
//   kPartitionHeal cut a hash-chosen quarter of the parties from
//                 dissem_start until one round into the boost phase, then
//                 heal; the budget is spent silencing minority members.
//                 One-shot boosts (star push, sampling poll) fall inside the
//                 outage and never recover; π_ba's certified dissemination
//                 and PRF rounds run after the heal and carry the minority
//                 back to a decision.
// ---------------------------------------------------------------------------

class GridCampaignAdversary final : public CampaignAdversary {
 public:
  explicit GridCampaignAdversary(CampaignConfig cfg)
      : CampaignAdversary(cfg.corrupt, cfg.seed), cfg_(std::move(cfg)) {
    switch (cfg_.kind) {
      case CampaignKind::kNone: break;
      case CampaignKind::kTakeover: plan_takeover(); break;
      case CampaignKind::kEclipse: plan_eclipse(); break;
      case CampaignKind::kPartitionHeal: plan_partition_heal(); break;
    }
  }

  const std::vector<PartitionWindow>& partitions() const { return partitions_; }

  SendList on_round(std::size_t round, const std::vector<Message>& corrupt_inbox,
                    const std::vector<SendList>& honest_sends) override {
    SendList out;
    if (round == cfg_.dissem_start) lift_blob(honest_sends);
    if (!good_blob_.has_value()) return out;

    const std::size_t h = cfg_.tree->height();
    switch (cfg_.kind) {
      case CampaignKind::kNone:
      case CampaignKind::kPartitionHeal:
        break;  // fail-silent coalition; the partition does the work
      case CampaignKind::kTakeover:
        if (round == cfg_.dissem_start) takeover_poison_subtree(out);
        if (round == cfg_.boost_start) takeover_split_push(out);
        if (round == cfg_.boost_start + 1) takeover_answer_polls(corrupt_inbox, out);
        break;
      case CampaignKind::kEclipse:
        if (h >= 2 && round == cfg_.dissem_start + h - 2) eclipse_feed_victims(out);
        break;
    }
    return out;
  }

 private:
  /// All parties ordered by campaign_hash(seed, domain, party) — the
  /// deterministic stand-in for "pick uniformly at random".
  std::vector<PartyId> hash_order(std::uint64_t domain) const {
    const std::size_t n = cfg_.corrupt.size();
    std::vector<PartyId> order(n);
    for (PartyId p = 0; p < n; ++p) order[p] = p;
    std::sort(order.begin(), order.end(), [&](PartyId a, PartyId b) {
      const std::uint64_t ha = campaign_hash(seed(), domain, a);
      const std::uint64_t hb = campaign_hash(seed(), domain, b);
      return ha != hb ? ha < hb : a < b;
    });
    return order;
  }

  void plan_takeover() {
    const CommTree& tree = *cfg_.tree;
    std::vector<PartyId> members(tree.supreme_committee());
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    std::sort(members.begin(), members.end(), [&](PartyId a, PartyId b) {
      const std::uint64_t ha = campaign_hash(seed(), 0, a);
      const std::uint64_t hb = campaign_hash(seed(), 0, b);
      return ha != hb ? ha < hb : a < b;
    });
    // A slim majority is the whole prize: it out-votes the committee toward
    // the chosen child and flips any committee-majority acceptance rule.
    // Grabbing MORE only beheads dissemination outright (every protocol
    // flatlines identically — no frontier), so cap the spend there.
    std::size_t want = std::min({cfg_.budget, members.size(), members.size() / 2 + 2});
    for (PartyId p : members) {
      if (want == 0) break;
      if (controls(p)) continue;  // static corruption already owns it
      schedule_corruption(cfg_.dissem_start, p);
      --want;
    }
    const auto& children = tree.root().children;
    if (!children.empty()) {
      chosen_child_ = children[campaign_hash(seed(), 1, 0) % children.size()];
    }
  }

  void plan_eclipse() {
    const CommTree& tree = *cfg_.tree;
    const std::size_t n = cfg_.corrupt.size();
    std::size_t want = std::max<std::size_t>(1, n / 128);
    std::size_t budget_left = cfg_.budget;
    std::vector<bool> is_victim(n, false);
    std::vector<bool> planned(n, false);  // corruptions scheduled by this plan
    auto ours = [&](PartyId p) { return controls(p) || planned[p]; };
    for (PartyId v : hash_order(2)) {
      if (want == 0) break;
      if (ours(v) || is_victim[v]) continue;
      // The victim serves in its own leaf committees, so its loopback
      // self-votes (one per distinct leaf, exempt from partitions) always
      // arrive: the evil votes must OUT-NUMBER them, not merely exist. One
      // vote needs one controlled (leaf, member) pair with the member in
      // that leaf's committee; a member serving several of the victim's
      // leaves yields several votes for one corruption.
      std::vector<std::size_t> leaves;
      for (std::uint64_t vid : tree.virtuals_of(v)) {
        leaves.push_back(tree.leaf_of_virtual(vid));
      }
      std::sort(leaves.begin(), leaves.end());
      leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());

      std::vector<std::pair<PartyId, std::size_t>> pairs;  // (member, leaf)
      for (std::size_t leaf : leaves) {
        for (PartyId member : tree.node(leaf).committee) {
          if (member == v || is_victim[member]) continue;
          pairs.emplace_back(member, leaf);
        }
      }
      std::sort(pairs.begin(), pairs.end());
      pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

      // Greedy cover: members we already control vote for free; then buy
      // the members covering the most of the victim's leaves first.
      std::vector<std::pair<PartyId, std::size_t>> feeds;
      std::vector<PartyId> buys;
      std::size_t votes = 0;
      for (const auto& [member, leaf] : pairs) {
        if (!ours(member)) continue;
        feeds.emplace_back(member, leaf);
        ++votes;
      }
      std::vector<std::pair<std::size_t, PartyId>> candidates;  // (-coverage, member)
      for (std::size_t i = 0; i < pairs.size();) {
        std::size_t j = i;
        while (j < pairs.size() && pairs[j].first == pairs[i].first) ++j;
        if (!ours(pairs[i].first)) {
          candidates.emplace_back(pairs.size() - (j - i), pairs[i].first);
        }
        i = j;
      }
      std::sort(candidates.begin(), candidates.end());
      for (const auto& [neg_cov, member] : candidates) {
        if (votes > leaves.size() || buys.size() >= budget_left) break;
        buys.push_back(member);
        for (const auto& [m, leaf] : pairs) {
          if (m == member) feeds.emplace_back(m, leaf);
        }
        votes += pairs.size() - neg_cov;
      }
      if (votes <= leaves.size()) continue;  // cannot out-vote; spend nothing

      for (PartyId member : buys) {
        schedule_corruption(cfg_.dissem_start, member);
        planned[member] = true;
        --budget_left;
      }
      is_victim[v] = true;
      victims_.push_back(Victim{v, std::move(feeds)});
      // Isolate the victim from the send round in which honest leaf
      // committees report (dissem subround h-1) through the end of the run:
      // the evil votes planted one round earlier are the only ones that
      // land, and no later phase reaches the victim either.
      partitions_.push_back(PartitionWindow{
          cfg_.dissem_start + cfg_.tree->height() - 1, cfg_.total_rounds + 2, {v}});
      --want;
    }
  }

  void plan_partition_heal() {
    const std::size_t n = cfg_.corrupt.size();
    std::vector<PartyId> order = hash_order(4);
    std::vector<PartyId> group(order.begin(), order.begin() + n / 4);
    // The cut must cover the whole almost-everywhere front end: a cut that
    // starts at dissemination still leaks the agreed value to the minority
    // through same-side committee members, and then every protocol's
    // last-resort fallback adopts it — no frontier. From round 0 the
    // minority knows nothing until the heal, and only protocols with a
    // post-heal certified path (π_ba's step-6 dissemination and PRF rounds)
    // can still carry it to a decision.
    partitions_.push_back(PartitionWindow{0, cfg_.boost_start + 1, group});
    // Spend the budget fail-silencing majority-side parties once the value
    // is in flight: the recovery now runs on thinned committees.
    std::size_t budget_left = cfg_.budget;
    for (auto it = order.rbegin(); it != order.rend() && budget_left > 0; ++it) {
      PartyId p = *it;
      if (controls(p)) continue;
      bool in_group = false;
      for (PartyId g : group) {
        if (g == p) { in_group = true; break; }
      }
      if (in_group) continue;
      schedule_corruption(cfg_.dissem_start, p);
      --budget_left;
    }
  }

  /// Rushing lift of the true (y, s) from the root committee's dissemination
  /// push; the forged blob flips y and keeps s.
  void lift_blob(const std::vector<SendList>& honest_sends) {
    for (const SendList& sends : honest_sends) {
      for (std::size_t k = 0; k < sends.size(); ++k) {
        std::uint32_t phase;
        std::uint64_t instance;
        BytesView body;
        if (!untag_body(sends.body(k), phase, instance, body)) continue;
        if (phase != 3) continue;
        Reader r(body);
        r.u8();   // stage
        r.u64();  // node id
        Bytes value = r.raw(r.remaining());
        bool y;
        Bytes s;
        if (!r.ok() || !decode_ys(value, y, s)) continue;
        good_blob_ = std::move(value);
        evil_blob_ = encode_ys(!y, s);
        return;
      }
    }
  }

  void takeover_poison_subtree(SendList& out) {
    const CommTree& tree = *cfg_.tree;
    if (tree.root().children.empty()) return;
    Writer w;
    w.u8(0);  // kStageCommittee
    w.u64(chosen_child_);
    w.raw(evil_blob_);
    const Payload body = tag_body(3, 0, std::move(w).take());
    for (PartyId member : tree.supreme_committee()) {
      if (controls(member)) {
        out.send_all(member, tree.node(chosen_child_).committee, body, MsgKind::kUnknown);
      }
    }
  }

  void takeover_split_push(SendList& out) {
    const CommTree& tree = *cfg_.tree;
    const std::size_t n = cfg_.corrupt.size();
    auto framed = [&](PartyId signer, const Bytes& blob) {
      Writer w;
      w.bytes(blob);
      w.raw(cfg_.registry->sign(signer, blob).view());
      return tag_body(AeBoostParty::kBoostPhase, 0, std::move(w).take());
    };
    std::vector<PartyId> members(tree.supreme_committee());
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    for (PartyId member : members) {
      if (!controls(member)) continue;
      const auto half = static_cast<PartyId>(n / 2);
      out.send_all(member, std::views::iota(PartyId{0}, half), framed(member, evil_blob_),
                   MsgKind::kUnknown, member);
      out.send_all(member, std::views::iota(half, static_cast<PartyId>(n)),
                   framed(member, *good_blob_), MsgKind::kUnknown, member);
    }
  }

  void takeover_answer_polls(const std::vector<Message>& corrupt_inbox, SendList& out) {
    bool y;
    Bytes s;
    if (!decode_ys(evil_blob_, y, s)) return;
    Bytes reply{std::uint8_t('r'), static_cast<std::uint8_t>(y ? 1 : 0)};
    for (const Message& m : corrupt_inbox) {
      std::uint32_t phase;
      std::uint64_t instance;
      BytesView body;
      if (!untag_body(m.payload, phase, instance, body)) continue;
      if (phase != AeBoostParty::kBoostPhase) continue;
      if (body.size() != 1 || body[0] != 'q') continue;
      if (!controls(m.to)) continue;
      out.send(m.to, m.from, tag_body(AeBoostParty::kBoostPhase, 0, reply), MsgKind::kUnknown);
    }
  }

  void eclipse_feed_victims(SendList& out) {
    const CommTree& tree = *cfg_.tree;
    for (const Victim& v : victims_) {
      for (const auto& [agent, leaf] : v.feeds) {
        if (!controls(agent)) continue;  // corruption request was denied
        Writer w;
        w.u8(1);  // kStageParty
        w.u64(tree.node(leaf).id);
        w.raw(evil_blob_);
        out.send(agent, v.party, tag_body(3, 0, std::move(w).take()), MsgKind::kUnknown);
      }
    }
  }

  struct Victim {
    PartyId party = 0;  // the eclipsed honest party
    // Controlled (member, leaf) pairs — one evil leaf-stage vote each; must
    // out-number the victim's own loopback self-votes.
    std::vector<std::pair<PartyId, std::size_t>> feeds;
  };

  CampaignConfig cfg_;
  std::vector<PartitionWindow> partitions_;
  std::vector<Victim> victims_;
  std::size_t chosen_child_ = 0;
  std::optional<Bytes> good_blob_;
  Bytes evil_blob_;
};

}  // namespace

std::unique_ptr<Adversary> make_pi_ba_attacker(PiBaAttackConfig config) {
  return std::make_unique<PiBaAttacker>(std::move(config));
}

CampaignSetup make_campaign(CampaignConfig config) {
  auto adversary = std::make_unique<GridCampaignAdversary>(std::move(config));
  CampaignSetup setup;
  setup.partitions = adversary->partitions();
  setup.adversary = std::move(adversary);
  return setup;
}

}  // namespace srds
