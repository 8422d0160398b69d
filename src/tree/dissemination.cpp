#include "tree/dissemination.hpp"

#include <algorithm>

#include "common/serial.hpp"

namespace srds {

namespace {

constexpr std::uint8_t kStageCommittee = 0;
constexpr std::uint8_t kStageParty = 1;

Bytes make_body(std::uint8_t stage, std::uint64_t node_id, BytesView value) {
  Writer w;
  w.reserve(1 + 8 + value.size() + kFrameHeadroom);
  w.u8(stage);
  w.u64(node_id);
  w.raw(value);
  return std::move(w).take();
}

bool parse_body(BytesView body, std::uint8_t& stage, std::uint64_t& node_id, Bytes& value) {
  Reader r(body);
  stage = r.u8();
  node_id = r.u64();
  if (!r.ok()) return false;
  value = r.raw(r.remaining());
  return r.ok();
}

bool is_member(const TreeNode& node, PartyId p) {
  return std::find(node.committee.begin(), node.committee.end(), p) != node.committee.end();
}

/// Deterministic majority: most frequent value, ties broken by byte order.
std::optional<Bytes> majority(const std::map<Bytes, std::size_t>& tally) {
  std::optional<Bytes> best;
  std::size_t best_count = 0;
  for (const auto& [value, count] : tally) {
    if (count > best_count) {
      best = value;
      best_count = count;
    }
  }
  return best;
}

}  // namespace

DisseminationProto::DisseminationProto(std::shared_ptr<const CommTree> tree, PartyId me,
                                       std::optional<Bytes> initial_value)
    : tree_(std::move(tree)), me_(me), initial_value_(std::move(initial_value)) {
  my_nodes_by_level_.resize(tree_->height());
  for (std::size_t lvl = 1; lvl <= tree_->height(); ++lvl) {
    for (std::size_t id : tree_->level_nodes(lvl)) {
      if (is_member(tree_->node(id), me_)) {
        my_nodes_by_level_[lvl - 1].push_back(id);
      }
    }
  }
}

Outbox DisseminationProto::step(std::size_t subround, const std::vector<TaggedMsg>& inbox) {
  const std::size_t h = tree_->height();

  // Ingest this round's copies into tallies, validating sender legitimacy.
  for (const auto& msg : inbox) {
    std::uint8_t stage;
    std::uint64_t node_id;
    Bytes value;
    if (!parse_body(msg.body, stage, node_id, value)) continue;
    if (node_id >= tree_->node_count()) continue;
    const TreeNode& node = tree_->node(node_id);
    if (stage == kStageCommittee) {
      // Must be addressed to me as a member of `node`, sent by a member of
      // the parent committee.
      if (!is_member(node, me_)) continue;
      if (node.parent == TreeNode::kNoParent) continue;
      if (!is_member(tree_->node(node.parent), msg.from)) continue;
      if (!counted_.insert(node_id, msg.from)) continue;
      tallies_[node_id][value] += 1;
    } else if (stage == kStageParty) {
      // Must come from a member of a leaf I am assigned to.
      if (!node.is_leaf() || !is_member(node, msg.from)) continue;
      bool assigned = false;
      for (auto vid : tree_->virtuals_of(me_)) {
        if (tree_->leaf_of_virtual(vid) == node_id) {
          assigned = true;
          break;
        }
      }
      if (!assigned) continue;
      // Dedup per (leaf, sender); the same party may legitimately sit on
      // several of my leaves, each contributing one vote.
      if (!counted_.insert(node_id | (1ULL << 63), msg.from)) continue;
      party_tally_[value] += 1;
    }
  }

  Outbox out;

  if (subround == 0) {
    // Root committee pushes to its children.
    if (initial_value_.has_value() && !my_nodes_by_level_[h - 1].empty()) {
      const TreeNode& root = tree_->root();
      for (std::size_t child : root.children) {
        out.send_all(tree_->node(child).committee,
                     make_body(kStageCommittee, child, *initial_value_));
      }
      output_ = initial_value_;  // root members already know the value
    }
    return out;
  }

  if (subround < h) {
    // Members of level (h - subround) forward per-node majorities.
    std::size_t level = h - subround;
    for (std::size_t id : my_nodes_by_level_[level - 1]) {
      auto it = tallies_.find(id);
      if (it == tallies_.end()) continue;
      auto value = majority(it->second);
      if (!value) continue;
      const TreeNode& node = tree_->node(id);
      if (level > 1) {
        for (std::size_t child : node.children) {
          out.send_all(tree_->node(child).committee, make_body(kStageCommittee, child, *value));
        }
      } else {
        // Leaf: deliver to the owners of the leaf's virtual slots.
        std::vector<PartyId> owners;
        for (std::uint64_t v = node.vmin; v <= node.vmax; ++v) {
          owners.push_back(tree_->owner_of_virtual(v));
        }
        std::sort(owners.begin(), owners.end());
        owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
        out.send_all(owners, make_body(kStageParty, id, *value));
      }
      // Committee members are themselves parties; make sure they also adopt
      // a party-level value even if not assigned to any leaf slot here.
    }
    return out;
  }

  // Final step: fix the party-level output by majority over leaf copies.
  if (!output_.has_value()) {
    output_ = majority(party_tally_);
  }
  return out;
}

}  // namespace srds
