#include "ba/certified_dissem.hpp"

#include <algorithm>

#include "common/serial.hpp"

namespace srds {

namespace {

constexpr std::uint8_t kStageCommittee = 0;
constexpr std::uint8_t kStageParty = 1;

Bytes make_body(std::uint8_t stage, std::uint64_t node_id, BytesView value, BytesView sigma) {
  Writer w;
  w.reserve(1 + 8 + 4 + value.size() + 4 + sigma.size() + kFrameHeadroom);
  w.u8(stage);
  w.u64(node_id);
  w.bytes(value);
  w.bytes(sigma);
  return std::move(w).take();
}

bool parse_body(BytesView body, std::uint8_t& stage, std::uint64_t& node_id, Bytes& value,
                Bytes& sigma) {
  Reader r(body);
  stage = r.u8();
  node_id = r.u64();
  value = r.bytes();
  sigma = r.bytes();
  return r.done();
}

std::optional<std::size_t> seat_of(const TreeNode& node, PartyId p) {
  for (std::size_t s = 0; s < node.committee.size(); ++s) {
    if (node.committee[s] == p) return s;
  }
  return std::nullopt;
}

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

CertifiedDissemProto::CertifiedDissemProto(std::shared_ptr<const CommTree> tree, PartyId me,
                                           std::optional<Bytes> initial_value,
                                           Bytes initial_sigma, Validator validator,
                                           std::size_t redundancy, std::size_t retries)
    : tree_(std::move(tree)),
      me_(me),
      initial_value_(std::move(initial_value)),
      initial_sigma_(std::move(initial_sigma)),
      validator_(std::move(validator)),
      redundancy_(redundancy == 0 ? 1 : redundancy),
      retries_(retries) {
  my_nodes_by_level_.resize(tree_->height());
  for (std::size_t lvl = 1; lvl <= tree_->height(); ++lvl) {
    for (std::size_t id : tree_->level_nodes(lvl)) {
      auto seat = seat_of(tree_->node(id), me_);
      if (seat.has_value()) {
        my_nodes_by_level_[lvl - 1].push_back(id);
        my_seat_[id] = *seat;
      }
    }
  }
}

Outbox CertifiedDissemProto::step(std::size_t subround, const std::vector<TaggedMsg>& inbox) {
  const std::size_t h = tree_->height();

  // Ingest copies.
  for (const auto& msg : inbox) {
    std::uint8_t stage;
    std::uint64_t node_id;
    Bytes value, sigma;
    if (!parse_body(msg.body, stage, node_id, value, sigma)) continue;
    if (node_id >= tree_->node_count()) continue;
    const TreeNode& node = tree_->node(node_id);
    if (stage == kStageCommittee) {
      if (!my_seat_.count(node_id)) continue;
      if (node.parent == TreeNode::kNoParent) continue;
      if (!seat_of(tree_->node(node.parent), msg.from).has_value()) continue;
      if (counted_.insert(node_id, msg.from)) {
        tallies_[node_id][value] += 1;
      }
      if (!sigma.empty() && !node_sigma_.count(node_id) && validator_(value, sigma)) {
        node_sigma_[node_id] = sigma;
        tallies_[node_id][value] += tree_->node(node.parent).committee.size();  // trump
      }
    } else if (stage == kStageParty) {
      if (!node.is_leaf() || !seat_of(node, msg.from).has_value()) continue;
      bool assigned = false;
      for (auto vid : tree_->virtuals_of(me_)) {
        if (tree_->leaf_of_virtual(vid) == node_id) {
          assigned = true;
          break;
        }
      }
      if (!assigned) continue;
      if (counted_.insert(node_id | (1ULL << 63), msg.from)) {
        party_tally_[value] += 1;
      }
      if (!sigma.empty() && certificate_.empty() && validator_(value, sigma)) {
        certificate_ = sigma;
        value_ = value;  // a valid certificate settles the value
      }
    }
  }

  Outbox out;

  // Forwarding helper: per node `id` at level `lvl`, send (value, σ) down.
  // Consecutive recipients that get the same body (with σ or without) share
  // one.
  auto forward = [&](std::size_t id, std::size_t lvl, const Bytes& value,
                     const Bytes& sigma) {
    auto send_runs = [&](std::uint8_t stage, std::uint64_t node_id,
                         std::span<const PartyId> to, const std::vector<bool>& with_sigma) {
      for (std::size_t i = 0; i < to.size();) {
        std::size_t j = i + 1;
        while (j < to.size() && with_sigma[j] == with_sigma[i]) ++j;
        out.send_all(to.subspan(i, j - i),
                     make_body(stage, node_id, value, with_sigma[i] ? sigma : Bytes{}));
        i = j;
      }
    };
    const TreeNode& node = tree_->node(id);
    std::size_t seat = my_seat_[id];
    if (lvl > 1) {
      for (std::size_t child : node.children) {
        const auto& cc = tree_->node(child).committee;
        std::vector<bool> with_sigma(cc.size(), false);
        for (std::size_t j = 0; j < redundancy_ && j < cc.size() && !sigma.empty(); ++j) {
          with_sigma[(seat + j) % cc.size()] = true;
        }
        send_runs(kStageCommittee, child, cc, with_sigma);
      }
    } else {
      // Leaf: deliver to slot owners; σ to a rotating subset of slots.
      std::vector<PartyId> owners;
      for (std::uint64_t v = node.vmin; v <= node.vmax; ++v) {
        owners.push_back(tree_->owner_of_virtual(v));
      }
      std::set<std::size_t> sigma_slots;
      for (std::size_t j = 0; j < redundancy_ && j < owners.size(); ++j) {
        sigma_slots.insert((seat + j) % owners.size());
      }
      // Dedup recipients, keeping "gets sigma" if any of their slots won.
      std::map<PartyId, bool> recip;
      for (std::size_t slot = 0; slot < owners.size(); ++slot) {
        bool with_sigma = !sigma.empty() && sigma_slots.count(slot) > 0;
        recip[owners[slot]] = recip[owners[slot]] || with_sigma;
      }
      std::vector<PartyId> to;
      std::vector<bool> with_sigma;
      to.reserve(recip.size());
      with_sigma.reserve(recip.size());
      for (const auto& [p, s] : recip) {
        to.push_back(p);
        with_sigma.push_back(s);
      }
      send_runs(kStageParty, id, to, with_sigma);
    }
  };

  // Forwarding schedule. Level `lvl` first forwards at subround
  // r0 = h - lvl (the root, lvl == h, seeds at subround 0) and — under a
  // retry budget — re-sends for up to `retries_` further subrounds.
  // Receivers dedup per (node, sender), so retransmission is idempotent; a
  // member whose own copy only arrived late simply forwards late, inside
  // the same window. Sends at the last subround could never arrive in time
  // and are suppressed.
  const std::size_t last = h + retries_;
  for (std::size_t lvl = h; lvl >= 1; --lvl) {
    const std::size_t r0 = h - lvl;
    if (subround < r0 || subround > r0 + retries_ || subround >= last) continue;
    for (std::size_t id : my_nodes_by_level_[lvl - 1]) {
      if (lvl == h) {
        // Root committee: seed with the initial (value, σ_root).
        if (initial_value_.has_value()) {
          forward(id, lvl, *initial_value_, initial_sigma_);
          value_ = initial_value_;
          certificate_ = initial_sigma_;
        }
        continue;
      }
      // A valid certificate settles the node's pair; otherwise fall back to
      // the per-node majority with no certificate.
      auto cert_it = node_sigma_.find(id);
      if (cert_it != node_sigma_.end()) {
        // Find the certified value: it is the tally entry the validator
        // approved (stored by boosting its count; recompute via majority).
        auto val = majority(tallies_[id]);
        if (val) forward(id, lvl, *val, cert_it->second);
      } else {
        auto it = tallies_.find(id);
        if (it == tallies_.end()) continue;
        auto val = majority(it->second);
        if (val) forward(id, lvl, *val, {});
      }
    }
  }

  // Final step: party-level output.
  if (subround == last && !value_.has_value()) {
    value_ = majority(party_tally_);
  }
  return out;
}

}  // namespace srds
