// Top-down dissemination over the communication tree — the "supreme
// committee sends a message to all parties except the isolated set D"
// operation of the f_ae-comm functionality (paper §3.1).
//
// Round schedule (height h, so root is level h):
//   step 0        : root-committee members send the value to every member of
//                   each child committee;
//   step k (1..h-1): members of level-(h-k) nodes take a per-node majority of
//                   the copies received from the parent committee and forward
//                   to their children (or, at leaves, to the parties assigned
//                   to the leaf's virtual-ID slots);
//   step h        : every party takes a majority over the copies received
//                   from the leaf committees it is assigned to and fixes its
//                   output.
// Total rounds: h + 1. Per-party communication: each committee membership
// costs O(k · b) copies of the value — polylog(n) overall.
//
// Copies are accepted only from legitimate senders (the parent committee of
// the node they claim to serve), so a Byzantine party cannot out-vote a good
// committee from the outside; within a bad committee the adversary wins that
// node, which is exactly the leeway Def. 2.3 goodness accounts for.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/subproto.hpp"
#include "tree/comm_tree.hpp"

namespace srds {

/// The (node, sender) copies a dissemination has counted, one per pair: a
/// Byzantine sender must not inflate a tally by repeating itself across
/// rounds. A sorted vector, 16 bytes a pair where a set node takes 64; a
/// party counts a few hundred copies at most.
class CountedCopies {
 public:
  /// Record (node, from); false if it was already recorded.
  bool insert(std::uint64_t node, PartyId from) {
    const std::pair<std::uint64_t, PartyId> key{node, from};
    auto it = std::lower_bound(seen_.begin(), seen_.end(), key);
    if (it != seen_.end() && *it == key) return false;
    seen_.insert(it, key);
    return true;
  }

 private:
  std::vector<std::pair<std::uint64_t, PartyId>> seen_;
};

class DisseminationProto final : public SubProtocol {
 public:
  /// `initial_value`: engaged iff `me` is in the supreme committee (the
  /// value agreed by f_ba/f_ct that the committee wants to push down).
  DisseminationProto(std::shared_ptr<const CommTree> tree, PartyId me,
                     std::optional<Bytes> initial_value);

  std::size_t rounds() const override { return tree_->height() + 1; }

  Outbox step(std::size_t subround, const std::vector<TaggedMsg>& inbox) override;

  /// Final output (engaged after the last step unless nothing was received).
  const std::optional<Bytes>& output() const { return output_; }

 private:
  std::shared_ptr<const CommTree> tree_;
  PartyId me_;
  std::optional<Bytes> initial_value_;
  std::optional<Bytes> output_;
  // node-id -> (value -> count) tallies for copies addressed to me as a
  // member of that node this round.
  std::map<std::uint64_t, std::map<Bytes, std::size_t>> tallies_;
  CountedCopies counted_;
  // membership index: node ids (per level) where I sit on the committee
  std::vector<std::vector<std::size_t>> my_nodes_by_level_;  // [level-1]
  std::map<Bytes, std::size_t> party_tally_;  // stage-1 copies addressed to me
};

}  // namespace srds
