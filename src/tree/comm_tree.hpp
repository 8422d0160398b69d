// The (n, I)-party almost-everywhere-communication tree of King, Saia,
// Sanwalani, Vee (SODA'06), as specified in Definitions 2.3 and 3.4 of the
// paper, with repeated parties (virtual identities).
//
// Structure (paper parameters -> scaled defaults per DESIGN.md S5):
//   * L leaf nodes (paper n/log^5 n       -> ~n/log n here);
//   * each leaf is assigned z* parties    (paper log^5 n  -> ~2 log n);
//   * each party appears in ~z leaf slots (paper O(log^4) -> 4);
//   * internal nodes have b children      (paper log n    -> ~log n)
//     and a committee of k parties        (paper log^3 n  -> ~log n);
//   * height O(log n / log log n).
//
// Virtual identities: leaf slot s *is* virtual ID s, so the virtual IDs
// assigned to leaf j occupy the contiguous range [j*z*, (j+1)*z*), which is
// exactly the planar-increasing-ID property the SRDS robustness experiment
// and the BA protocol's range checks (Fig. 3 step 5c) rely on.
//
// Goodness (Def. 2.3): a node is good if strictly fewer than a third of its
// assigned parties are corrupted; a leaf has a good path if it and all its
// ancestors (incl. the root) are good. The paper's guarantee — all but a
// 3/log n fraction of leaves retain good paths and the root is good — holds
// with high probability over the committee sampling when the adversary
// corrupts independently of the assignment (the model of Section 3; see
// bench/fig_tree_quality for the measured bound and src/lb for what an
// assignment-aware adversary can do instead).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/message.hpp"

namespace srds {

struct TreeParams {
  std::size_t n = 0;               // number of real parties
  std::size_t committee_size = 0;  // k: parties per internal node
  std::size_t branching = 0;       // b: children per internal node
  std::size_t leaf_committee = 0;  // z*: parties per leaf node
  std::size_t repeats = 0;         // z: target leaf slots per party
  std::size_t root_committee = 0;  // supreme-committee size (>= committee_size)

  /// Scaled defaults for laptop-size n (DESIGN.md substitution S5).
  static TreeParams scaled(std::size_t n);

  /// Number of leaves implied: ceil(n * z / z*).
  std::size_t leaf_count() const;
  /// Total virtual identities: leaf_count * z*.
  std::size_t virtual_count() const;
};

struct TreeNode {
  std::size_t id = 0;
  std::size_t level = 0;  // 1 = leaves; root has the highest level
  std::size_t parent = kNoParent;
  std::vector<std::size_t> children;  // empty for leaves
  std::vector<PartyId> committee;     // assigned (real) parties
  std::uint64_t vmin = 0, vmax = 0;   // contiguous virtual-ID range covered

  static constexpr std::size_t kNoParent = std::numeric_limits<std::size_t>::max();
  bool is_leaf() const { return children.empty(); }
};

/// Which corruption threshold defines a "good" node.
///
/// kOneThird is Def. 2.3's notion (needed where committees run BA or coin
/// tossing, and in the SRDS robustness experiment). kMajority is the weaker
/// requirement the dissemination votes and the aggregation relay actually
/// need; the paper's asymptotic parameters make the two coincide whp, but at
/// scaled committee sizes the distinction matters (DESIGN.md S5).
enum class GoodnessRule { kOneThird, kMajority };

/// Per-corruption-set goodness analysis of a tree.
struct TreeGoodness {
  std::vector<bool> node_good;          // by node id
  std::vector<bool> leaf_on_good_path;  // by leaf index (0..L-1)
  bool root_good = false;
  double good_leaf_fraction = 0.0;
};

class CommTree {
 public:
  /// Build the tree with seeded random committee assignment.
  CommTree(const TreeParams& params, std::uint64_t seed);

  const TreeParams& params() const { return params_; }
  std::size_t node_count() const { return nodes_.size(); }
  const TreeNode& node(std::size_t id) const { return nodes_[id]; }
  const TreeNode& root() const { return nodes_[root_id_]; }
  std::size_t root_id() const { return root_id_; }
  /// Height = number of levels above level 0 (leaves are level 1).
  std::size_t height() const { return height_; }

  std::size_t leaf_count() const { return leaf_count_; }
  /// Node id of leaf `j` (leaves are nodes [0, L)).
  std::size_t leaf_node(std::size_t j) const { return j; }
  /// Node ids at a level (1 = leaves, height() = root).
  const std::vector<std::size_t>& level_nodes(std::size_t level) const {
    return levels_[level - 1];
  }

  /// The supreme committee: parties assigned to the root.
  const std::vector<PartyId>& supreme_committee() const { return root().committee; }

  // --- virtual identities (Def. 3.4) ---
  std::size_t virtual_count() const { return virtual_owner_.size(); }
  PartyId owner_of_virtual(std::uint64_t vid) const { return virtual_owner_[vid]; }
  /// The owners of a node's virtual IDs [vmin, vmax], in ID order: a party
  /// holding several of them appears once per ID.
  std::span<const PartyId> slot_owners(const TreeNode& node) const {
    return std::span<const PartyId>(virtual_owner_).subspan(node.vmin, node.vmax - node.vmin + 1);
  }
  /// The virtual IDs held by party `i` (its idmap row), sorted ascending.
  const std::vector<std::uint64_t>& virtuals_of(PartyId i) const { return party_virtuals_[i]; }
  std::size_t leaf_of_virtual(std::uint64_t vid) const {
    return static_cast<std::size_t>(vid) / params_.leaf_committee;
  }

  // --- goodness analysis ---
  TreeGoodness analyze(const std::vector<bool>& corrupt,
                       GoodnessRule rule = GoodnessRule::kOneThird) const;

  /// Parties whose leaf appearances are majority-on-good-paths; the
  /// complement is the isolated set D of f_ae-comm.
  std::vector<bool> connected_parties(const TreeGoodness& g) const;

 private:
  TreeParams params_;
  std::vector<TreeNode> nodes_;
  std::vector<std::vector<std::size_t>> levels_;  // levels_[l-1] = node ids at level l
  std::size_t root_id_ = 0;
  std::size_t height_ = 0;
  std::size_t leaf_count_ = 0;
  std::vector<PartyId> virtual_owner_;                  // by virtual id
  std::vector<std::vector<std::uint64_t>> party_virtuals_;  // by party
};

}  // namespace srds
