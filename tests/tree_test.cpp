// Tests for the almost-everywhere communication tree (Defs. 2.3 / 3.4) and
// the f_ae-comm dissemination protocol.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "common/rng.hpp"
#include "net/subproto.hpp"
#include "sim_helpers.hpp"
#include "tree/comm_tree.hpp"
#include "tree/dissemination.hpp"

namespace srds {
namespace {

using testing::hosted;
using testing::make_subproto_sim;

CommTree make_tree(std::size_t n, std::uint64_t seed = 1) {
  return CommTree(TreeParams::scaled(n), seed);
}

TEST(TreeParams, ScaledSane) {
  for (std::size_t n : {64u, 256u, 1024u, 4096u}) {
    auto p = TreeParams::scaled(n);
    EXPECT_GE(p.committee_size, 3u);
    EXPECT_GE(p.branching, 2u);
    EXPECT_GE(p.leaf_committee, p.repeats);
    EXPECT_GE(p.leaf_count(), 1u);
    EXPECT_EQ(p.virtual_count(), p.leaf_count() * p.leaf_committee);
    EXPECT_GE(p.virtual_count(), n * p.repeats);
  }
  EXPECT_THROW(TreeParams::scaled(4), std::invalid_argument);
}

TEST(CommTree, StructureInvariants) {
  CommTree tree = make_tree(256);
  const auto& p = tree.params();

  EXPECT_EQ(tree.leaf_count(), p.leaf_count());
  EXPECT_GE(tree.height(), 2u);

  // Leaves are nodes [0, L) at level 1 with contiguous slot ranges.
  for (std::size_t j = 0; j < tree.leaf_count(); ++j) {
    const auto& leaf = tree.node(tree.leaf_node(j));
    EXPECT_TRUE(leaf.is_leaf());
    EXPECT_EQ(leaf.level, 1u);
    EXPECT_EQ(leaf.vmin, j * p.leaf_committee);
    EXPECT_EQ(leaf.vmax, (j + 1) * p.leaf_committee - 1);
    EXPECT_EQ(leaf.committee.size(), p.leaf_committee);
  }

  // Every non-root node has a parent that lists it as a child; ranges nest.
  for (std::size_t id = 0; id < tree.node_count(); ++id) {
    const auto& node = tree.node(id);
    if (id == tree.root_id()) {
      EXPECT_EQ(node.parent, TreeNode::kNoParent);
      continue;
    }
    ASSERT_NE(node.parent, TreeNode::kNoParent);
    const auto& parent = tree.node(node.parent);
    EXPECT_EQ(parent.level, node.level + 1);
    bool listed = false;
    for (auto c : parent.children) listed |= (c == id);
    EXPECT_TRUE(listed);
    EXPECT_LE(parent.vmin, node.vmin);
    EXPECT_GE(parent.vmax, node.vmax);
  }

  // Children of one node cover disjoint contiguous increasing ranges — the
  // planar increasing-ID property the range checks of Fig. 3 rely on.
  for (std::size_t id = 0; id < tree.node_count(); ++id) {
    const auto& node = tree.node(id);
    for (std::size_t k = 1; k < node.children.size(); ++k) {
      EXPECT_EQ(tree.node(node.children[k]).vmin,
                tree.node(node.children[k - 1]).vmax + 1);
    }
    if (!node.children.empty()) {
      EXPECT_EQ(tree.node(node.children.front()).vmin, node.vmin);
      EXPECT_EQ(tree.node(node.children.back()).vmax, node.vmax);
    }
  }

  // Root covers all virtual ids.
  EXPECT_EQ(tree.root().vmin, 0u);
  EXPECT_EQ(tree.root().vmax, tree.virtual_count() - 1);
}

TEST(CommTree, VirtualIdentityMapping) {
  CommTree tree = make_tree(128);
  const auto& p = tree.params();

  // owner_of_virtual and virtuals_of are inverse.
  std::size_t total = 0;
  for (PartyId i = 0; i < p.n; ++i) {
    const auto& vids = tree.virtuals_of(i);
    EXPECT_GE(vids.size(), p.repeats);  // padding can only add appearances
    total += vids.size();
    for (auto v : vids) {
      EXPECT_EQ(tree.owner_of_virtual(v), i);
    }
  }
  EXPECT_EQ(total, tree.virtual_count());

  // Leaf committee = owners of its slots.
  for (std::size_t j = 0; j < tree.leaf_count(); ++j) {
    const auto& leaf = tree.node(j);
    for (std::size_t s = 0; s < p.leaf_committee; ++s) {
      EXPECT_EQ(leaf.committee[s], tree.owner_of_virtual(leaf.vmin + s));
    }
  }
}

TEST(CommTree, LevelsPartitionNodes) {
  CommTree tree = make_tree(512);
  std::set<std::size_t> seen;
  for (std::size_t lvl = 1; lvl <= tree.height(); ++lvl) {
    for (auto id : tree.level_nodes(lvl)) {
      EXPECT_EQ(tree.node(id).level, lvl);
      EXPECT_TRUE(seen.insert(id).second);
    }
  }
  EXPECT_EQ(seen.size(), tree.node_count());
  EXPECT_EQ(tree.level_nodes(tree.height()).size(), 1u);
}

TEST(CommTree, DeterministicInSeed) {
  CommTree a = make_tree(128, 7), b = make_tree(128, 7), c = make_tree(128, 8);
  ASSERT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(a.node(0).committee, b.node(0).committee);
  EXPECT_EQ(a.root().committee, b.root().committee);
  // Different seed gives (overwhelmingly) different assignment.
  EXPECT_NE(a.node(0).committee, c.node(0).committee);
}

TEST(CommTree, AnalyzeNoCorruption) {
  CommTree tree = make_tree(256);
  auto g = tree.analyze(std::vector<bool>(256, false));
  EXPECT_TRUE(g.root_good);
  EXPECT_DOUBLE_EQ(g.good_leaf_fraction, 1.0);
  auto connected = tree.connected_parties(g);
  for (bool c : connected) EXPECT_TRUE(c);
}

TEST(CommTree, AnalyzeFullCorruption) {
  CommTree tree = make_tree(256);
  auto g = tree.analyze(std::vector<bool>(256, true));
  EXPECT_FALSE(g.root_good);
  EXPECT_DOUBLE_EQ(g.good_leaf_fraction, 0.0);
}

TEST(CommTree, AnalyzeValidatesMaskSize) {
  CommTree tree = make_tree(64);
  EXPECT_THROW(tree.analyze(std::vector<bool>(65, false)), std::invalid_argument);
}

struct QualityCase {
  std::size_t n;
  double beta;
};

// Print the fields, not the raw bytes (stable ctest names, as SweepPoint).
void PrintTo(const QualityCase& c, std::ostream* os) { *os << "n" << c.n << "_beta" << c.beta; }

class TreeQuality : public ::testing::TestWithParam<QualityCase> {};

// Def. 2.3 properties (3) and (4) under assignment-independent corruption:
// root good and most leaves on good paths, with high probability. At scaled
// committee sizes the majority rule (what dissemination voting needs) holds
// robustly; the paper's one-third rule is checked at lower beta where the
// concentration margin exists (see DESIGN.md S5).
TEST_P(TreeQuality, RandomCorruptionKeepsGuarantees) {
  auto [n, beta] = GetParam();
  std::size_t trials = 12;
  std::size_t root_good_majority = 0;
  double min_fraction = 1.0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    CommTree tree(TreeParams::scaled(n), 1000 + trial);
    Rng rng(5000 + trial);
    std::vector<bool> corrupt(n, false);
    for (auto idx : rng.subset(n, static_cast<std::size_t>(beta * n))) corrupt[idx] = true;
    auto g = tree.analyze(corrupt, GoodnessRule::kMajority);
    root_good_majority += g.root_good ? 1 : 0;
    min_fraction = std::min(min_fraction, g.good_leaf_fraction);
  }
  EXPECT_EQ(root_good_majority, trials) << "n=" << n << " beta=" << beta;
  // At n=64 the committees hold ~1/5 of all parties, so a single unlucky
  // corrupt draw moves the fraction a lot; the asymptotic bound bites from
  // a few hundred parties on (see bench/fig_tree_quality for the sweep).
  EXPECT_GE(min_fraction, n <= 64 ? 0.55 : 0.75) << "n=" << n << " beta=" << beta;
}

TEST_P(TreeQuality, OneThirdRuleHoldsAtLowBeta) {
  auto [n, beta] = GetParam();
  if (beta > 0.15) GTEST_SKIP() << "one-third margin needs low beta at scaled sizes";
  std::size_t trials = 12;
  std::size_t root_good = 0;
  double min_fraction = 1.0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    CommTree tree(TreeParams::scaled(n), 2000 + trial);
    Rng rng(7000 + trial);
    std::vector<bool> corrupt(n, false);
    for (auto idx : rng.subset(n, static_cast<std::size_t>(beta * n))) corrupt[idx] = true;
    auto g = tree.analyze(corrupt, GoodnessRule::kOneThird);
    root_good += g.root_good ? 1 : 0;
    min_fraction = std::min(min_fraction, g.good_leaf_fraction);
  }
  EXPECT_GE(root_good, trials - 1) << "n=" << n << " beta=" << beta;
  EXPECT_GE(min_fraction, 0.6) << "n=" << n << " beta=" << beta;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TreeQuality,
                         ::testing::Values(QualityCase{64, 0.10}, QualityCase{64, 0.20},
                                           QualityCase{256, 0.10}, QualityCase{256, 0.20},
                                           QualityCase{1024, 0.25}));

TEST(CommTree, ConnectedPartiesMajorityRule) {
  CommTree tree = make_tree(64);
  // With zero corruption all leaves are good, everyone is connected.
  auto g = tree.analyze(std::vector<bool>(64, false));
  auto conn = tree.connected_parties(g);
  EXPECT_EQ(std::count(conn.begin(), conn.end(), true), 64);
}

// --- Dissemination (f_ae-comm sends) ---

std::unique_ptr<Simulator> dissemination_sim(std::shared_ptr<const CommTree> tree,
                                             const std::vector<bool>& corrupt,
                                             const Bytes& value,
                                             std::unique_ptr<Adversary> adv) {
  auto factory = [&](PartyId i) -> std::unique_ptr<SubProtocol> {
    const auto& sc = tree->supreme_committee();
    std::optional<Bytes> init;
    if (std::find(sc.begin(), sc.end(), i) != sc.end()) init = value;
    return std::make_unique<DisseminationProto>(tree, i, init);
  };
  return make_subproto_sim(tree->params().n, corrupt, factory, std::move(adv));
}

TEST(Dissemination, AllHonestEveryoneReceives) {
  auto tree = std::make_shared<const CommTree>(TreeParams::scaled(128), 3);
  Bytes value = to_bytes("y=1,s=abc");
  std::vector<bool> corrupt(128, false);
  auto sim = dissemination_sim(tree, corrupt, value, nullptr);
  sim->run(64);
  for (PartyId i = 0; i < 128; ++i) {
    auto* d = hosted<DisseminationProto>(*sim, i);
    ASSERT_NE(d, nullptr);
    ASSERT_TRUE(d->output().has_value()) << "party " << i;
    EXPECT_EQ(*d->output(), value);
  }
}

TEST(Dissemination, PerPartyCommunicationIsSublinear) {
  auto tree = std::make_shared<const CommTree>(TreeParams::scaled(512), 4);
  Bytes value = to_bytes("v");
  std::vector<bool> corrupt(512, false);
  auto sim = dissemination_sim(tree, corrupt, value, nullptr);
  sim->run(64);
  // polylog-size committees => max locality well below the full graph's
  // degree (scaled constants are chunky at n=512; benches show the slope).
  EXPECT_LT(sim->stats().max_locality(), 512u * 3 / 4);
}

TEST(Dissemination, SilentCorruptionConnectedPartiesStillReceive) {
  const std::size_t n = 128;
  auto tree = std::make_shared<const CommTree>(TreeParams::scaled(n), 5);
  Rng rng(99);
  std::vector<bool> corrupt(n, false);
  for (auto idx : rng.subset(n, n / 5)) corrupt[idx] = true;
  auto g = tree->analyze(corrupt, GoodnessRule::kMajority);
  ASSERT_TRUE(g.root_good);
  auto connected = tree->connected_parties(g);

  Bytes value = to_bytes("agreed");
  auto sim = dissemination_sim(tree, corrupt, value, nullptr);
  sim->run(64);

  std::size_t correct = 0, honest = 0;
  for (PartyId i = 0; i < n; ++i) {
    if (corrupt[i]) continue;
    ++honest;
    auto* d = hosted<DisseminationProto>(*sim, i);
    ASSERT_NE(d, nullptr);
    if (d->output().has_value() && *d->output() == value) ++correct;
    // Parties connected through majority-good leaves must be correct.
    if (connected[i]) {
      ASSERT_TRUE(d->output().has_value()) << "connected party " << i;
      EXPECT_EQ(*d->output(), value) << "connected party " << i;
    }
  }
  EXPECT_GE(correct * 10, honest * 9);  // >= 90% of honest parties correct
}

/// Active attack: every corrupt party pushes a forged value along every
/// edge of the dissemination schedule it could legitimately use.
class EvilDisseminator final : public Adversary {
 public:
  EvilDisseminator(std::shared_ptr<const CommTree> tree, std::vector<bool> corrupt,
                   Bytes evil)
      : tree_(std::move(tree)), corrupt_(std::move(corrupt)), evil_(std::move(evil)) {}

  std::vector<Message> on_round(std::size_t round, const std::vector<Message>&,
                                const std::vector<SendList>&) override {
    // Mirror DisseminationProto's schedule: at step k, members of level
    // h-k nodes forward; sends at step k arrive at k+1.
    std::vector<Message> out;
    const std::size_t h = tree_->height();
    if (round >= h) return out;
    std::size_t level = h - round;
    for (std::size_t id : tree_->level_nodes(level)) {
      const auto& node = tree_->node(id);
      for (PartyId member : node.committee) {
        if (!corrupt_[member]) continue;
        if (level > 1) {
          for (std::size_t child : node.children) {
            Writer w;
            w.u8(0);  // kStageCommittee
            w.u64(child);
            w.raw(evil_);
            Bytes body = std::move(w).take();
            for (PartyId p : tree_->node(child).committee) {
              out.push_back(Message{member, p, tag_body(0, 0, body)});
            }
          }
        } else {
          Writer w;
          w.u8(1);  // kStageParty
          w.u64(id);
          w.raw(evil_);
          Bytes body = std::move(w).take();
          for (std::uint64_t v = node.vmin; v <= node.vmax; ++v) {
            out.push_back(Message{member, tree_->owner_of_virtual(v), tag_body(0, 0, body)});
          }
        }
      }
    }
    return out;
  }

 private:
  std::shared_ptr<const CommTree> tree_;
  std::vector<bool> corrupt_;
  Bytes evil_;
};

TEST(Dissemination, ActiveAttackCannotFoolConnectedParties) {
  const std::size_t n = 128;
  auto tree = std::make_shared<const CommTree>(TreeParams::scaled(n), 6);
  Rng rng(123);
  std::vector<bool> corrupt(n, false);
  for (auto idx : rng.subset(n, n / 5)) corrupt[idx] = true;
  auto g = tree->analyze(corrupt, GoodnessRule::kMajority);
  ASSERT_TRUE(g.root_good);
  auto connected = tree->connected_parties(g);

  Bytes value = to_bytes("truth");
  auto adv = std::make_unique<EvilDisseminator>(tree, corrupt, to_bytes("FORGERY"));
  auto sim = dissemination_sim(tree, corrupt, value, std::move(adv));
  sim->run(64);

  for (PartyId i = 0; i < n; ++i) {
    if (corrupt[i] || !connected[i]) continue;
    auto* d = hosted<DisseminationProto>(*sim, i);
    ASSERT_NE(d, nullptr);
    ASSERT_TRUE(d->output().has_value()) << "party " << i;
    EXPECT_EQ(*d->output(), value) << "party " << i;
  }
}

}  // namespace
}  // namespace srds
