// Tests for the SRDS constructions (Theorems 2.7 and 2.8) and the
// robustness/forgery experiments (Figures 1 and 2).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "common/rng.hpp"
#include "srds/games.hpp"
#include "srds/owf_srds.hpp"
#include "srds/snark_srds.hpp"

namespace srds {
namespace {

// --- helpers ---

std::unique_ptr<OwfSrds> make_owf(std::size_t n, std::size_t lambda, std::uint64_t seed) {
  OwfSrdsParams p;
  p.n_signers = n;
  p.expected_signers = lambda;
  auto scheme = std::make_unique<OwfSrds>(p, seed);
  for (std::size_t i = 0; i < n; ++i) scheme->keygen(i);
  scheme->finalize_keys();
  return scheme;
}

std::unique_ptr<SnarkSrds> make_snark(std::size_t n, std::uint64_t seed) {
  SnarkSrdsParams p;
  p.n_signers = n;
  auto scheme = std::make_unique<SnarkSrds>(p, seed);
  for (std::size_t i = 0; i < n; ++i) scheme->keygen(i);
  scheme->finalize_keys();
  return scheme;
}

/// All signatures of winners (OWF) / all signers (SNARK) on m.
std::vector<Bytes> sign_all(SrdsScheme& scheme, BytesView m) {
  std::vector<Bytes> sigs;
  for (std::size_t i = 0; i < scheme.signer_count(); ++i) {
    Bytes s = scheme.sign(i, m);
    if (!s.empty()) sigs.push_back(std::move(s));
  }
  return sigs;
}

// --- OWF-SRDS ---

TEST(OwfSrds, SortitionDensity) {
  auto scheme = make_owf(400, 40, 1);
  std::size_t winners = scheme->winner_count();
  EXPECT_GT(winners, 20u);
  EXPECT_LT(winners, 70u);
}

TEST(OwfSrds, LosersCannotSign) {
  auto scheme = make_owf(100, 10, 2);
  Bytes m = to_bytes("m");
  for (std::size_t i = 0; i < 100; ++i) {
    Bytes s = scheme->sign(i, m);
    EXPECT_EQ(s.empty(), !scheme->has_signing_key(i));
  }
}

TEST(OwfSrds, AggregateVerifyHappyPath) {
  auto scheme = make_owf(200, 32, 3);
  Bytes m = to_bytes("agree on y=1");
  auto sigs = sign_all(*scheme, m);
  ASSERT_GE(sigs.size(), scheme->threshold());
  Bytes agg = scheme->aggregate(m, sigs);
  ASSERT_FALSE(agg.empty());
  EXPECT_TRUE(scheme->verify(m, agg));
  EXPECT_EQ(scheme->base_count(agg), sigs.size());
}

TEST(OwfSrds, VerifyRejectsWrongMessage) {
  auto scheme = make_owf(200, 32, 4);
  Bytes m = to_bytes("m1");
  Bytes agg = scheme->aggregate(m, sign_all(*scheme, m));
  ASSERT_FALSE(agg.empty());
  EXPECT_FALSE(scheme->verify(to_bytes("m2"), agg));
}

TEST(OwfSrds, BelowThresholdRejected) {
  auto scheme = make_owf(200, 32, 5);
  Bytes m = to_bytes("m");
  auto sigs = sign_all(*scheme, m);
  ASSERT_GE(sigs.size(), scheme->threshold());
  sigs.resize(scheme->threshold() - 1);
  Bytes agg = scheme->aggregate(m, sigs);
  ASSERT_FALSE(agg.empty());
  EXPECT_FALSE(scheme->verify(m, agg));
}

TEST(OwfSrds, DuplicatesDoNotInflateCount) {
  auto scheme = make_owf(200, 32, 6);
  Bytes m = to_bytes("m");
  auto sigs = sign_all(*scheme, m);
  std::vector<Bytes> dup = sigs;
  dup.insert(dup.end(), sigs.begin(), sigs.end());
  dup.insert(dup.end(), sigs.begin(), sigs.end());
  Bytes agg = scheme->aggregate(m, dup);
  EXPECT_EQ(scheme->base_count(agg), sigs.size());
}

TEST(OwfSrds, RecursiveAggregationMatchesFlat) {
  auto scheme = make_owf(300, 32, 7);
  Bytes m = to_bytes("m");
  auto sigs = sign_all(*scheme, m);
  ASSERT_GE(sigs.size(), 4u);
  // Aggregate in two halves, then combine — tree-style.
  std::vector<Bytes> left(sigs.begin(), sigs.begin() + sigs.size() / 2);
  std::vector<Bytes> right(sigs.begin() + sigs.size() / 2, sigs.end());
  Bytes agg_l = scheme->aggregate(m, left);
  Bytes agg_r = scheme->aggregate(m, right);
  Bytes combined = scheme->aggregate(m, {agg_l, agg_r});
  Bytes flat = scheme->aggregate(m, sigs);
  EXPECT_EQ(combined, flat);
  EXPECT_TRUE(scheme->verify(m, combined));
}

TEST(OwfSrds, Aggregate1FiltersInvalid) {
  auto scheme = make_owf(200, 32, 8);
  Bytes m = to_bytes("m");
  auto sigs = sign_all(*scheme, m);
  std::vector<Bytes> inputs = sigs;
  inputs.push_back(Rng(1).bytes(100));               // garbage
  inputs.push_back(scheme->sign(0, to_bytes("x")));  // possibly ⊥ / wrong m
  auto filtered = scheme->aggregate1(m, inputs);
  EXPECT_EQ(filtered.size(), sigs.size());
}

TEST(OwfSrds, IndexRangeEncoding) {
  auto scheme = make_owf(200, 32, 9);
  Bytes m = to_bytes("m");
  std::size_t first = 0;
  while (!scheme->has_signing_key(first)) ++first;
  Bytes base = scheme->sign(first, m);
  IndexRange r;
  ASSERT_TRUE(scheme->index_range(base, r));
  EXPECT_EQ(r.min, first);
  EXPECT_EQ(r.max, first);

  auto sigs = sign_all(*scheme, m);
  Bytes agg = scheme->aggregate(m, sigs);
  ASSERT_TRUE(scheme->index_range(agg, r));
  EXPECT_LE(r.min, r.max);
  EXPECT_EQ(scheme->base_count(agg), sigs.size());
}

TEST(OwfSrds, TrustedPkiRefusesKeyReplacement) {
  OwfSrdsParams p;
  p.n_signers = 10;
  p.expected_signers = 5;
  OwfSrds scheme(p, 11);
  scheme.keygen(0);
  EXPECT_FALSE(scheme.replace_key(0, Bytes(32, 1)));
}

TEST(OwfSrds, SuccinctnessPolylogSize) {
  // Aggregate size depends on lambda (polylog budget), not on N.
  auto small = make_owf(100, 24, 12);
  auto large = make_owf(3200, 24, 13);
  Bytes m = to_bytes("m");
  Bytes agg_small = small->aggregate(m, sign_all(*small, m));
  Bytes agg_large = large->aggregate(m, sign_all(*large, m));
  ASSERT_FALSE(agg_small.empty());
  ASSERT_FALSE(agg_large.empty());
  // 32x more signers, size within sortition noise (same expected lambda).
  EXPECT_LT(agg_large.size(), agg_small.size() * 3);
}

// --- SNARK-SRDS ---

TEST(SnarkSrds, AggregateVerifyHappyPath) {
  auto scheme = make_snark(80, 1);
  Bytes m = to_bytes("block #7");
  auto sigs = sign_all(*scheme, m);
  ASSERT_EQ(sigs.size(), 80u);
  Bytes agg = scheme->aggregate(m, sigs);
  ASSERT_FALSE(agg.empty());
  EXPECT_TRUE(scheme->verify(m, agg));
  EXPECT_EQ(scheme->base_count(agg), 80u);
}

TEST(SnarkSrds, ConstantSizeAggregate) {
  auto s1 = make_snark(40, 2);
  auto s2 = make_snark(640, 3);
  Bytes m = to_bytes("m");
  Bytes a1 = s1->aggregate(m, sign_all(*s1, m));
  Bytes a2 = s2->aggregate(m, sign_all(*s2, m));
  ASSERT_FALSE(a1.empty());
  ASSERT_FALSE(a2.empty());
  EXPECT_EQ(a1.size(), a2.size());  // Õ(1): byte-identical layout
  EXPECT_LT(a1.size(), 256u);
}

TEST(SnarkSrds, VerifyRejectsWrongMessage) {
  auto scheme = make_snark(60, 4);
  Bytes m = to_bytes("m1");
  Bytes agg = scheme->aggregate(m, sign_all(*scheme, m));
  EXPECT_FALSE(scheme->verify(to_bytes("m2"), agg));
}

TEST(SnarkSrds, BelowThresholdRejected) {
  auto scheme = make_snark(60, 5);
  Bytes m = to_bytes("m");
  auto sigs = sign_all(*scheme, m);
  sigs.resize(scheme->threshold() - 1);
  Bytes agg = scheme->aggregate(m, sigs);
  ASSERT_FALSE(agg.empty());
  EXPECT_EQ(scheme->base_count(agg), scheme->threshold() - 1);
  EXPECT_FALSE(scheme->verify(m, agg));
}

TEST(SnarkSrds, RecursiveTreeAggregation) {
  auto scheme = make_snark(64, 6);
  Bytes m = to_bytes("m");
  auto sigs = sign_all(*scheme, m);
  // Aggregate in 8 leaf groups, then 2 internal, then the root.
  std::vector<Bytes> level1;
  for (std::size_t g = 0; g < 8; ++g) {
    std::vector<Bytes> group(sigs.begin() + g * 8, sigs.begin() + (g + 1) * 8);
    level1.push_back(scheme->aggregate(m, group));
    ASSERT_FALSE(level1.back().empty());
  }
  Bytes left = scheme->aggregate(m, {level1[0], level1[1], level1[2], level1[3]});
  Bytes right = scheme->aggregate(m, {level1[4], level1[5], level1[6], level1[7]});
  Bytes root = scheme->aggregate(m, {left, right});
  ASSERT_FALSE(root.empty());
  EXPECT_TRUE(scheme->verify(m, root));
  EXPECT_EQ(scheme->base_count(root), 64u);
}

TEST(SnarkSrds, DuplicateBaseSignatureRejectedByRanges) {
  auto scheme = make_snark(64, 7);
  Bytes m = to_bytes("m");
  auto sigs = sign_all(*scheme, m);
  // Two aggregates sharing base signature #5 cover overlapping ranges and
  // cannot be combined into a double-counting aggregate.
  std::vector<Bytes> g1(sigs.begin(), sigs.begin() + 10);        // [0, 9]
  std::vector<Bytes> g2(sigs.begin() + 5, sigs.begin() + 20);    // [5, 19]
  Bytes a1 = scheme->aggregate(m, g1);
  Bytes a2 = scheme->aggregate(m, g2);
  Bytes combined = scheme->aggregate(m, {a1, a2});
  // Aggregate1 must have dropped one of them: count < 10 + 15.
  ASSERT_FALSE(combined.empty());
  EXPECT_LT(scheme->base_count(combined), 25u);
}

TEST(SnarkSrds, DuplicatesDoNotInflateCount) {
  auto scheme = make_snark(50, 8);
  Bytes m = to_bytes("m");
  auto sigs = sign_all(*scheme, m);
  std::vector<Bytes> dup = sigs;
  dup.insert(dup.end(), sigs.begin(), sigs.end());
  Bytes agg = scheme->aggregate(m, dup);
  EXPECT_EQ(scheme->base_count(agg), 50u);
}

TEST(SnarkSrds, BareKeyReplacementWorks) {
  SnarkSrdsParams p;
  p.n_signers = 40;
  SnarkSrds scheme(p, 9);
  for (std::size_t i = 0; i < 40; ++i) scheme.keygen(i);
  Rng rng(10);
  WotsKeyPair adv_kp = wots_keygen(rng.bytes(32));
  ASSERT_TRUE(scheme.replace_key(7, adv_kp.verification_key.to_bytes()));
  scheme.finalize_keys();

  Bytes m = to_bytes("m");
  // The scheme no longer holds a signing key for 7...
  EXPECT_TRUE(scheme.sign(7, m).empty());
  // ...but the adversary can sign with its own key and it verifies.
  Bytes adv_sig = SnarkSrds::make_base_signature(7, adv_kp, m);
  auto filtered = scheme.aggregate1(m, {adv_sig});
  EXPECT_EQ(filtered.size(), 1u);
}

TEST(SnarkSrds, ReplacementRejectedAfterFinalize) {
  auto scheme = make_snark(20, 11);
  EXPECT_FALSE(scheme->replace_key(3, Bytes(32, 1)));
}

TEST(SnarkSrds, CrossCrsAggregatesRejected) {
  auto s1 = make_snark(30, 12);
  auto s2 = make_snark(30, 13);
  Bytes m = to_bytes("m");
  Bytes agg = s1->aggregate(m, sign_all(*s1, m));
  EXPECT_TRUE(s1->verify(m, agg));
  EXPECT_FALSE(s2->verify(m, agg));
}

TEST(SnarkSrds, Aggregate1FiltersForgedAndGarbage) {
  auto scheme = make_snark(30, 14);
  Bytes m = to_bytes("m");
  auto sigs = sign_all(*scheme, m);
  std::vector<Bytes> inputs = sigs;
  inputs.push_back(Rng(15).bytes(200));  // garbage
  Rng rng(16);
  WotsKeyPair rogue = wots_keygen(rng.bytes(32));
  inputs.push_back(SnarkSrds::make_base_signature(5, rogue, m));  // wrong key
  auto filtered = scheme->aggregate1(m, inputs);
  EXPECT_EQ(filtered.size(), sigs.size());
}

// --- Security games (Figures 1 and 2) ---

struct GameCase {
  AttackStrategy strategy;
  const char* label;
};

// Print the label, not the raw bytes: gtest would otherwise dump padding
// and the label's address, so the discovered ctest names would change with
// every build and every run under ASLR.
void PrintTo(const GameCase& c, std::ostream* os) { *os << c.label; }

class RobustnessSweep : public ::testing::TestWithParam<GameCase> {};

TEST_P(RobustnessSweep, OwfSchemeRobust) {
  auto [strategy, label] = GetParam();
  CommTree tree = make_game_tree(120, 21);
  OwfSrdsParams p;
  p.n_signers = tree.virtual_count();
  p.expected_signers = 40;
  OwfSrds scheme(p, 22);
  GameConfig cfg;
  cfg.t = 12;  // 10%: the one-third goodness margin exists at this scale
  cfg.strategy = strategy;
  cfg.seed = 23;
  auto outcome = run_robustness_game(scheme, tree, cfg);
  EXPECT_FALSE(outcome.adversary_wins) << label;
  EXPECT_GE(outcome.root_base_count, scheme.threshold()) << label;
}

TEST_P(RobustnessSweep, SnarkSchemeRobust) {
  auto [strategy, label] = GetParam();
  CommTree tree = make_game_tree(120, 31);
  SnarkSrdsParams p;
  p.n_signers = tree.virtual_count();
  SnarkSrds scheme(p, 32);
  GameConfig cfg;
  cfg.t = 12;
  cfg.strategy = strategy;
  cfg.seed = 33;
  auto outcome = run_robustness_game(scheme, tree, cfg);
  EXPECT_FALSE(outcome.adversary_wins) << label;
  EXPECT_GE(outcome.root_base_count, scheme.threshold()) << label;
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, RobustnessSweep,
    ::testing::Values(GameCase{AttackStrategy::kSilent, "silent"},
                      GameCase{AttackStrategy::kGarbage, "garbage"},
                      GameCase{AttackStrategy::kWrongMessage, "wrong-message"},
                      GameCase{AttackStrategy::kDuplicate, "duplicate"},
                      GameCase{AttackStrategy::kBestEffort, "best-effort"}));

class ForgerySweep : public ::testing::TestWithParam<GameCase> {};

TEST_P(ForgerySweep, OwfSchemeUnforgeable) {
  auto [strategy, label] = GetParam();
  OwfSrdsParams p;
  p.n_signers = 150;
  p.expected_signers = 36;
  OwfSrds scheme(p, 41);
  GameConfig cfg;
  cfg.t = 49;  // maximal: |S ∪ I| < n/3
  cfg.strategy = strategy;
  cfg.seed = 42;
  auto outcome = run_forgery_game(scheme, cfg);
  EXPECT_FALSE(outcome.adversary_wins) << label;
}

TEST_P(ForgerySweep, SnarkSchemeUnforgeable) {
  auto [strategy, label] = GetParam();
  SnarkSrdsParams p;
  p.n_signers = 90;
  SnarkSrds scheme(p, 43);
  GameConfig cfg;
  cfg.t = 29;
  cfg.strategy = strategy;
  cfg.seed = 44;
  auto outcome = run_forgery_game(scheme, cfg);
  EXPECT_FALSE(outcome.adversary_wins) << label;
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ForgerySweep,
    ::testing::Values(GameCase{AttackStrategy::kGarbage, "garbage"},
                      GameCase{AttackStrategy::kWrongMessage, "wrong-message"},
                      GameCase{AttackStrategy::kDuplicate, "duplicate"}));

// Ablation: a clairvoyant adversary that sees sortition outcomes (i.e., a
// *broken* oblivious keygen) corrupts exactly the winners and kills
// robustness — demonstrating why the trusted PKI must hide signing ability.
TEST(RobustnessGame, ClairvoyantCorruptionBreaksOwfScheme) {
  CommTree tree = make_game_tree(120, 51);
  OwfSrdsParams p;
  p.n_signers = tree.virtual_count();
  p.expected_signers = 40;
  OwfSrds scheme(p, 52);
  GameConfig cfg;
  cfg.t = 36;  // enough to grab most winners when they are visible
  cfg.strategy = AttackStrategy::kWrongMessage;
  cfg.selector = CorruptionSelector::kClairvoyant;
  cfg.seed = 53;
  auto outcome = run_robustness_game(scheme, tree, cfg);
  EXPECT_TRUE(outcome.adversary_wins);
}

}  // namespace
}  // namespace srds
