// π_ba under an actively malicious adversary (ba/attack.hpp): value
// conflicts on every dissemination edge, base-signature replay, garbage
// aggregates, forged-certificate floods. Safety must hold throughout.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "ba/ae_boost.hpp"
#include "ba/attack.hpp"
#include "ba/runner.hpp"
#include "net/subproto.hpp"

namespace srds {
namespace {

BaRunConfig attack_config(BoostProtocol p, std::size_t n, double beta,
                          std::uint64_t seed) {
  BaRunConfig c;
  c.n = n;
  c.beta = beta;
  c.seed = seed;
  c.protocol = p;
  c.active_adversary = true;
  return c;
}

class ActiveAttackSweep
    : public ::testing::TestWithParam<std::tuple<BoostProtocol, std::uint64_t>> {};

TEST_P(ActiveAttackSweep, SafetyAndValidityHold) {
  auto [proto, seed] = GetParam();
  auto r = run_ba(attack_config(proto, 128, 0.20, seed));
  EXPECT_TRUE(r.agreement) << protocol_name(proto);
  ASSERT_TRUE(r.value.has_value()) << protocol_name(proto);
  // Validity: no honest party may adopt the attacker's y' = 0.
  EXPECT_TRUE(*r.value) << protocol_name(proto);
  EXPECT_EQ(r.correct, r.decided) << protocol_name(proto);
  // Liveness: the attack must not stop (almost) everyone from deciding.
  EXPECT_GE(r.decided_fraction(), 0.9) << protocol_name(proto);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ActiveAttackSweep,
    ::testing::Combine(::testing::Values(BoostProtocol::kPiBaOwf,
                                         BoostProtocol::kPiBaSnark),
                       ::testing::Values(std::uint64_t{21}, std::uint64_t{22},
                                         std::uint64_t{23})));

TEST(ActiveAttack, HigherCorruptionStillSafe) {
  auto r = run_ba(attack_config(BoostProtocol::kPiBaSnark, 256, 0.25, 31));
  EXPECT_TRUE(r.agreement);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_TRUE(*r.value);
  EXPECT_EQ(r.correct, r.decided);
}

TEST(ActiveAttack, AttackInflatesAdversaryBytesNotOutcome) {
  auto silent = run_ba(attack_config(BoostProtocol::kPiBaSnark, 128, 0.2, 41));
  BaRunConfig cfg = attack_config(BoostProtocol::kPiBaSnark, 128, 0.2, 41);
  cfg.active_adversary = false;
  auto quiet = run_ba(cfg);
  // The attacker sends plenty (flood phases) yet changes no honest output.
  EXPECT_GT(silent.stats.total_bytes(), quiet.stats.total_bytes());
  EXPECT_EQ(silent.value, quiet.value);
}

TEST(ActiveAttack, ReplaysLiftedSignatureUnchangedIntoEveryLeaf) {
  auto tree = std::make_shared<const CommTree>(TreeParams::scaled(64), 3);
  PiBaAttackConfig cfg;
  cfg.tree = tree;
  cfg.corrupt.assign(64, false);
  cfg.corrupt[5] = cfg.corrupt[9] = true;
  cfg.boost_start = 40;      // the step-4 signing round
  cfg.dissem3_start = 1000;  // keep every other attack window out of the way
  cfg.prf_round = 1000;
  auto attacker = make_pi_ba_attacker(cfg);

  // One honest boost-sign frame in the rushing view: a base signature for
  // leaf 0 on its way to a member of that leaf's committee.
  Bytes sig(97);
  for (std::size_t i = 0; i < sig.size(); ++i) sig[i] = static_cast<std::uint8_t>(i * 7 + 1);
  const PartyId honest = 0;
  std::vector<SendList> honest_sends(honest + 1);
  honest_sends[honest].send(tree->node(0).committee.front(),
                            tag_body(AeBoostParty::kBoostPhase, 0, sig), MsgKind::kBoostSign);

  const auto out = attacker->on_round(cfg.boost_start, {}, honest_sends);

  // Every replay carries the signature byte for byte (no prefix lost), and
  // each leaf committee receives one copy per seat.
  std::map<std::uint64_t, std::vector<PartyId>> replayed_to;
  for (const Message& m : out) {
    std::uint32_t phase;
    std::uint64_t leaf;
    BytesView body;
    ASSERT_TRUE(untag_body(m.payload, phase, leaf, body));
    EXPECT_EQ(phase, AeBoostParty::kBoostPhase);
    EXPECT_TRUE(cfg.corrupt[m.from]);
    if (body.size() != sig.size()) continue;  // the 60-byte junk signatures
    EXPECT_EQ(Bytes(body.begin(), body.end()), sig);
    replayed_to[leaf].push_back(m.to);
  }
  ASSERT_EQ(replayed_to.size(), tree->leaf_count());
  for (std::size_t leaf = 0; leaf < tree->leaf_count(); ++leaf) {
    EXPECT_EQ(replayed_to[leaf], tree->node(leaf).committee) << "leaf " << leaf;
  }
}

}  // namespace
}  // namespace srds
