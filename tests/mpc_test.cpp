// Tests for the simulated FHE and the Corollary 1.2(2) scalable MPC.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mpc/fhe.hpp"
#include "mpc/scalable_mpc.hpp"

namespace srds {
namespace {

// --- FHE oracle ---

TEST(Fhe, EncryptDecryptRoundTrip) {
  auto oracle = FheOracle::create(1, 2);
  auto ct = oracle->encrypt(0, 0, 42);
  std::vector<DecryptionShare> shares{oracle->issue_share(0), oracle->issue_share(1)};
  auto pt = oracle->decrypt(ct, shares);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, 42u);
}

TEST(Fhe, ThresholdEnforced) {
  auto oracle = FheOracle::create(2, 3);
  auto ct = oracle->encrypt(0, 0, 7);
  std::vector<DecryptionShare> two{oracle->issue_share(0), oracle->issue_share(1)};
  EXPECT_FALSE(oracle->decrypt(ct, two).has_value());
  // Duplicate holders do not count twice.
  std::vector<DecryptionShare> dup{oracle->issue_share(0), oracle->issue_share(0),
                                   oracle->issue_share(0)};
  EXPECT_FALSE(oracle->decrypt(ct, dup).has_value());
}

TEST(Fhe, HomomorphicAdditionAndScaling) {
  auto oracle = FheOracle::create(3, 1);
  auto a = oracle->encrypt(0, 0, 10);
  auto b = oracle->encrypt(0, 1, 32);
  auto sum = oracle->add(a, b);
  ASSERT_TRUE(sum.has_value());
  auto scaled = oracle->mul_const(*sum, 3);
  ASSERT_TRUE(scaled.has_value());
  std::vector<DecryptionShare> shares{oracle->issue_share(0)};
  EXPECT_EQ(oracle->decrypt(*sum, shares), std::optional<std::uint64_t>(42));
  EXPECT_EQ(oracle->decrypt(*scaled, shares), std::optional<std::uint64_t>(126));
}

TEST(Fhe, DeterministicEvaluation) {
  // Two parties evaluating the same circuit over the same ciphertexts get
  // byte-identical results — the property committee voting relies on.
  auto oracle = FheOracle::create(4, 1);
  auto a = oracle->encrypt(0, 0, 1);
  auto b = oracle->encrypt(0, 1, 2);
  auto s1 = oracle->add(a, b);
  auto s2 = oracle->add(a, b);
  ASSERT_TRUE(s1.has_value() && s2.has_value());
  EXPECT_EQ(*s1, *s2);
}

TEST(Fhe, HandlesDoNotDependOnEncryptionOrder) {
  // Parties may encrypt concurrently on simulator workers: a handle is a
  // function of (source, seq, plaintext) alone, never of who went first.
  auto o1 = FheOracle::create(9, 1);
  auto o2 = FheOracle::create(9, 1);
  const Ciphertext a1 = o1->encrypt(3, 0, 5);
  const Ciphertext b1 = o1->encrypt(4, 0, 5);
  const Ciphertext b2 = o2->encrypt(4, 0, 5);
  const Ciphertext a2 = o2->encrypt(3, 0, 5);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);
  // Equal plaintexts from different sources (or seqs) stay unlinkable.
  EXPECT_FALSE(a1 == b1);
  EXPECT_FALSE(a1 == o1->encrypt(3, 1, 5));
}

TEST(Fhe, ForgedCiphertextsRejected) {
  auto oracle = FheOracle::create(5, 1);
  auto real = oracle->encrypt(0, 0, 1);
  Ciphertext forged = real;
  forged.tag.v[0] ^= 1;
  EXPECT_FALSE(oracle->valid(forged));
  EXPECT_FALSE(oracle->add(real, forged).has_value());
  std::vector<DecryptionShare> shares{oracle->issue_share(0)};
  EXPECT_FALSE(oracle->decrypt(forged, shares).has_value());
}

TEST(Fhe, CrossOracleSharesUseless) {
  auto o1 = FheOracle::create(6, 1);
  auto o2 = FheOracle::create(7, 1);
  auto ct = o1->encrypt(0, 0, 9);
  std::vector<DecryptionShare> wrong{o2->issue_share(0)};
  EXPECT_FALSE(o1->decrypt(ct, wrong).has_value());
}

TEST(Fhe, CiphertextSerializationRoundTrip) {
  auto oracle = FheOracle::create(8, 1);
  auto ct = oracle->encrypt(0, 0, 5);
  Bytes wire = ct.serialize();
  EXPECT_EQ(wire.size(), Ciphertext::kSize);
  Ciphertext back;
  ASSERT_TRUE(Ciphertext::deserialize(wire, back));
  EXPECT_EQ(back, ct);
}

// --- scalable MPC (Cor. 1.2(2)) ---

TEST(ScalableMpc, ComputesSumNoCorruption) {
  MpcRunConfig cfg;
  cfg.n = 128;
  cfg.beta = 0.0;
  cfg.seed = 10;
  auto r = run_scalable_sum_mpc(cfg);
  EXPECT_TRUE(r.agreement);
  ASSERT_TRUE(r.output.has_value());
  EXPECT_EQ(*r.output, r.expected_sum);
  EXPECT_EQ(r.decided, r.honest);
}

TEST(ScalableMpc, SilentCorruptionDegradesGracefully) {
  MpcRunConfig cfg;
  cfg.n = 128;
  cfg.beta = 0.2;
  cfg.seed = 11;
  auto r = run_scalable_sum_mpc(cfg);
  EXPECT_TRUE(r.agreement);
  ASSERT_TRUE(r.output.has_value());
  // Fail-silent parties contribute nothing; honest contributions must all
  // be counted (some may be lost only if an entire path went corrupt).
  EXPECT_GE(*r.output, r.expected_sum * 9 / 10);
  EXPECT_LE(*r.output, r.expected_sum);
  EXPECT_GE(static_cast<double>(r.decided), 0.9 * static_cast<double>(r.honest));
}

TEST(ScalableMpc, ArbitraryInputValues) {
  MpcRunConfig cfg;
  cfg.n = 96;
  cfg.beta = 0.0;
  cfg.seed = 12;
  cfg.input_value = 7;
  auto r = run_scalable_sum_mpc(cfg);
  ASSERT_TRUE(r.output.has_value());
  EXPECT_EQ(*r.output, 7u * r.honest);
}

TEST(ScalableMpc, TotalCommunicationQuasiLinear) {
  MpcRunConfig small, big;
  small.n = 128;
  small.seed = 13;
  big.n = 512;
  big.seed = 13;
  auto rs = run_scalable_sum_mpc(small);
  auto rb = run_scalable_sum_mpc(big);
  // Total communication n·polylog: 4x the parties must cost well under
  // 16x (quadratic would be 16x; allow polylog headroom over 4x).
  double growth = static_cast<double>(rb.stats.total_bytes()) /
                  static_cast<double>(rs.stats.total_bytes());
  EXPECT_LT(growth, 10.0);
  EXPECT_GT(growth, 2.0);
}

TEST(ScalableMpc, PerPartyLocalityPolylog) {
  MpcRunConfig cfg;
  cfg.n = 256;
  cfg.seed = 14;
  auto r = run_scalable_sum_mpc(cfg);
  // Scaled-committee constants are chunky at n=256; the slope is what
  // matters (see TotalCommunicationQuasiLinear). Far below the full graph:
  EXPECT_LT(r.stats.max_locality(), 256u * 9 / 10);
}

}  // namespace
}  // namespace srds
