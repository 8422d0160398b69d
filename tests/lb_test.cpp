// Tests for the lower-bound isolation experiments (Theorems 1.3 / 1.4).
#include <gtest/gtest.h>

#include "lb/isolation.hpp"

namespace srds {
namespace {

IsolationConfig lb_config(std::size_t n, std::uint64_t seed) {
  IsolationConfig c;
  c.n = n;
  c.t = n / 4;
  c.seed = seed;
  return c;
}

TEST(IsolationAttack, CrsOnlySingleRoundBoostFails) {
  // Theorem 1.3: with only public setup, the adversary's Θ(n) identities
  // outvote the target's polylog honest in-degree.
  for (std::size_t n : {256u, 1024u}) {
    auto out = run_isolation_attack(BoostSetup::kCrsOnly, lb_config(n, 1));
    EXPECT_TRUE(out.target_fooled) << "n=" << n;
    EXPECT_GT(out.forged_support, out.honest_support) << "n=" << n;
  }
}

TEST(IsolationAttack, PlainSignaturesDoNotHelp) {
  // A PKI alone stops impersonation but not vote flooding: corrupt parties
  // sign the wrong value *themselves*. This is the gap SRDS fills.
  auto out = run_isolation_attack(BoostSetup::kPkiPlainSigs, lb_config(512, 2));
  EXPECT_TRUE(out.target_fooled);
}

TEST(IsolationAttack, SrdsCertificateDefeatsTheAttack) {
  // π_ba's step 7/8: the certificate is unforgeable below threshold, so a
  // single polylog-size round suffices for the isolated party.
  for (std::size_t n : {256u, 1024u}) {
    auto out = run_isolation_attack(BoostSetup::kPkiSrds, lb_config(n, 3));
    EXPECT_FALSE(out.target_fooled) << "n=" << n;
    EXPECT_TRUE(out.target_correct) << "n=" << n;
    EXPECT_GT(out.honest_support, 0u) << "n=" << n;
  }
}

TEST(IsolationAttack, InvertedOwfBreaksEvenSrds) {
  // Theorem 1.4: if one-way functions are invertible the adversary signs on
  // behalf of everyone and forges the certificate.
  auto out = run_isolation_attack(BoostSetup::kPkiSrdsInvertedKeys, lb_config(256, 4));
  EXPECT_TRUE(out.target_fooled);
}

TEST(IsolationAttack, GapWidensWithN) {
  // The forged-vs-honest support gap grows linearly in n (honest support is
  // polylog), matching the asymptotic statement.
  auto small = run_isolation_attack(BoostSetup::kCrsOnly, lb_config(256, 5));
  auto large = run_isolation_attack(BoostSetup::kCrsOnly, lb_config(2048, 5));
  double gap_small = static_cast<double>(small.forged_support) /
                     static_cast<double>(small.honest_support + 1);
  double gap_large = static_cast<double>(large.forged_support) /
                     static_cast<double>(large.honest_support + 1);
  EXPECT_GT(gap_large, gap_small);
}

}  // namespace
}  // namespace srds
