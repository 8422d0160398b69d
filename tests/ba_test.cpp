// Integration tests: full Byzantine-agreement executions of π_ba (Fig. 3)
// and the baseline boost protocols on the network simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ba/runner.hpp"

namespace srds {
namespace {

BaRunConfig base_config(BoostProtocol p, std::size_t n, double beta, std::uint64_t seed) {
  BaRunConfig c;
  c.n = n;
  c.beta = beta;
  c.seed = seed;
  c.protocol = p;
  return c;
}

void expect_success(const BaRunResult& r, double min_decided, const char* label) {
  EXPECT_TRUE(r.agreement) << label;
  ASSERT_TRUE(r.value.has_value()) << label;
  EXPECT_TRUE(*r.value) << label << ": validity broken (all honest inputs were 1)";
  EXPECT_EQ(r.correct, r.decided) << label;
  EXPECT_GE(r.decided_fraction(), min_decided) << label;
}

// --- Chaos hardening (shared by run_ba and the svc daemon) ---

TEST(ChaosHardening, DerivesGraceAndRetriesFromPublicConfig) {
  const ChaosHardening quiet = chaos_hardening(std::nullopt, CampaignKind::kNone, 3);
  EXPECT_EQ(quiet.grace_rounds, 0u);
  EXPECT_EQ(quiet.dissem_retries, 0u);
  // A plan that cannot affect any delivery is no chaos either.
  const ChaosHardening inert = chaos_hardening(FaultPlan{}, CampaignKind::kNone, 3);
  EXPECT_EQ(inert.grace_rounds, 0u);
  EXPECT_EQ(inert.dissem_retries, 0u);

  const ChaosHardening campaign = chaos_hardening(std::nullopt, CampaignKind::kEclipse, 3);
  EXPECT_EQ(campaign.grace_rounds, 2u);
  EXPECT_EQ(campaign.dissem_retries, 2u);
  EXPECT_EQ(chaos_hardening(std::nullopt, CampaignKind::kEclipse, 1).dissem_retries, 0u);
  EXPECT_EQ(chaos_hardening(std::nullopt, CampaignKind::kEclipse, 9).dissem_retries, 3u);

  for (std::size_t d : {1u, 4u}) {
    FaultPlan plan;
    plan.delay_prob = 0.1;
    plan.max_delay = d;
    const ChaosHardening delayed = chaos_hardening(plan, CampaignKind::kNone, 3);
    EXPECT_EQ(delayed.grace_rounds, std::max<std::size_t>(plan.suggested_grace(), 2)) << d;
    EXPECT_EQ(delayed.dissem_retries, 2u) << d;
  }
}

// --- π_ba with both SRDS instantiations ---

class PiBaSweep : public ::testing::TestWithParam<std::tuple<BoostProtocol, std::size_t>> {};

TEST_P(PiBaSweep, NoCorruptionEveryoneDecides) {
  auto [proto, n] = GetParam();
  auto r = run_ba(base_config(proto, n, 0.0, 7));
  expect_success(r, 1.0, protocol_name(proto));
  EXPECT_EQ(r.decided, r.honest);
}

TEST_P(PiBaSweep, TwentyPercentSilentCorruption) {
  auto [proto, n] = GetParam();
  auto r = run_ba(base_config(proto, n, 0.20, 8));
  expect_success(r, 0.95, protocol_name(proto));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, PiBaSweep,
    ::testing::Combine(::testing::Values(BoostProtocol::kPiBaOwf,
                                         BoostProtocol::kPiBaSnark),
                       ::testing::Values(std::size_t{64}, std::size_t{128},
                                         std::size_t{256})));

TEST(PiBa, FaithfulWotsBackendEndToEnd) {
  // Full hash-based signatures at small n (the heavyweight faithful path).
  auto cfg = base_config(BoostProtocol::kPiBaSnark, 64, 0.15, 9);
  cfg.backend = BaseSigBackend::kWots;
  auto r = run_ba(cfg);
  expect_success(r, 0.9, "pi_ba/snark-wots");

  cfg = base_config(BoostProtocol::kPiBaOwf, 64, 0.15, 10);
  cfg.backend = BaseSigBackend::kWots;
  cfg.expected_signers = 32;
  r = run_ba(cfg);
  expect_success(r, 0.9, "pi_ba/owf-wots");
}

TEST(PiBa, InputZeroDecidesZero) {
  auto cfg = base_config(BoostProtocol::kPiBaSnark, 128, 0.1, 11);
  cfg.input = false;
  auto r = run_ba(cfg);
  EXPECT_TRUE(r.agreement);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_FALSE(*r.value);
}

TEST(PiBa, RoundsArePolylog) {
  auto r64 = run_ba(base_config(BoostProtocol::kPiBaSnark, 64, 0.0, 12));
  auto r512 = run_ba(base_config(BoostProtocol::kPiBaSnark, 512, 0.0, 13));
  // 8x the parties, rounds grow by far less than 2x (committee size + tree
  // height are polylog).
  EXPECT_LT(r512.rounds, r64.rounds * 2);
}

// --- Baselines: correctness ---

class BaselineSweep : public ::testing::TestWithParam<BoostProtocol> {};

TEST_P(BaselineSweep, DecidesCorrectlyUnderSilentCorruption) {
  auto proto = GetParam();
  auto r = run_ba(base_config(proto, 128, 0.2, 14));
  expect_success(r, 0.9, protocol_name(proto));
}

INSTANTIATE_TEST_SUITE_P(Protocols, BaselineSweep,
                         ::testing::Values(BoostProtocol::kNaive,
                                           BoostProtocol::kMultisig,
                                           BoostProtocol::kSampling,
                                           BoostProtocol::kStar));

// --- The headline claims, as testable cost shapes ---

TEST(CostShape, PiBaBeatsNaivePerParty) {
  const std::size_t n = 512;
  auto pi = run_ba(base_config(BoostProtocol::kPiBaSnark, n, 0.0, 15));
  auto naive = run_ba(base_config(BoostProtocol::kNaive, n, 0.0, 15));
  // Locality: π_ba talks to polylog-many peers, naive to everyone.
  EXPECT_LT(pi.stats.max_locality(), naive.stats.max_locality());
  EXPECT_EQ(naive.stats.max_locality(), n - 1);
}

TEST(CostShape, PiBaIsBalancedStarIsNot) {
  const std::size_t n = 256;
  auto pi = run_ba(base_config(BoostProtocol::kPiBaSnark, n, 0.0, 16));
  auto star = run_ba(base_config(BoostProtocol::kStar, n, 0.0, 16));
  // Star: max locality ~ n (committee members flood everyone); π_ba's
  // polylog committees keep every party's degree well below that (the
  // scaled constants are chunky at n=256; bench/fig_locality shows the
  // diverging slopes).
  EXPECT_EQ(star.stats.max_locality(), n - 1);
  EXPECT_LT(pi.stats.max_locality(), star.stats.max_locality());
}

TEST(CostShape, MultisigCertificateGrowsLinearly) {
  // BGT'13's per-party bytes grow ~linearly in n because every certificate
  // carries an n-bit signer bitmap; π_ba's certificate is constant-size.
  auto ms_small = run_ba(base_config(BoostProtocol::kMultisig, 128, 0.0, 17));
  auto ms_large = run_ba(base_config(BoostProtocol::kMultisig, 512, 0.0, 17));
  auto pi_small = run_ba(base_config(BoostProtocol::kPiBaSnark, 128, 0.0, 17));
  auto pi_large = run_ba(base_config(BoostProtocol::kPiBaSnark, 512, 0.0, 17));
  double ms_growth = static_cast<double>(ms_large.stats.max_bytes_total()) /
                     static_cast<double>(ms_small.stats.max_bytes_total());
  double pi_growth = static_cast<double>(pi_large.stats.max_bytes_total()) /
                     static_cast<double>(pi_small.stats.max_bytes_total());
  EXPECT_GT(ms_growth, pi_growth);
}

TEST(CostShape, SamplingLocalityIsSqrtish) {
  const std::size_t n = 1024;
  auto sampling = run_ba(base_config(BoostProtocol::kSampling, n, 0.0, 18));
  // Θ(√n log n) samples: well below n, well above polylog.
  EXPECT_LT(sampling.stats.max_locality(), n - 1);
  EXPECT_GT(sampling.stats.max_locality(),
            static_cast<std::size_t>(std::sqrt(static_cast<double>(n))));
}

}  // namespace
}  // namespace srds
