// Chaos suite: end-to-end BA runs under seeded network fault injection
// (net/faults.hpp). The invariants, for every BoostProtocol variant and
// every fault class:
//   * SAFETY is never violated — no two honest parties decide differently,
//     whatever the network drops, delays, duplicates or partitions;
//   * AVAILABILITY degrades gracefully — the decided fraction stays above a
//     configured floor for each fault class;
//   * runs are DETERMINISTIC — the same seed reproduces byte-identical
//     NetworkStats, fault counters included.
// ctest label: chaos (run with `ctest -L chaos`, e.g. under sanitizers).
#include <gtest/gtest.h>

#include "ba/runner.hpp"

namespace srds {
namespace {

constexpr std::size_t kN = 64;

const BoostProtocol kAllProtocols[] = {
    BoostProtocol::kPiBaOwf,  BoostProtocol::kPiBaSnark, BoostProtocol::kNaive,
    BoostProtocol::kMultisig, BoostProtocol::kSampling,  BoostProtocol::kStar,
};

BaRunResult chaos_run(BoostProtocol proto, const FaultPlan& plan, double beta = 0.1,
                      std::uint64_t seed = 7, std::size_t n = kN) {
  BaRunConfig cfg;
  cfg.n = n;
  cfg.beta = beta;
  cfg.seed = seed;
  cfg.protocol = proto;
  cfg.faults = plan;
  return run_ba(cfg);
}

class ChaosSuite : public ::testing::TestWithParam<BoostProtocol> {};

TEST_P(ChaosSuite, SurvivesDropFaults) {
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_prob = 0.05;
  auto r = chaos_run(GetParam(), plan);
  EXPECT_TRUE(r.agreement) << protocol_name(GetParam());
  EXPECT_GE(r.decided_fraction(), 0.80) << protocol_name(GetParam());
  EXPECT_GT(r.stats.faults.dropped, 0u);
}

TEST_P(ChaosSuite, SurvivesDelayFaults) {
  FaultPlan plan;
  plan.seed = 12;
  plan.delay_prob = 0.25;
  plan.max_delay = 2;
  auto r = chaos_run(GetParam(), plan);
  EXPECT_TRUE(r.agreement) << protocol_name(GetParam());
  EXPECT_GE(r.decided_fraction(), 0.80) << protocol_name(GetParam());
  EXPECT_GT(r.stats.faults.delayed, 0u);
  // Bounded delay means delayed != lost: every deferred message that had
  // time left arrived.
  EXPECT_GT(r.stats.faults.late_delivered, 0u);
}

TEST_P(ChaosSuite, SurvivesDuplicationFaults) {
  FaultPlan plan;
  plan.seed = 13;
  plan.duplicate_prob = 0.2;
  auto r = chaos_run(GetParam(), plan);
  EXPECT_TRUE(r.agreement) << protocol_name(GetParam());
  // Duplication loses nothing; availability must match a fault-free run.
  EXPECT_GE(r.decided_fraction(), 0.95) << protocol_name(GetParam());
  EXPECT_GT(r.stats.faults.duplicated, 0u);
}

TEST_P(ChaosSuite, SurvivesCrashFaults) {
  FaultPlan plan;
  plan.seed = 14;
  // Crash-stop six parties at staggered rounds.
  for (PartyId p = 0; p < 6; ++p) {
    plan.crashes.push_back(CrashFault{p * 9 + 2, 3 + p * 2});
  }
  auto r = chaos_run(GetParam(), plan);
  EXPECT_TRUE(r.agreement) << protocol_name(GetParam());
  EXPECT_GT(r.crashed, 0u);
  EXPECT_GE(r.surviving_decided_fraction(), 0.80) << protocol_name(GetParam());
}

TEST_P(ChaosSuite, SurvivesPartitionFaults) {
  FaultPlan plan;
  plan.seed = 15;
  // Eight parties split off for the whole run: the majority side must still
  // reach agreement; the minority side may stay undecided but must never
  // decide a conflicting value.
  PartitionWindow w;
  w.from_round = 0;
  w.until_round = 1u << 20;
  for (PartyId p = 0; p < 8; ++p) w.group.push_back(p * 7 + 1);
  plan.partitions.push_back(w);
  auto r = chaos_run(GetParam(), plan);
  EXPECT_TRUE(r.agreement) << protocol_name(GetParam());
  EXPECT_GE(r.decided_fraction(), 0.70) << protocol_name(GetParam());
  EXPECT_GT(r.stats.faults.partitioned, 0u);
}

TEST_P(ChaosSuite, HealedPartitionRecovers) {
  FaultPlan plan;
  plan.seed = 18;
  // A transient cut across the front end that heals before the boost: the
  // boost phase must repair availability for the briefly-isolated side.
  PartitionWindow w;
  w.from_round = 4;
  w.until_round = 16;
  for (PartyId p = 0; p < 10; ++p) w.group.push_back(p * 5 + 2);
  plan.partitions.push_back(w);
  auto r = chaos_run(GetParam(), plan);
  EXPECT_TRUE(r.agreement) << protocol_name(GetParam());
  EXPECT_GE(r.decided_fraction(), 0.70) << protocol_name(GetParam());
}

TEST_P(ChaosSuite, SafetyUnderCombinedFaults) {
  FaultPlan plan;
  plan.seed = 16;
  plan.drop_prob = 0.03;
  plan.delay_prob = 0.15;
  plan.max_delay = 2;
  plan.duplicate_prob = 0.05;
  plan.crashes.push_back(CrashFault{5, 4});
  plan.crashes.push_back(CrashFault{23, 10});
  PartitionWindow w;
  w.from_round = 2;
  w.until_round = 5;
  for (PartyId p = 40; p < 46; ++p) w.group.push_back(p);
  plan.partitions.push_back(w);
  auto r = chaos_run(GetParam(), plan);
  EXPECT_TRUE(r.agreement) << protocol_name(GetParam());
  EXPECT_GE(r.surviving_decided_fraction(), 0.60) << protocol_name(GetParam());
}

TEST_P(ChaosSuite, ChaosRunsAreDeterministic) {
  FaultPlan plan;
  plan.seed = 17;
  plan.drop_prob = 0.04;
  plan.delay_prob = 0.1;
  plan.max_delay = 2;
  plan.duplicate_prob = 0.05;
  auto a = chaos_run(GetParam(), plan);
  auto b = chaos_run(GetParam(), plan);
  EXPECT_EQ(a.stats, b.stats) << protocol_name(GetParam());
  EXPECT_EQ(a.boost_stats, b.boost_stats) << protocol_name(GetParam());
  EXPECT_EQ(a.stats.faults, b.stats.faults);
  EXPECT_EQ(a.decided, b.decided);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.rounds, b.rounds);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ChaosSuite, ::testing::ValuesIn(kAllProtocols),
                         [](const ::testing::TestParamInfo<BoostProtocol>& info) {
                           switch (info.param) {
                             case BoostProtocol::kPiBaOwf: return "PiBaOwf";
                             case BoostProtocol::kPiBaSnark: return "PiBaSnark";
                             case BoostProtocol::kNaive: return "Naive";
                             case BoostProtocol::kMultisig: return "Multisig";
                             case BoostProtocol::kSampling: return "Sampling";
                             case BoostProtocol::kStar: return "Star";
                           }
                           return "Unknown";
                         });

// A fault-free plan must reproduce the paper's model exactly: zero fault
// counters and full agreement/decision.
TEST(ChaosBaseline, EmptyPlanBehavesLikeNoPlan) {
  FaultPlan empty;
  BaRunConfig cfg;
  cfg.n = kN;
  cfg.beta = 0.1;
  cfg.seed = 7;
  cfg.protocol = BoostProtocol::kPiBaSnark;
  auto plain = run_ba(cfg);
  cfg.faults = empty;  // plan with no faults configured
  auto chaos = run_ba(cfg);
  EXPECT_EQ(plain.stats, chaos.stats);
  EXPECT_EQ(plain.decided, chaos.decided);
  EXPECT_EQ(chaos.stats.faults, FaultCounters{});
}

// Drop-rate sweep for the paper's protocol: safety at every point, and
// availability degrading monotonically-ish with loss (floor per rate).
TEST(ChaosSweep, PiBaSnarkDropSweepKeepsAgreement) {
  for (double rate : {0.0, 0.01, 0.05, 0.10}) {
    FaultPlan plan;
    plan.seed = 21;
    plan.drop_prob = rate;
    auto r = chaos_run(BoostProtocol::kPiBaSnark, plan);
    EXPECT_TRUE(r.agreement) << "drop=" << rate;
    EXPECT_GE(r.decided_fraction(), rate == 0.0 ? 1.0 : 0.75) << "drop=" << rate;
  }
}

}  // namespace
}  // namespace srds
