// Property sweeps over π_ba's configuration space: seeds, corruption rates,
// tree committee factors, redundancy, and input values. Safety (agreement +
// validity among deciders) must hold at every point; liveness (decided
// fraction) may only degrade gracefully.
#include <gtest/gtest.h>

#include "ba/runner.hpp"

namespace srds {
namespace {

struct SweepPoint {
  std::uint64_t seed;
  double beta;
  bool input;
};

// Print the fields, not the raw bytes: gtest would otherwise dump the
// padding after `input`, and the discovered ctest names would change from
// build to build.
void PrintTo(const SweepPoint& p, std::ostream* os) {
  *os << "seed" << p.seed << "_beta" << p.beta << "_input" << p.input;
}

class PiBaProperty : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(PiBaProperty, SafetyInvariant) {
  auto [seed, beta, input] = GetParam();
  BaRunConfig cfg;
  cfg.n = 96;
  cfg.beta = beta;
  cfg.seed = seed;
  cfg.input = input;
  cfg.protocol = BoostProtocol::kPiBaSnark;
  auto r = run_ba(cfg);
  EXPECT_TRUE(r.agreement);
  if (r.value.has_value()) {
    EXPECT_EQ(*r.value, input);       // validity: all honest inputs agree
    EXPECT_EQ(r.correct, r.decided);  // no honest party decided wrongly
  }
  if (beta <= 0.25) {
    EXPECT_GE(r.decided_fraction(), 0.85) << "liveness collapsed";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PiBaProperty,
    ::testing::Values(SweepPoint{1, 0.0, true}, SweepPoint{2, 0.1, false},
                      SweepPoint{3, 0.2, true}, SweepPoint{4, 0.25, false},
                      SweepPoint{5, 0.3, true}, SweepPoint{6, 0.2, false},
                      SweepPoint{7, 0.15, true}, SweepPoint{8, 0.25, true}));

TEST(PiBaProperty, RedundancyNeverHurtsSafety) {
  for (std::size_t rho : {1u, 2u, 5u}) {
    BaRunConfig cfg;
    cfg.n = 96;
    cfg.beta = 0.2;
    cfg.seed = 50 + rho;
    cfg.certificate_redundancy = rho;
    auto r = run_ba(cfg);
    EXPECT_TRUE(r.agreement) << "rho=" << rho;
    ASSERT_TRUE(r.value.has_value()) << "rho=" << rho;
    EXPECT_TRUE(*r.value) << "rho=" << rho;
  }
}

TEST(PiBaProperty, BiggerCommitteesStillCorrect) {
  BaRunConfig cfg;
  cfg.n = 96;
  cfg.beta = 0.2;
  cfg.seed = 60;
  cfg.committee_factor = 2.0;
  auto r = run_ba(cfg);
  EXPECT_TRUE(r.agreement);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_TRUE(*r.value);
  EXPECT_GE(r.decided_fraction(), 0.9);
}

TEST(PiBaProperty, OwfSortitionParameterSweep) {
  for (std::size_t lambda : {24u, 48u, 96u}) {
    BaRunConfig cfg;
    cfg.n = 96;
    cfg.beta = 0.15;
    cfg.seed = 70 + lambda;
    cfg.protocol = BoostProtocol::kPiBaOwf;
    cfg.expected_signers = lambda;
    auto r = run_ba(cfg);
    EXPECT_TRUE(r.agreement) << "lambda=" << lambda;
    ASSERT_TRUE(r.value.has_value()) << "lambda=" << lambda;
    EXPECT_TRUE(*r.value) << "lambda=" << lambda;
  }
}

}  // namespace
}  // namespace srds
