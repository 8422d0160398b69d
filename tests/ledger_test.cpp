// Tests for the per-party accounting plane (obs/ledger.hpp) and the
// complexity-budget auditor (obs/budget.hpp). The ledger is driven here
// through raw TraceSink events with hand-picked payloads, so every charge
// is known exactly; the pinned seeded π_BA run and its per-round rows
// live in tests/trace_test.cpp, and the brute-force locality, tally and
// per-round oracle under faults in tests/net_stats_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/message.hpp"
#include "json_parser.hpp"
#include "obs/budget.hpp"
#include "obs/ledger.hpp"

namespace srds {
namespace {

using obs::Budget;
using obs::BudgetAuditor;
using obs::BudgetEval;
using obs::Delivery;
using obs::Ledger;
using obs::LedgerField;
using obs::PartyStat;
using testjson::PJson;

Message msg(PartyId from, PartyId to, std::size_t bytes,
            MsgKind kind = MsgKind::kDissem) {
  return Message{from, to, Bytes(bytes, 0xAB), kind};
}

TEST(Ledger, ChargesFollowNetworkStatsConventions) {
  Ledger led;
  led.on_run_begin(4);
  led.on_phase(0, "setup");
  led.on_phase(2, "boost");

  // Round 0 (setup): 0 -> 1, 10 bytes, delivered next round (still setup).
  led.on_send(0, msg(0, 1, 10));
  led.on_delivery(1, msg(0, 1, 10), Delivery::kDelivered);
  // Round 2 (boost): 1 -> 2 delivered; 2 -> 3 dropped (sender still pays).
  led.on_send(2, msg(1, 2, 8, MsgKind::kBoostSign));
  led.on_send(2, msg(2, 3, 6, MsgKind::kBoostSign));
  led.on_delivery(3, msg(1, 2, 8, MsgKind::kBoostSign), Delivery::kDelivered);
  led.on_delivery(3, msg(2, 3, 6, MsgKind::kBoostSign), Delivery::kDropped);
  led.on_run_end(4);

  EXPECT_EQ(led.n_parties(), 4u);
  EXPECT_EQ(led.rounds_run(), 4u);

  // Sender pays on accepted send — even for the dropped message.
  EXPECT_EQ(led.total(0).bytes_sent, 10u);
  EXPECT_EQ(led.total(1).bytes_sent, 8u);
  EXPECT_EQ(led.total(2).bytes_sent, 6u);
  // Receiver is charged at actual delivery only.
  EXPECT_EQ(led.total(1).bytes_recv, 10u);
  EXPECT_EQ(led.total(2).bytes_recv, 8u);
  EXPECT_EQ(led.total(3).bytes_recv, 0u);  // its message was dropped
  EXPECT_EQ(led.total(3).msgs_recv, 0u);
  EXPECT_EQ(led.total(0).bytes_total(), 10u);
  EXPECT_EQ(led.total(2).bytes_total(), 14u);

  // Phase attribution is by observed round: the setup send and its round-1
  // delivery both land in "setup"; everything else in "boost".
  const std::size_t setup = led.phase_index("setup");
  const std::size_t boost = led.phase_index("boost");
  ASSERT_NE(setup, Ledger::kAllPhases);
  ASSERT_NE(boost, Ledger::kAllPhases);
  EXPECT_EQ(led.phase_total(setup, 0).bytes_sent, 10u);
  EXPECT_EQ(led.phase_total(setup, 1).bytes_recv, 10u);
  EXPECT_EQ(led.phase_total(setup, 1).bytes_sent, 0u);
  EXPECT_EQ(led.phase_total(boost, 1).bytes_sent, 8u);
  EXPECT_EQ(led.phase_total(boost, 2).bytes_recv, 8u);
  EXPECT_EQ(led.phase_total(boost, 2).bytes_sent, 6u);

  // Per-kind split.
  EXPECT_EQ(led.kind_total(MsgKind::kDissem, 0).bytes_sent, 10u);
  EXPECT_EQ(led.kind_total(MsgKind::kBoostSign, 1).bytes_sent, 8u);
  EXPECT_EQ(led.kind_total(MsgKind::kBoostSign, 2).bytes_recv, 8u);
  EXPECT_EQ(led.kind_total(MsgKind::kDissem, 2).bytes_sent, 0u);
}

TEST(Ledger, ImplicitPrePhaseCoversUnmarkedPrefix) {
  Ledger led;
  led.on_run_begin(2);
  led.on_phase(3, "late-phase");  // first mark after round 0
  led.on_send(0, msg(0, 1, 5));
  led.on_send(3, msg(1, 0, 7));
  led.on_run_end(4);

  const std::size_t pre = led.phase_index("pre");
  ASSERT_NE(pre, Ledger::kAllPhases);
  EXPECT_EQ(led.phase_start(pre), 0u);
  EXPECT_EQ(led.phase_total(pre, 0).bytes_sent, 5u);
  EXPECT_EQ(led.phase_total(led.phase_index("late-phase"), 1).bytes_sent, 7u);
}

TEST(Ledger, StatDistributionAndExcludeMask) {
  Ledger led;
  led.on_run_begin(5);
  // Party i sends 100 * i bytes (party 0 sends nothing).
  for (PartyId i = 1; i < 5; ++i) led.on_send(0, msg(i, 0, 100 * i));
  led.on_run_end(1);

  PartyStat all = led.stat(LedgerField::kBytesSent);
  EXPECT_EQ(all.parties, 5u);
  EXPECT_EQ(all.max, 400u);
  EXPECT_EQ(all.argmax, 4u);
  EXPECT_EQ(all.total, 1000u);
  EXPECT_EQ(all.p50, 200u);  // sorted {0,100,200,300,400}
  EXPECT_EQ(all.p90, 400u);

  // Masking out the worst party (e.g. a corrupted one) changes the stat.
  std::vector<bool> exclude(5, false);
  exclude[4] = true;
  PartyStat honest = led.stat(LedgerField::kBytesSent, Ledger::kAllPhases, &exclude);
  EXPECT_EQ(honest.parties, 4u);
  EXPECT_EQ(honest.max, 300u);
  EXPECT_EQ(honest.argmax, 3u);
  EXPECT_EQ(honest.total, 600u);
}

TEST(Ledger, LocalityPerPhaseWithoutRoundEnds) {
  // Driven without on_round_end: a phase change must still settle the
  // outgoing phase's peer list (the simulator always ends its rounds, a
  // hand-driven ledger need not).
  Ledger led;
  led.on_run_begin(4);
  led.on_phase(0, "a");
  led.on_phase(2, "b");
  led.on_send(0, msg(0, 1, 1));
  led.on_send(0, msg(0, 2, 1));
  led.on_send(0, msg(0, 1, 1));
  led.on_send(1, msg(0, 1, 1));
  led.on_delivery(1, msg(3, 0, 1), Delivery::kDelivered);
  led.on_send(2, msg(0, 3, 1));
  led.on_run_end(3);
  const std::size_t a = led.phase_index("a"), b = led.phase_index("b");
  EXPECT_EQ(led.locality(a, a + 1)[0], 3u);  // {1, 2, 3}
  EXPECT_EQ(led.locality(b, b + 1)[0], 1u);  // {3}
  EXPECT_EQ(led.locality()[0], 3u);
  EXPECT_EQ(led.locality()[1], 0u);  // no delivery to party 1 was charged
}

TEST(Ledger, AccumulateModeCarriesTotalsAcrossRuns) {
  Ledger led;
  led.set_accumulate(true);
  for (int run = 0; run < 3; ++run) {
    led.on_run_begin(2);
    led.on_phase(0, "boost");
    led.on_send(0, msg(0, 1, 10));
    led.on_delivery(1, msg(0, 1, 10), Delivery::kDelivered);
    led.on_run_end(2);
  }
  // Whole-run totals accumulate over the three executions (the ℓ-execution
  // broadcast-service quantity)...
  EXPECT_EQ(led.total(0).bytes_sent, 30u);
  EXPECT_EQ(led.total(1).bytes_recv, 30u);
  // ...while phase tallies restart each run.
  EXPECT_EQ(led.phase_total(led.phase_index("boost"), 0).bytes_sent, 10u);

  // A different n cannot accumulate: the ledger resets.
  led.on_run_begin(3);
  EXPECT_EQ(led.total(0).bytes_sent, 0u);
}

TEST(Budget, BoundBitsMath) {
  // Pure polylog: c * log2(n)^k.
  Budget polylog{.c = 100, .k = 2};
  EXPECT_DOUBLE_EQ(polylog.bound_bits(1024), 100.0 * 10 * 10);
  // Linear: c * n.
  Budget linear{.c = 3, .k = 0, .n_exp = 1};
  EXPECT_DOUBLE_EQ(linear.bound_bits(64), 3.0 * 64);
  // Sqrt with a log factor: c * log2(n) * sqrt(n).
  Budget sqrt_b{.c = 2, .k = 1, .n_exp = 0.5};
  EXPECT_DOUBLE_EQ(sqrt_b.bound_bits(256), 2.0 * 8 * 16);
  // Validity floor.
  Budget floored{.c = 1, .k = 1, .n_exp = 0, .min_n = 512};
  EXPECT_FALSE(floored.applicable(256));
  EXPECT_TRUE(floored.applicable(512));
}

TEST(BudgetAuditor, EvaluatesPassFailAndSkip) {
  Ledger led;
  led.on_run_begin(4);
  led.on_phase(0, "boost");
  // Party 1 sends 100 bytes = 800 bits; parties 2, 3 receive 50 each.
  led.on_send(0, msg(1, 2, 50));
  led.on_send(0, msg(1, 3, 50));
  led.on_delivery(1, msg(1, 2, 50), Delivery::kDelivered);
  led.on_delivery(1, msg(1, 3, 50), Delivery::kDelivered);
  led.on_run_end(2);

  BudgetAuditor auditor;
  auditor.require("proto", "boost", Budget{.c = 1000, .k = 0});   // 1000 >= 800: ok
  auditor.require("tight", "boost", Budget{.c = 500, .k = 0});    // 500 < 800: finding
  auditor.require("floored", "boost", Budget{.c = 1, .k = 0, .n_exp = 0, .min_n = 64});
  auditor.require("ghost", "no-such-phase", Budget{.c = 1, .k = 0});
  ASSERT_EQ(auditor.size(), 4u);

  auto evals = auditor.evaluate(led);
  ASSERT_EQ(evals.size(), 4u);

  EXPECT_TRUE(evals[0].ok);
  EXPECT_FALSE(evals[0].skipped);
  EXPECT_EQ(evals[0].max_bits, 800u);  // party 1: 8 * (50 + 50) sent
  EXPECT_EQ(evals[0].worst_party, 1u);
  EXPECT_EQ(evals[0].audited, 4u);

  EXPECT_FALSE(evals[1].ok);
  EXPECT_EQ(evals[1].violators, 1u);  // only party 1 exceeds 500 bits

  EXPECT_TRUE(evals[2].skipped);  // n = 4 below the min_n = 64 floor
  EXPECT_FALSE(evals[2].skip_reason.empty());
  EXPECT_TRUE(evals[3].skipped);  // the phase never appeared in the ledger

  // audit() returns the findings only: ran and failed.
  auto findings = auditor.audit(led);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].protocol, "tight");

  // The corrupt-party mask changes the verdict: exclude the violator.
  std::vector<bool> exclude(4, false);
  exclude[1] = true;
  auto masked = auditor.evaluate(led, &exclude);
  EXPECT_TRUE(masked[1].ok);
  EXPECT_EQ(masked[1].audited, 3u);
}

TEST(BudgetAuditor, JsonShapeIsParseable) {
  Ledger led;
  led.on_run_begin(2);
  led.on_phase(0, "boost");
  led.on_send(0, msg(0, 1, 10));
  led.on_run_end(1);

  BudgetAuditor auditor;
  auditor.require("p", "boost", Budget{.c = 10, .k = 1, .n_exp = 0.5, .min_n = 2});
  PJson arr = testjson::parse(BudgetAuditor::to_json(auditor.evaluate(led)).dump());
  ASSERT_EQ(arr.array.size(), 1u);
  const PJson& e = arr.array[0];
  EXPECT_EQ(e.get("protocol")->string, "p");
  EXPECT_EQ(e.get("phase")->string, "boost");
  EXPECT_EQ(e.get("n")->integer, 2);
  EXPECT_EQ(e.get("max_bits")->integer, 80);
  ASSERT_NE(e.get("budget"), nullptr);
  EXPECT_EQ(e.get("budget")->get("c")->integer, 10);

  // Ledger::to_json with per-party rows round-trips too.
  PJson doc = testjson::parse(led.to_json(/*per_party=*/true).dump());
  ASSERT_NE(doc.get("per_party"), nullptr);
  ASSERT_EQ(doc.get("per_party")->array.size(), 2u);
  EXPECT_EQ(doc.get("per_party")->array[0].get("bytes_sent")->integer, 10);
  EXPECT_EQ(doc.get("totals")->get("bytes_sent")->get("max")->integer, 10);
}

}  // namespace
}  // namespace srds
