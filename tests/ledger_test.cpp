// Tests for the per-party accounting plane (obs/ledger.hpp) and the
// complexity-budget auditor (obs/budget.hpp). The ledger is driven here
// through raw TraceSink events with hand-picked payloads, so every charge
// is known exactly, and with randomized send and delivery streams whose
// locality, in both peer-set forms, is checked against brute-force std::set
// books; the pinned seeded π_BA run and its per-round rows live in
// tests/trace_test.cpp, and the brute-force locality, tally and per-round
// oracle for a simulator run under faults in tests/net_stats_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
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

// ---- Locality in both peer-set forms against brute-force std::set books ----

/// One std::set of peers per party per phase (keyed by phase name, as the
/// ledger's indices shift when a mark is inserted), plus the sets carried
/// from earlier runs in accumulate mode. Phases follow the ledger's rules:
/// an implicit "pre" at round 0, marks kept across runs, and an event
/// charged to the last mark starting at or before its round.
class LocalityOracle {
 public:
  void run_begin(std::size_t n, bool carry) {
    if (carry) {
      for (const auto& [name, sets] : sets_) {
        for (PartyId i = 0; i < n; ++i) carried_[i].insert(sets[i].begin(), sets[i].end());
      }
    } else {
      carried_.assign(n, {});
    }
    n_ = n;
    if (marks_.empty() || marks_.front().first > 0) marks_.insert(marks_.begin(), {0, "pre"});
    sets_.clear();
  }

  void phase(std::size_t start, const std::string& name) {
    for (const auto& m : marks_) {
      if (m.first == start && m.second == name) return;
    }
    auto pos = std::upper_bound(marks_.begin(), marks_.end(), start,
                                [](std::size_t r, const auto& m) { return r < m.first; });
    marks_.insert(pos, {start, name});
  }

  void add(std::size_t round, PartyId self, PartyId peer) {
    auto& sets = sets_[phase_at(round)];
    sets.resize(n_);
    sets[self].insert(peer);
  }

  const std::string& phase_at(std::size_t round) const {
    const std::string* name = &marks_.front().second;
    for (const auto& m : marks_) {
      if (m.first <= round) name = &m.second;
    }
    return *name;
  }

  std::size_t phase_size(const std::string& name, PartyId i) const {
    auto it = sets_.find(name);
    return it == sets_.end() || it->second.empty() ? 0 : it->second[i].size();
  }

  /// |carried ∪ the named phases| for party i.
  std::size_t union_size(const std::vector<std::string>& names, bool with_carried,
                         PartyId i) const {
    std::set<PartyId> u;
    if (with_carried) u = carried_[i];
    for (const std::string& name : names) {
      auto it = sets_.find(name);
      if (it != sets_.end() && !it->second.empty()) {
        u.insert(it->second[i].begin(), it->second[i].end());
      }
    }
    return u.size();
  }

  std::size_t mark_count() const { return marks_.size(); }
  /// Non-empty current-run sets, split at the bitmap's word count.
  void count_forms(std::size_t words, std::size_t& sparse, std::size_t& dense) const {
    for (const auto& [name, sets] : sets_) {
      for (const auto& s : sets) {
        if (s.size() > words) {
          ++dense;
        } else if (!s.empty()) {
          ++sparse;
        }
      }
    }
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::pair<std::size_t, std::string>> marks_;
  std::map<std::string, std::vector<std::set<PartyId>>> sets_;
  std::vector<std::set<PartyId>> carried_;
};

void expect_locality_matches(const Ledger& led, const LocalityOracle& oracle) {
  const std::size_t n = led.n_parties();
  ASSERT_EQ(led.phase_count(), oracle.mark_count());
  std::vector<std::string> names;
  for (std::size_t p = 0; p < led.phase_count(); ++p) names.push_back(led.phase_name(p));

  const std::vector<std::size_t> whole = led.locality();
  ASSERT_EQ(whole.size(), n);
  for (PartyId i = 0; i < n; ++i) {
    ASSERT_EQ(whole[i], oracle.union_size(names, true, i)) << "whole run, party " << i;
  }
  for (std::size_t p = 0; p < names.size(); ++p) {
    const std::vector<std::size_t> one = led.locality(p, p + 1);
    for (PartyId i = 0; i < n; ++i) {
      ASSERT_EQ(one[i], oracle.phase_size(names[p], i)) << names[p] << ", party " << i;
    }
  }
  // Every phase but the first, which leaves out "pre".
  const std::vector<std::size_t> range = led.locality(1, names.size());
  const std::vector<std::string> tail(names.begin() + 1, names.end());
  for (PartyId i = 0; i < n; ++i) {
    ASSERT_EQ(range[i], oracle.union_size(tail, false, i)) << "phases [1, end), party " << i;
  }
}

/// Feeds one run of randomized traffic into a ledger and its oracle, then
/// returns how many phase sets went from sparse (1..words peers) to dense
/// within one round. Parties fall in four classes by id % 4: class 0 sends
/// to 8 random members of its class each round, so its longer phases
/// outgrow the bitmap; class 1 sends to words / 4 + 1, so its sets cross the
/// limit partway through a phase's second or third round; classes 2 and 3
/// talk only to a fixed partner and stay sparse. One delivery in ten is not
/// charged (dropped, partitioned, offline), one in twenty is delayed and
/// charged as late a round or two on. Halfway through the run a "mid" mark
/// is registered in the middle of the current round, with a "late" one
/// ahead of it, and the books are compared at that round's end, before its
/// additions are sealed.
std::size_t feed_run(Ledger& led, LocalityOracle& oracle, std::size_t n, std::uint64_t seed,
                     bool carry) {
  constexpr std::size_t kRounds = 10, kMidRound = 5;
  std::mt19937_64 rng(seed);
  auto pick = [&](std::size_t k) { return static_cast<std::size_t>(rng() % k); };
  auto mark = [&](std::size_t start, const std::string& name) {
    led.on_phase(start, name);
    oracle.phase(start, name);
  };
  const std::size_t words = (n + 31) / 32;
  led.on_run_begin(n);
  oracle.run_begin(n, carry);
  mark(0, "a");
  mark(4, "b");

  auto deliver = [&](std::size_t r, PartyId from, PartyId to, Delivery outcome) {
    led.on_delivery(r, msg(from, to, 1), outcome);
    if (outcome == Delivery::kDelivered || outcome == Delivery::kDuplicated ||
        outcome == Delivery::kLate) {
      oracle.add(r, to, from);
    }
  };
  // A random member of i's class other than i.
  auto classmate = [&](PartyId i) {
    const std::size_t members = (n - i % 4 + 3) / 4;
    PartyId p = i;
    while (p == i) p = static_cast<PartyId>(i % 4 + 4 * pick(members));
    return p;
  };
  std::size_t crossings = 0;
  std::vector<std::pair<std::size_t, Message>> delayed;  // (arrival round, message)
  for (std::size_t r = 0; r < kRounds; ++r) {
    std::vector<std::pair<PartyId, PartyId>> sends;
    for (PartyId i = 0; i < n; ++i) {
      const std::size_t fanout = i % 4 == 0 ? 8 : i % 4 == 1 ? words / 4 + 1 : pick(2);
      for (std::size_t k = 0; k < fanout; ++k) {
        const PartyId to = i % 4 >= 2 ? (i ^ 1u) : classmate(i);
        if (to < n) sends.emplace_back(i, to);
      }
    }
    std::shuffle(sends.begin(), sends.end(), rng);

    const std::string phase = oracle.phase_at(r);
    std::vector<std::size_t> before(n);
    for (PartyId i = 0; i < n; ++i) before[i] = oracle.phase_size(phase, i);
    for (auto it = delayed.begin(); it != delayed.end();) {
      if (it->first != r) {
        ++it;
        continue;
      }
      deliver(r, it->second.from, it->second.to, Delivery::kLate);
      it = delayed.erase(it);
    }
    for (std::size_t s = 0; s < sends.size(); ++s) {
      if (r == kMidRound && s == sends.size() / 2) {
        mark(r, "mid");  // re-anchors the round in flight
        mark(r + 2, "late");
      }
      const auto [from, to] = sends[s];
      led.on_send(r, msg(from, to, 1));
      oracle.add(r, from, to);
      switch (pick(20)) {
        case 0: deliver(r, from, to, Delivery::kDropped); break;
        case 1: deliver(r, from, to, Delivery::kPartitioned); break;
        case 2: deliver(r, from, to, Delivery::kOffline); break;
        case 3:
          deliver(r, from, to, Delivery::kDelayed);
          delayed.emplace_back(r + 1 + pick(2), msg(from, to, 1));
          break;
        case 4:
          deliver(r, from, to, Delivery::kDelivered);
          deliver(r, from, to, Delivery::kDuplicated);
          break;
        default: deliver(r, from, to, Delivery::kDelivered); break;
      }
    }
    for (PartyId i = 0; i < n && oracle.phase_at(r) == phase; ++i) {
      if (before[i] >= 1 && before[i] <= words && oracle.phase_size(phase, i) > words) {
        ++crossings;
      }
    }
    if (r == kMidRound) expect_locality_matches(led, oracle);
    led.on_round_end(r);
  }
  led.on_run_end(kRounds);
  return crossings;
}

constexpr std::size_t kOracleSizes[] = {40, 64, 200, 1024};

TEST(LedgerLocality, BothPeerSetFormsMatchBruteForceOracle) {
  for (std::size_t n : kOracleSizes) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Ledger led;
    LocalityOracle oracle;
    const std::size_t crossings = feed_run(led, oracle, n, 7 + n, false);
    expect_locality_matches(led, oracle);
    std::size_t sparse = 0, dense = 0;
    oracle.count_forms((n + 31) / 32, sparse, dense);
    EXPECT_GT(sparse, 0u);
    EXPECT_GT(dense, 0u);
    EXPECT_GT(crossings, 0u);
  }
}

TEST(LedgerLocality, AccumulateModeMatchesOracleAcrossRuns) {
  for (std::size_t n : kOracleSizes) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Ledger led;
    led.set_accumulate(true);
    LocalityOracle oracle;
    feed_run(led, oracle, n, 11 + n, false);
    expect_locality_matches(led, oracle);
    // The second run carries the first one's sets, dense and sparse.
    feed_run(led, oracle, n, 13 + n, true);
    expect_locality_matches(led, oracle);
  }
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
