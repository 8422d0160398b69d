// Tests for the accounting plane: phase-marked snapshots, per-party
// locality, and a brute-force oracle for the Ledger's tallies and locality
// under every fault class.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "net/simulator.hpp"
#include "obs/ledger.hpp"

namespace srds {
namespace {

/// Sends `bytes_per_round` to party 1 every round for `rounds` rounds.
class MeteredSender final : public Party {
 public:
  MeteredSender(std::size_t rounds, std::size_t bytes_per_round)
      : rounds_(rounds), bytes_(bytes_per_round) {}

  SendList on_round(std::size_t round, const std::vector<Message>&) override {
    SendList out;
    if (round >= rounds_) {
      done_ = true;
      return out;
    }
    out.send(1, Bytes(bytes_, 0xAB), MsgKind::kUnknown);
    return out;
  }
  bool done() const override { return done_; }

 private:
  std::size_t rounds_, bytes_;
  bool done_ = false;
};

class Sink final : public Party {
 public:
  SendList on_round(std::size_t, const std::vector<Message>&) override {
    return {};
  }
  bool done() const override { return true; }
};

/// Snapshot of the phases from `name` to the end of the run — how the BA
/// harness derives its boost-phase stats.
NetworkStats phase_snapshot(const Simulator& sim, const std::string& name) {
  const obs::Ledger& l = sim.ledger();
  return NetworkStats::of(l, l.phase_index(name), l.phase_count());
}

TEST(PhaseStats, MarkSplitsAccounting) {
  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<MeteredSender>(10, 100));
  parties.push_back(std::make_unique<Sink>());
  Simulator sim(std::move(parties), std::vector<bool>{false, false}, nullptr);
  sim.ledger().on_phase(6, "tail");
  sim.run(32);
  // 10 rounds x 100 bytes total; rounds 6..9 => 400 bytes in the tail phase.
  EXPECT_EQ(sim.stats().party[0].bytes_sent, 1000u);
  const NetworkStats tail = phase_snapshot(sim, "tail");
  EXPECT_EQ(tail.party[0].bytes_sent, 400u);
  EXPECT_EQ(tail.party[0].msgs_sent, 4u);
  EXPECT_EQ(tail.party[1].bytes_recv, 400u);
  EXPECT_EQ(tail.party[0].locality(), 1u);
  // The implicit "pre" phase holds the other six rounds.
  const NetworkStats pre = NetworkStats::of(sim.ledger(), 0, 1);
  EXPECT_EQ(pre.party[0].bytes_sent, 600u);
  EXPECT_EQ(pre.party[1].bytes_recv, 600u);
}

TEST(PhaseStats, NoMarkMeansEmptyPhaseBucket) {
  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<MeteredSender>(3, 10));
  parties.push_back(std::make_unique<Sink>());
  Simulator sim(std::move(parties), std::vector<bool>{false, false}, nullptr);
  sim.run(16);
  EXPECT_EQ(sim.stats().party[0].bytes_sent, 30u);
  EXPECT_EQ(sim.ledger().phase_index("tail"), obs::Ledger::kAllPhases);
  const NetworkStats tail = phase_snapshot(sim, "tail");
  ASSERT_EQ(tail.party.size(), 2u);
  EXPECT_EQ(tail.party[0], PartyStats{});
  EXPECT_EQ(tail.party[1], PartyStats{});
}

TEST(PhaseStats, MarkAtZeroCapturesEverything) {
  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<MeteredSender>(4, 7));
  parties.push_back(std::make_unique<Sink>());
  Simulator sim(std::move(parties), std::vector<bool>{false, false}, nullptr);
  sim.ledger().on_phase(0, "all");
  sim.run(16);
  const NetworkStats all = phase_snapshot(sim, "all");
  EXPECT_EQ(all.party, sim.stats().party);
  EXPECT_EQ(all.party[0].bytes_sent, 28u);
  EXPECT_EQ(all.party[1].locality(), 1u);
}

/// Whole-run locality of party `i` after feeding `led` the given traffic of
/// party 0 in round 0: sends to `out`, charged deliveries from `in`.
std::size_t party0_locality(const std::vector<PartyId>& out, const std::vector<PartyId>& in) {
  obs::Ledger led;
  led.on_run_begin(32);
  for (PartyId p : out) led.on_send(0, Message{0, p, Bytes(3, 0)});
  for (PartyId p : in) {
    led.on_delivery(0, Message{p, 0, Bytes(2, 0)}, obs::Delivery::kDelivered);
  }
  led.on_run_end(1);
  return NetworkStats::of(led).party[0].locality();
}

TEST(PartyStats, LocalityUnionsDirections) {
  EXPECT_EQ(party0_locality({3, 4}, {4, 5}), 3u);
  EXPECT_EQ(PartyStats{}.bytes_total(), 0u);
}

TEST(PartyStats, LocalityEdgeCases) {
  EXPECT_EQ(party0_locality({}, {}), 0u);      // no traffic at all
  EXPECT_EQ(party0_locality({}, {1, 2}), 2u);  // receive-only
  EXPECT_EQ(party0_locality({7}, {}), 1u);     // send-only
  EXPECT_EQ(party0_locality({7}, {7}), 1u);    // full overlap counts once
  EXPECT_EQ(party0_locality({7, 7, 7}, {7, 7}), 1u);  // repeats count once
  // Only charged deliveries count: a dropped or delayed message reached
  // nobody, and its sender is not the receiver's peer.
  obs::Ledger led;
  led.on_run_begin(4);
  led.on_delivery(0, Message{1, 0, {}}, obs::Delivery::kDropped);
  led.on_delivery(0, Message{2, 0, {}}, obs::Delivery::kDelayed);
  led.on_delivery(0, Message{3, 0, {}}, obs::Delivery::kOffline);
  led.on_run_end(1);
  EXPECT_EQ(led.locality()[0], 0u);
  // Repeated queries are pure reads: same answer every time.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(led.locality()[0], 0u);
}

TEST(PartyStats, LocalityDisjointSetsSum) {
  std::vector<PartyId> out, in;
  for (PartyId p = 0; p < 10; ++p) out.push_back(p + 1);
  for (PartyId p = 10; p < 25; ++p) in.push_back(p + 1);
  EXPECT_EQ(party0_locality(out, in), 25u);
}

TEST(FaultCounters, DefaultIsAllZero) {
  FaultCounters c;
  EXPECT_EQ(c, FaultCounters{});
  EXPECT_EQ(c.dropped, 0u);
  EXPECT_EQ(c.partitioned, 0u);
  EXPECT_EQ(c.delayed, 0u);
  EXPECT_EQ(c.late_delivered, 0u);
  EXPECT_EQ(c.duplicated, 0u);
  EXPECT_EQ(c.crashed_parties, 0u);
  EXPECT_EQ(c.adversary_rejected, 0u);
}

TEST(NetworkStats, EqualityCoversFaultCounters) {
  NetworkStats a(2), b(2);
  EXPECT_EQ(a, b);
  b.faults.dropped = 1;
  EXPECT_FALSE(a == b);
  b.faults.dropped = 0;
  b.party[1].bytes_sent = 5;
  EXPECT_FALSE(a == b);
}

TEST(FaultlessRunHasZeroFaultCounters, EvenWithPlanInstalled) {
  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<MeteredSender>(3, 10));
  parties.push_back(std::make_unique<Sink>());
  Simulator sim(std::move(parties), std::vector<bool>{false, false}, nullptr);
  FaultPlan plan;  // all-default: no faults configured
  sim.set_fault_plan(plan);
  sim.run(16);
  EXPECT_EQ(sim.stats().faults, FaultCounters{});
  EXPECT_EQ(sim.stats().party[0].bytes_sent, 30u);
}

TEST(NetworkStats, MaxIfFiltersParties) {
  NetworkStats stats(3);
  stats.party[0].bytes_sent = 100;
  stats.party[1].bytes_sent = 500;
  stats.party[2].bytes_sent = 50;
  EXPECT_EQ(stats.max_bytes_total(), 500u);
  std::uint64_t even_max = 0;
  for (PartyId i = 0; i < stats.party.size(); i += 2) {
    even_max = std::max(even_max, stats.party[i].bytes_total());
  }
  EXPECT_EQ(even_max, 100u);
}

// --- Brute-force oracle ----------------------------------------------------

/// Test-only reference books: a std::set of peers and a tally per party,
/// for the whole run and per phase, plus a network-wide tally per round,
/// kept the obvious way from the raw sink events (phase = the last mark at
/// or before the event's round).
class OracleSink final : public obs::TraceSink {
 public:
  struct Books {
    std::vector<obs::PartyTally> tally;
    std::vector<std::set<PartyId>> peers;
  };

  OracleSink(std::vector<std::size_t> phase_starts, bool accumulate)
      : starts_(std::move(phase_starts)), accumulate_(accumulate) {}

  void on_run_begin(std::size_t n) override {
    if (!accumulate_ || whole.tally.size() != n) whole = fresh(n);
    phases.assign(starts_.size(), fresh(n));
    per_round.clear();
  }
  void on_send(std::size_t round, const Message& m) override {
    for (Books* b : {&whole, &phases[phase_of(round)]}) {
      b->tally[m.from].bytes_sent += m.payload.size();
      b->tally[m.from].msgs_sent += 1;
      b->peers[m.from].insert(m.to);
    }
    row(round).bytes_sent += m.payload.size();
    row(round).msgs_sent += 1;
  }
  void on_delivery(std::size_t round, const Message& m, obs::Delivery d) override {
    if (d != obs::Delivery::kDelivered && d != obs::Delivery::kDuplicated &&
        d != obs::Delivery::kLate) {
      return;
    }
    for (Books* b : {&whole, &phases[phase_of(round)]}) {
      b->tally[m.to].bytes_recv += m.payload.size();
      b->tally[m.to].msgs_recv += 1;
      b->peers[m.to].insert(m.from);
    }
    row(round).bytes_recv += m.payload.size();
    row(round).msgs_recv += 1;
  }

  Books whole;
  std::vector<Books> phases;
  std::vector<obs::PartyTally> per_round;  // this run's, index = round

 private:
  static Books fresh(std::size_t n) {
    return Books{std::vector<obs::PartyTally>(n), std::vector<std::set<PartyId>>(n)};
  }
  obs::PartyTally& row(std::size_t round) {
    if (per_round.size() <= round) per_round.resize(round + 1);
    return per_round[round];
  }
  std::size_t phase_of(std::size_t round) const {
    std::size_t p = 0;
    while (p + 1 < starts_.size() && starts_[p + 1] <= round) ++p;
    return p;
  }

  std::vector<std::size_t> starts_;
  bool accumulate_;
};

/// Each round, party i sends to three peers that shift every three rounds by
/// `salt` (one of them twice), and to itself (loopback, which the network
/// never sees).
class Chatter final : public Party {
 public:
  Chatter(PartyId me, std::size_t n, std::size_t rounds, std::size_t salt)
      : me_(me), n_(n), rounds_(rounds), salt_(salt) {}

  SendList on_round(std::size_t round, const std::vector<Message>&) override {
    if (round >= rounds_) {
      done_ = true;
      return {};
    }
    SendList out;
    for (std::size_t k = 0; k < 3; ++k) {
      const PartyId to = (me_ + 1 + ((round / 3) * salt_ + k) % (n_ - 1)) % n_;
      out.send(to, Bytes(1 + (me_ * 7 + round * 3 + k) % 17, 0x11), MsgKind::kUnknown);
    }
    out.send(out.to(0)[0], out.body(0), MsgKind::kUnknown);  // the first again, shared
    out.send(me_, Bytes(5, 0x22), MsgKind::kUnknown);
    return out;
  }
  bool done() const override { return done_; }

 private:
  PartyId me_;
  std::size_t n_, rounds_, salt_;
  bool done_ = false;
};

/// Adaptively corrupts one party at round 3, then every corrupt slot talks
/// to a round-dependent honest party; one ill-addressed message per round is
/// rejected by the network and must not be charged.
class SeizingAdversary final : public Adversary {
 public:
  SeizingAdversary(std::size_t n, PartyId victim, std::vector<bool> corrupt)
      : n_(n), victim_(victim), corrupt_(std::move(corrupt)) {}

  std::vector<PartyId> corruption_requests(std::size_t round) override {
    return round == 3 ? std::vector<PartyId>{victim_} : std::vector<PartyId>{};
  }
  void on_corrupted(std::size_t, PartyId p, Party*) override { corrupt_[p] = true; }

  SendList on_round(std::size_t round, const std::vector<Message>&,
                    const std::vector<SendList>&) override {
    SendList out;
    for (PartyId c = 0; c < n_; ++c) {
      if (corrupt_[c]) {
        const auto to = static_cast<PartyId>((c + 2 + round) % n_);
        out.send(c, to, Bytes(9, 0x33), MsgKind::kUnknown);
      }
    }
    out.send(0, 1, Bytes(4, 0x44), MsgKind::kUnknown);  // spoofed honest sender
    return out;
  }

 private:
  std::size_t n_;
  PartyId victim_;
  std::vector<bool> corrupt_;
};

constexpr std::size_t kOracleN = 16;
const std::vector<std::size_t> kOracleStarts = {0, 3, 6};

/// A scripted network under every fault class: drops, delays, duplicates,
/// a partition, a churned-offline receiver and one adaptive corruption.
Simulator make_chaos_sim(std::size_t salt) {
  std::vector<bool> corrupt(kOracleN, false);
  corrupt[kOracleN - 1] = true;
  std::vector<std::unique_ptr<Party>> parties(kOracleN);
  for (PartyId i = 0; i + 1 < kOracleN; ++i) {
    parties[i] = std::make_unique<Chatter>(i, kOracleN, 9, salt);
  }
  Simulator sim(std::move(parties), corrupt,
                std::make_unique<SeizingAdversary>(kOracleN, 5, corrupt));
  FaultPlan plan;
  plan.seed = 11 + salt;
  plan.drop_prob = 0.1;
  plan.delay_prob = 0.25;
  plan.max_delay = 2;
  plan.duplicate_prob = 0.15;
  plan.partitions.push_back(PartitionWindow{2, 4, {0, 1, 2}});
  plan.churn.push_back(ChurnWindow{3, 4, 6});
  sim.set_fault_plan(plan);
  sim.set_corruption_budget(1);
  return sim;
}

void expect_matches_oracle(const obs::Ledger& led, const OracleSink& oracle) {
  const std::vector<std::size_t> whole = led.locality();
  ASSERT_EQ(whole.size(), kOracleN);
  ASSERT_EQ(led.phase_count(), kOracleStarts.size());
  for (PartyId i = 0; i < kOracleN; ++i) {
    EXPECT_EQ(whole[i], oracle.whole.peers[i].size()) << "party " << i;
    EXPECT_EQ(led.total(i), oracle.whole.tally[i]) << "party " << i;
  }
  for (std::size_t p = 0; p < kOracleStarts.size(); ++p) {
    const std::vector<std::size_t> loc = led.locality(p, p + 1);
    for (PartyId i = 0; i < kOracleN; ++i) {
      EXPECT_EQ(loc[i], oracle.phases[p].peers[i].size()) << "phase " << p << " party " << i;
      EXPECT_EQ(led.phase_total(p, i), oracle.phases[p].tally[i])
          << "phase " << p << " party " << i;
    }
  }
  // Each round's network-wide row, late receives in their arrival round.
  ASSERT_FALSE(oracle.per_round.empty());
  for (std::size_t r = 0; r <= std::max(oracle.per_round.size(), led.rounds_run()); ++r) {
    const obs::PartyTally want =
        r < oracle.per_round.size() ? oracle.per_round[r] : obs::PartyTally{};
    EXPECT_EQ(led.round_total(r), want) << "round " << r;
  }
  // A phase range is the union of its phases.
  const std::vector<std::size_t> tail = led.locality(1, 3);
  for (PartyId i = 0; i < kOracleN; ++i) {
    std::set<PartyId> u = oracle.phases[1].peers[i];
    u.insert(oracle.phases[2].peers[i].begin(), oracle.phases[2].peers[i].end());
    EXPECT_EQ(tail[i], u.size()) << "party " << i;
  }
}

TEST(LedgerOracle, ChaosRunMatchesBruteForceBooks) {
  Simulator sim = make_chaos_sim(1);
  OracleSink oracle(kOracleStarts, false);
  sim.set_trace_sink(&oracle);
  sim.ledger().on_phase(0, "a");
  sim.ledger().on_phase(3, "b");
  sim.ledger().on_phase(6, "c");
  sim.run(32);

  // The run exercised every path the books distinguish.
  const FaultCounters& f = sim.stats().faults;
  EXPECT_GT(f.dropped, 0u);
  EXPECT_GT(f.partitioned, 0u);
  EXPECT_GT(f.delayed, 0u);
  EXPECT_GT(f.late_delivered, 0u);
  EXPECT_GT(f.duplicated, 0u);
  EXPECT_GT(f.churn_dropped, 0u);
  EXPECT_EQ(f.adaptive_corruptions, 1u);
  EXPECT_GT(f.adversary_rejected, 0u);

  expect_matches_oracle(sim.ledger(), oracle);
  // stats() is the same books as a snapshot.
  for (PartyId i = 0; i < kOracleN; ++i) {
    EXPECT_EQ(sim.stats().party[i],
              (PartyStats{oracle.whole.tally[i], oracle.whole.peers[i].size()}))
        << "party " << i;
  }
  EXPECT_GT(sim.stats().max_locality(), 3u);
}

TEST(LedgerOracle, AccumulateModeCarriesPeersAcrossRuns) {
  obs::Ledger led;
  led.set_accumulate(true);
  OracleSink oracle(kOracleStarts, true);
  for (std::size_t salt : {1u, 0u}) {
    Simulator sim = make_chaos_sim(salt);
    sim.set_ledger(&led);
    sim.set_trace_sink(&oracle);
    led.on_phase(0, "a");
    led.on_phase(3, "b");
    led.on_phase(6, "c");
    sim.run(32);
    expect_matches_oracle(led, oracle);
  }
  // The second run's peers are a strict subset of both runs' for someone.
  const std::vector<std::size_t> both = led.locality();
  std::size_t gained = 0;
  for (PartyId i = 0; i < kOracleN; ++i) {
    std::set<PartyId> second;
    for (const auto& ph : oracle.phases) second.insert(ph.peers[i].begin(), ph.peers[i].end());
    gained += both[i] - second.size();
  }
  EXPECT_GT(gained, 0u);
  EXPECT_EQ(NetworkStats::of(led).party[0].locality(), oracle.whole.peers[0].size());
}

TEST(LedgerPhases, DelayedReceiveChargedToArrivalPhase) {
  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<MeteredSender>(3, 10));  // rounds 0..2
  parties.push_back(std::make_unique<Sink>());
  Simulator sim(std::move(parties), std::vector<bool>{false, false}, nullptr);
  FaultPlan plan;
  plan.delay_prob = 1.0;  // every message arrives exactly one round late
  plan.max_delay = 1;
  sim.set_fault_plan(plan);
  sim.ledger().on_phase(0, "early");
  sim.ledger().on_phase(3, "late");
  sim.run(16);
  const obs::Ledger& led = sim.ledger();
  const std::size_t early = led.phase_index("early"), late = led.phase_index("late");
  // Sends are charged to their send round's phase...
  EXPECT_EQ(led.phase_total(early, 0).bytes_sent, 30u);
  EXPECT_EQ(led.phase_total(late, 0).bytes_sent, 0u);
  // ...receives to the round they arrive in: a round-r send arrives in
  // round r + 2, so only the round-0 send lands before the mark.
  EXPECT_EQ(led.phase_total(early, 1).bytes_recv, 10u);
  EXPECT_EQ(led.phase_total(late, 1).bytes_recv, 20u);
  EXPECT_EQ(led.total(1).bytes_recv, 30u);
  EXPECT_EQ(led.locality(late, late + 1)[1], 1u);
}

}  // namespace
}  // namespace srds
