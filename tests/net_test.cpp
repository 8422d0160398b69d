// Tests for the synchronous network simulator and sub-protocol framing.
#include <gtest/gtest.h>

#include <type_traits>

#include "common/serial.hpp"
#include "consensus/dolev_strong.hpp"
#include "net/parallel.hpp"
#include "net/simulator.hpp"
#include "net/subproto.hpp"

namespace srds {
namespace {

/// Test party: floods a fixed peer list with one byte per round for
/// `rounds` rounds, records everything it receives.
class FloodParty final : public Party {
 public:
  FloodParty(std::vector<PartyId> peers, std::size_t rounds)
      : peers_(std::move(peers)), rounds_(rounds) {}

  SendList on_round(std::size_t round, const std::vector<Message>& inbox) override {
    for (const auto& m : inbox) received_.push_back(m);
    if (round >= rounds_) {
      done_ = true;
      return {};
    }
    SendList out;
    out.send_all(peers_, Bytes{static_cast<std::uint8_t>(round)}, MsgKind::kUnknown);
    return out;
  }

  bool done() const override { return done_; }

  const std::vector<Message>& received() const { return received_; }

 private:
  std::vector<PartyId> peers_;
  std::size_t rounds_;
  bool done_ = false;
  std::vector<Message> received_;
};

std::unique_ptr<Simulator> make_flood_sim(std::size_t n, std::size_t rounds) {
  std::vector<std::unique_ptr<Party>> parties;
  std::vector<bool> corrupt(n, false);
  for (PartyId i = 0; i < n; ++i) {
    std::vector<PartyId> peers;
    for (PartyId j = 0; j < n; ++j) {
      if (j != i) peers.push_back(j);
    }
    parties.push_back(std::make_unique<FloodParty>(peers, rounds));
  }
  return std::make_unique<Simulator>(std::move(parties), corrupt, nullptr);
}

TEST(Simulator, DeliversAllToAllNextRound) {
  auto sim = make_flood_sim(4, 1);
  sim->run(10);
  for (PartyId i = 0; i < 4; ++i) {
    auto* p = dynamic_cast<FloodParty*>(sim->party(i));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->received().size(), 3u);  // one from each other party
    for (const auto& m : p->received()) {
      EXPECT_EQ(m.to, i);
      EXPECT_NE(m.from, i);
    }
  }
}

TEST(Simulator, AccountsBytesSymmetrically) {
  auto sim = make_flood_sim(5, 2);
  sim->run(10);
  const auto& st = sim->stats();
  for (PartyId i = 0; i < 5; ++i) {
    EXPECT_EQ(st.party[i].bytes_sent, 2u * 4u);  // 2 rounds x 4 peers x 1 byte
    EXPECT_EQ(st.party[i].bytes_recv, 2u * 4u);
    EXPECT_EQ(st.party[i].msgs_sent, 8u);
    EXPECT_EQ(st.party[i].locality(), 4u);
  }
  EXPECT_EQ(st.total_bytes(), 5u * 8u);
  EXPECT_EQ(st.max_bytes_total(), 16u);
  EXPECT_EQ(st.max_locality(), 4u);
}

TEST(Simulator, StopsWhenAllHonestDone) {
  auto sim = make_flood_sim(3, 2);
  std::size_t rounds = sim->run(100);
  EXPECT_LE(rounds, 4u);
  EXPECT_EQ(sim->stats().rounds, rounds);
}

TEST(Simulator, RespectsMaxRounds) {
  // rounds_ = huge, so parties never finish; simulator must cap.
  auto sim = make_flood_sim(3, 1000000);
  EXPECT_EQ(sim->run(5), 5u);
}

/// Adversary that spoofs: tries to send with an honest `from` field.
class SpoofingAdversary final : public Adversary {
 public:
  SendList on_round(std::size_t round, const std::vector<Message>&,
                    const std::vector<SendList>&) override {
    SendList out;
    if (round > 0) return out;
    out.send(0, 1, to_bytes("spoofed-as-honest"), MsgKind::kUnknown);   // party 0 is honest
    out.send(2, 1, to_bytes("legit-corrupt-msg"), MsgKind::kUnknown);   // party 2 is corrupt
    out.send(2, 99, to_bytes("out-of-range-dest"), MsgKind::kUnknown);  // invalid recipient
    return out;
  }
};

class SinkParty final : public Party {
 public:
  explicit SinkParty(std::size_t rounds) : rounds_(rounds) {}
  SendList on_round(std::size_t round, const std::vector<Message>& inbox) override {
    for (const auto& m : inbox) received_.push_back(m);
    if (round >= rounds_) done_ = true;
    return {};
  }
  bool done() const override { return done_; }
  const std::vector<Message>& received() const { return received_; }

 private:
  std::size_t rounds_;
  bool done_ = false;
  std::vector<Message> received_;
};

TEST(Simulator, ChannelsAreAuthenticated) {
  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<SinkParty>(3));
  parties.push_back(std::make_unique<SinkParty>(3));
  parties.push_back(nullptr);  // corrupt
  std::vector<bool> corrupt{false, false, true};
  Simulator sim(std::move(parties), corrupt, std::make_unique<SpoofingAdversary>());
  sim.run(10);
  auto* p1 = dynamic_cast<SinkParty*>(sim.party(1));
  ASSERT_NE(p1, nullptr);
  // Only the legitimately-addressed corrupt message arrives; the spoof and
  // the out-of-range message are dropped by the network.
  ASSERT_EQ(p1->received().size(), 1u);
  EXPECT_EQ(p1->received()[0].from, 2u);
  EXPECT_EQ(to_string(p1->received()[0].payload), "legit-corrupt-msg");
}

TEST(Simulator, ConstructorValidatesSlots) {
  {
    std::vector<std::unique_ptr<Party>> parties;
    parties.push_back(std::make_unique<SinkParty>(1));
    std::vector<bool> corrupt{true};  // corrupt slot holding honest logic
    EXPECT_THROW(Simulator(std::move(parties), corrupt, nullptr), std::invalid_argument);
  }
  {
    std::vector<std::unique_ptr<Party>> parties;
    parties.push_back(nullptr);
    std::vector<bool> corrupt{false};  // honest slot missing logic
    EXPECT_THROW(Simulator(std::move(parties), corrupt, nullptr), std::invalid_argument);
  }
}

/// Adversary that records what it saw (to verify rushing visibility).
class PeekingAdversary final : public Adversary {
 public:
  explicit PeekingAdversary(std::vector<std::size_t>* honest_msgs_seen)
      : seen_(honest_msgs_seen) {}
  SendList on_round(std::size_t, const std::vector<Message>&,
                    const std::vector<SendList>& honest_sends) override {
    std::size_t msgs = 0;
    for (const SendList& sends : honest_sends) msgs += sends.messages();
    seen_->push_back(msgs);
    return {};
  }

 private:
  std::vector<std::size_t>* seen_;
};

TEST(Simulator, AdversaryIsRushing) {
  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<FloodParty>(std::vector<PartyId>{1}, 1));
  parties.push_back(std::make_unique<SinkParty>(2));
  parties.push_back(nullptr);
  std::vector<bool> corrupt{false, false, true};
  std::vector<std::size_t> seen;
  Simulator sim(std::move(parties), corrupt, std::make_unique<PeekingAdversary>(&seen));
  sim.run(10);
  // Round 0: party 0 sends one message; the adversary saw it the same round.
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen[0], 1u);
}

// --- Fault-injection layer (net/faults.hpp) -------------------------------

/// Sends one uniquely-tagged message to party 1 per round for `rounds`
/// rounds; stays alive until told how many messages to expect back.
class CountingReceiver final : public Party {
 public:
  CountingReceiver(std::size_t expect, std::size_t give_up_round)
      : expect_(expect), give_up_(give_up_round) {}
  SendList on_round(std::size_t round, const std::vector<Message>& inbox) override {
    for (const auto& m : inbox) received_.push_back(m);
    if (received_.size() >= expect_ || round >= give_up_) done_ = true;
    return {};
  }
  bool done() const override { return done_; }
  const std::vector<Message>& received() const { return received_; }

 private:
  std::size_t expect_, give_up_;
  bool done_ = false;
  std::vector<Message> received_;
};

TEST(FaultInjection, DropsAreCountedAndConserved) {
  auto run_once = [] {
    auto sim = make_flood_sim(4, 6);
    FaultPlan plan;
    plan.seed = 42;
    plan.drop_prob = 0.5;
    sim->set_fault_plan(plan);
    sim->run(20);
    return sim->stats();
  };
  NetworkStats a = run_once();
  EXPECT_GT(a.faults.dropped, 0u);
  // Every sent message is either received or dropped — nothing vanishes
  // unaccounted (no delay/duplication in this plan).
  std::size_t sent = 0, recv = 0;
  for (const auto& p : a.party) {
    sent += p.msgs_sent;
    recv += p.msgs_recv;
  }
  EXPECT_EQ(sent, recv + a.faults.dropped);
  // Determinism: the same plan reproduces byte-identical stats.
  NetworkStats b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.faults, b.faults);
}

TEST(FaultInjection, DelayedMessageArrivesLaterExactlyOnce) {
  std::vector<std::unique_ptr<Party>> parties;
  const std::size_t kSends = 5;
  parties.push_back(std::make_unique<FloodParty>(std::vector<PartyId>{1}, kSends));
  parties.push_back(std::make_unique<CountingReceiver>(kSends, 30));
  Simulator sim(std::move(parties), std::vector<bool>{false, false}, nullptr);
  FaultPlan plan;
  plan.seed = 9;
  plan.delay_prob = 1.0;  // defer every message
  plan.max_delay = 2;
  sim.set_fault_plan(plan);
  sim.run(40);
  const auto& st = sim.stats();
  EXPECT_EQ(st.faults.delayed, kSends);
  EXPECT_EQ(st.faults.late_delivered, kSends);
  EXPECT_EQ(st.faults.dropped, 0u);
  auto* rx = dynamic_cast<CountingReceiver*>(sim.party(1));
  ASSERT_NE(rx, nullptr);
  // Each of the k tagged messages arrived exactly once, strictly later than
  // the perfect-delivery round. FloodParty tags payload[0] with the send
  // round, so the multiset of tags must be {0, 1, ..., k-1}.
  ASSERT_EQ(rx->received().size(), kSends);
  std::vector<int> tally(kSends, 0);
  for (const auto& m : rx->received()) {
    ASSERT_LT(m.payload[0], kSends);
    ++tally[m.payload[0]];
  }
  for (std::size_t r = 0; r < kSends; ++r) EXPECT_EQ(tally[r], 1) << "send round " << r;
}

TEST(FaultInjection, DuplicationDeliversExactlyTwoCopies) {
  auto sim = make_flood_sim(3, 4);
  FaultPlan plan;
  plan.seed = 10;
  plan.duplicate_prob = 1.0;
  sim->set_fault_plan(plan);
  sim->run(20);
  const auto& st = sim->stats();
  std::size_t sent = 0, recv = 0;
  for (const auto& p : st.party) {
    sent += p.msgs_sent;
    recv += p.msgs_recv;
  }
  EXPECT_EQ(st.faults.duplicated, sent);
  EXPECT_EQ(recv, 2 * sent);
}

TEST(FaultInjection, CrashStopHaltsPartyMidRun) {
  auto sim = make_flood_sim(3, 6);
  FaultPlan plan;
  plan.crashes.push_back(CrashFault{2, 2});
  sim->set_fault_plan(plan);
  sim->run(20);
  EXPECT_TRUE(sim->is_crashed(2));
  EXPECT_FALSE(sim->is_crashed(0));
  EXPECT_EQ(sim->stats().faults.crashed_parties, 1u);
  // Party 2 sent during rounds 0 and 1 only (2 peers x 1 byte each).
  EXPECT_EQ(sim->stats().party[2].bytes_sent, 4u);
  EXPECT_EQ(sim->stats().party[0].bytes_sent, 12u);  // all 6 rounds
}

TEST(FaultInjection, PartitionCutsExactlyCrossTraffic) {
  auto sim = make_flood_sim(4, 4);
  FaultPlan plan;
  PartitionWindow w;
  w.from_round = 1;
  w.until_round = 3;  // send rounds 1 and 2
  w.group = {0, 1};
  plan.partitions.push_back(w);
  sim->set_fault_plan(plan);
  sim->run(20);
  // Per partitioned send round: 2x2 cross pairs in each direction = 8 msgs.
  EXPECT_EQ(sim->stats().faults.partitioned, 16u);
  EXPECT_EQ(sim->stats().faults.dropped, 0u);
  // Intra-side traffic flowed: party 0 still heard party 1 those rounds.
  auto* p0 = dynamic_cast<FloodParty*>(sim->party(0));
  ASSERT_NE(p0, nullptr);
  // 4 rounds x 3 peers = 12 expected without faults; minus 2 rounds x 2
  // cross-cut senders = 4 lost.
  EXPECT_EQ(p0->received().size(), 8u);
}

/// Adversary that sends one oversized and one in-bounds payload.
class OversizeAdversary final : public Adversary {
 public:
  SendList on_round(std::size_t round, const std::vector<Message>&,
                    const std::vector<SendList>&) override {
    SendList out;
    if (round > 0) return out;
    // One byte over the cap, then one that is fine.
    out.send(2, 0, Bytes(Simulator::kMaxAdversaryPayload + 1, 0xEE), MsgKind::kUnknown);
    out.send(2, 0, Bytes(4, 0xDD), MsgKind::kUnknown);
    return out;
  }
};

TEST(FaultInjection, AdversaryPayloadBoundEnforced) {
  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<SinkParty>(3));
  parties.push_back(std::make_unique<SinkParty>(3));
  parties.push_back(nullptr);  // corrupt
  std::vector<bool> corrupt{false, false, true};
  Simulator sim(std::move(parties), corrupt, std::make_unique<OversizeAdversary>());
  sim.run(10);
  EXPECT_EQ(sim.stats().faults.adversary_rejected, 1u);
  auto* p0 = dynamic_cast<SinkParty*>(sim.party(0));
  ASSERT_NE(p0, nullptr);
  ASSERT_EQ(p0->received().size(), 1u);
  EXPECT_EQ(p0->received()[0].payload.size(), 4u);
}

TEST(FaultInjection, SpoofedAdversaryMessagesAreCounted) {
  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<SinkParty>(3));
  parties.push_back(std::make_unique<SinkParty>(3));
  parties.push_back(nullptr);
  std::vector<bool> corrupt{false, false, true};
  Simulator sim(std::move(parties), corrupt, std::make_unique<SpoofingAdversary>());
  sim.run(10);
  // The spoof (honest from) and the out-of-range destination are rejected.
  EXPECT_EQ(sim.stats().faults.adversary_rejected, 2u);
}

// --- Fault-plan validation (errors reject, warnings surface) ---------------

TEST(FaultPlanValidation, ErrorsRejectThePlanAtInstall) {
  {
    auto sim = make_flood_sim(4, 2);
    FaultPlan plan;
    plan.drop_prob = 1.5;  // not a probability
    EXPECT_THROW(sim->set_fault_plan(plan), std::invalid_argument);
  }
  {
    auto sim = make_flood_sim(4, 2);
    FaultPlan plan;
    PartitionWindow w;
    w.from_round = 0;
    w.until_round = 5;
    w.group = {0, 99};  // 99 out of range for n = 4
    plan.partitions.push_back(w);
    EXPECT_THROW(sim->set_fault_plan(plan), std::invalid_argument);
  }
  {
    auto sim = make_flood_sim(4, 2);
    FaultPlan plan;
    plan.churn.push_back(ChurnWindow{1, 5, 3});  // until_round <= from_round
    EXPECT_THROW(sim->set_fault_plan(plan), std::invalid_argument);
  }
}

TEST(FaultPlanValidation, WarningsAreSurfacedNotSilent) {
  FaultPlan plan;
  plan.delay_prob = 0.5;  // inert without max_delay
  plan.crashes.push_back(CrashFault{2, 1});  // party 2 will be corrupt below
  PartitionWindow a;
  a.from_round = 0;
  a.until_round = 6;
  a.group = {0, 1};
  PartitionWindow b = a;  // same cut, overlapping in time
  b.from_round = 4;
  b.until_round = 9;
  plan.partitions.push_back(a);
  plan.partitions.push_back(b);

  std::vector<bool> corrupt{false, false, true, false};
  auto issues = validate_fault_plan(plan, 4, &corrupt);
  ASSERT_EQ(issues.size(), 3u);
  for (const auto& i : issues) {
    EXPECT_EQ(i.severity, FaultPlanIssue::Severity::kWarning) << i.what;
  }
  EXPECT_NE(issues[0].what.find("delay_prob"), std::string::npos);
  EXPECT_NE(issues[1].what.find("corrupt party 2"), std::string::npos);
  EXPECT_NE(issues[2].what.find("overlap"), std::string::npos);

  // Installing a warnings-only plan succeeds and keeps the findings
  // queryable — the simulator never swallows them.
  std::vector<std::unique_ptr<Party>> parties;
  for (int i = 0; i < 3; ++i) parties.push_back(std::make_unique<SinkParty>(2));
  parties.push_back(nullptr);
  std::vector<bool> mask{false, false, false, true};
  Simulator sim(std::move(parties), mask, std::make_unique<SpoofingAdversary>());
  FaultPlan ok;
  ok.delay_prob = 0.5;  // warning only
  sim.set_fault_plan(ok);
  ASSERT_EQ(sim.plan_issues().size(), 1u);
  EXPECT_EQ(sim.plan_issues()[0].severity, FaultPlanIssue::Severity::kWarning);
}

TEST(FaultInjection, CrashedPartyLeavesPartitionGroups) {
  // Party 0 sits inside a partitioned group and crashes mid-window. From the
  // crash round on, traffic to/from it must not be attributed to the cut:
  // the dead mailbox is ordinary (non-partition) delivery.
  FaultPlan plan;
  PartitionWindow w;
  w.from_round = 0;
  w.until_round = 10;
  w.group = {0, 1};
  plan.partitions.push_back(w);
  plan.crashes.push_back(CrashFault{0, 3});
  FaultInjector inj(plan, 4);
  Message cross{0, 2, Bytes{1}};
  EXPECT_FALSE(inj.on_message(2, cross).deliver);  // pre-crash: cut applies
  EXPECT_TRUE(inj.on_message(2, cross).partitioned);
  EXPECT_TRUE(inj.on_message(3, cross).deliver);  // post-crash: no cut
  EXPECT_FALSE(inj.on_message(3, cross).partitioned);
  Message inbound{2, 0, Bytes{1}};
  EXPECT_FALSE(inj.on_message(3, inbound).partitioned);
  // The surviving pair keeps the cut for the rest of the window.
  Message live{1, 2, Bytes{1}};
  EXPECT_TRUE(inj.on_message(3, live).partitioned);
}

// --- Adaptive corruption (budgeted mid-run party seizure) ------------------

/// Adversary that asks to corrupt a fixed request list at round 0 and
/// records every party actually handed over.
class GrabbyAdversary final : public Adversary {
 public:
  explicit GrabbyAdversary(std::vector<PartyId> wants) : wants_(std::move(wants)) {}
  SendList on_round(std::size_t, const std::vector<Message>&,
                    const std::vector<SendList>&) override {
    return {};
  }
  std::vector<PartyId> corruption_requests(std::size_t round) override {
    requests_solicited_ = true;
    return round == 0 ? wants_ : std::vector<PartyId>{};
  }
  void on_corrupted(std::size_t, PartyId p, Party* seized) override {
    EXPECT_NE(seized, nullptr);
    granted_.push_back(p);
  }
  std::vector<PartyId> granted_;
  bool requests_solicited_ = false;

 private:
  std::vector<PartyId> wants_;
};

TEST(AdaptiveCorruption, BudgetGrantsInOrderAndCountsDenials) {
  std::vector<std::unique_ptr<Party>> parties;
  for (int i = 0; i < 3; ++i) parties.push_back(std::make_unique<SinkParty>(3));
  parties.push_back(nullptr);  // slot 3 statically corrupt
  std::vector<bool> corrupt{false, false, false, true};
  // Requests: honest, out-of-range, already-corrupt, honest, honest.
  auto adv = std::make_unique<GrabbyAdversary>(std::vector<PartyId>{0, 99, 3, 1, 2});
  auto* advp = adv.get();
  Simulator sim(std::move(parties), corrupt, std::move(adv));
  sim.set_corruption_budget(2);
  EXPECT_EQ(sim.corruption_budget(), 2u);
  sim.run(10);
  // Grants follow the adversary's priority order until the budget runs out.
  ASSERT_EQ(advp->granted_, (std::vector<PartyId>{0, 1}));
  EXPECT_TRUE(sim.is_corrupt(0));
  EXPECT_TRUE(sim.is_corrupt(1));
  EXPECT_FALSE(sim.is_corrupt(2));
  EXPECT_EQ(sim.stats().faults.adaptive_corruptions, 2u);
  // Denied: 99 (out of range), 3 (already corrupt), 2 (budget exhausted).
  EXPECT_EQ(sim.stats().faults.corruptions_denied, 3u);
}

TEST(AdaptiveCorruption, ZeroBudgetNeverSolicitsRequests) {
  std::vector<std::unique_ptr<Party>> parties;
  for (int i = 0; i < 2; ++i) parties.push_back(std::make_unique<SinkParty>(2));
  parties.push_back(nullptr);
  std::vector<bool> corrupt{false, false, true};
  auto adv = std::make_unique<GrabbyAdversary>(std::vector<PartyId>{0, 1});
  auto* advp = adv.get();
  Simulator sim(std::move(parties), corrupt, std::move(adv));
  sim.run(10);  // default budget = 0: static-corruption model unchanged
  EXPECT_FALSE(advp->requests_solicited_);
  EXPECT_EQ(sim.stats().faults.adaptive_corruptions, 0u);
  EXPECT_FALSE(sim.is_corrupt(0));
}

// --- Churn (leave / rejoin windows) ----------------------------------------

TEST(Churn, OfflineWindowDropsDeliveriesAndFreezesParty) {
  // Party 0 floods party 1 with one round-tagged byte per round; party 1 is
  // churned offline during rounds [2, 4). Sends from rounds 1 and 2 would be
  // delivered in rounds 2 and 3 — both lost to churn; everything else
  // arrives, and party 1 resumes with its state intact.
  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<FloodParty>(std::vector<PartyId>{1}, 6));
  parties.push_back(std::make_unique<CountingReceiver>(4, 30));
  Simulator sim(std::move(parties), std::vector<bool>{false, false}, nullptr);
  FaultPlan plan;
  plan.churn.push_back(ChurnWindow{1, 2, 4});
  sim.set_fault_plan(plan);
  sim.run(40);
  EXPECT_EQ(sim.stats().faults.churn_dropped, 2u);
  EXPECT_EQ(sim.stats().faults.dropped, 0u);
  auto* rx = dynamic_cast<CountingReceiver*>(sim.party(1));
  ASSERT_NE(rx, nullptr);
  std::vector<std::uint8_t> tags;
  for (const auto& m : rx->received()) tags.push_back(m.payload[0]);
  EXPECT_EQ(tags, (std::vector<std::uint8_t>{0, 3, 4, 5}));
}

TEST(SubProto, TagRoundTrip) {
  Bytes body = to_bytes("payload");
  Bytes tagged = tag_body(7, 123456789ULL, body);
  std::uint32_t phase = 0;
  std::uint64_t inst = 0;
  BytesView out;
  ASSERT_TRUE(untag_body(tagged, phase, inst, out));
  EXPECT_EQ(phase, 7u);
  EXPECT_EQ(inst, 123456789ULL);
  EXPECT_EQ(Bytes(out.begin(), out.end()), body);
  EXPECT_EQ(out.data(), tagged.data() + kTagSize);  // a view, not a copy
  // The owned overload writes the same tag in front of the body, in place.
  EXPECT_EQ(tag_body(7, 123456789ULL, Bytes(body)), tagged);
}

TEST(SubProto, OwnedTagReusesCapacity) {
  const Bytes text = to_bytes("payload");
  Bytes body;
  body.reserve(text.size() + kFrameHeadroom);
  body.assign(text.begin(), text.end());
  const std::uint8_t* storage = body.data();
  Bytes tagged = tag_body(1, 2, std::move(body));
  EXPECT_EQ(tagged.data(), storage);  // headroom took the tag: no reallocation
  EXPECT_EQ(tagged.size(), kTagSize + 7);
}

TEST(SharedPayload, CopiesShareOneBufferAndOutliveTheOriginal) {
  Payload body(to_bytes("body"));
  Payload copy = body;
  EXPECT_EQ(copy.data(), body.data());
  EXPECT_EQ(copy.size(), 4u);
  body = Payload();  // the copy keeps the buffer alive
  EXPECT_EQ(to_string(copy), "body");
  EXPECT_NE(Payload(to_bytes("body")).data(), copy.data());  // equal bytes, another block
  EXPECT_EQ(Payload(to_bytes("body")), copy);
}

TEST(SharedPayload, SuffixSharesTheBlockAndOutlivesTheOriginal) {
  Payload frame(to_bytes("headbody"));
  Payload tail = frame.suffix(4);
  EXPECT_EQ(tail.data(), frame.data() + 4);  // the same block, no copy
  EXPECT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.data(), frame.suffix(4).data());
  EXPECT_EQ(tail.suffix(2).data(), frame.data() + 6);
  EXPECT_EQ(frame.suffix(100).size(), 0u);
  frame = Payload();  // the suffix keeps the block alive
  EXPECT_EQ(to_string(tail), "body");
}

TEST(SharedPayload, DolevStrongRelayToCommitteeSharesOneBody) {
  constexpr std::size_t kC = 7;
  auto registry = std::make_shared<SimSigRegistry>(kC, 5);
  std::vector<PartyId> members(kC);
  for (PartyId i = 0; i < kC; ++i) members[i] = i;
  DolevStrongProto sender(registry, members, 0, 2, to_bytes("ds"), 0, to_bytes("value"));
  Outbox sends = sender.step(0, {});
  ASSERT_EQ(sends.size(), 1u);  // one body ...
  EXPECT_EQ(sends.messages(), kC - 1);  // ... for the c - 1 other members
  const std::uint8_t* storage = sends.body(0).data();
  SendList out;
  send_tagged(out, std::move(sends), 1, 0, MsgKind::kCommitteeBa);
  ASSERT_EQ(out.size(), 1u);  // still one body, tagged in place ...
  EXPECT_EQ(out.body(0).data(), storage);
  EXPECT_EQ(out.kind(0), MsgKind::kCommitteeBa);
  ASSERT_EQ(out.to(0).size(), kC - 1);  // ... with a 4-byte id per recipient
  for (std::size_t k = 0; k < kC - 1; ++k) EXPECT_EQ(out.to(0)[k], k + 1);
}

TEST(SharedPayload, SendAllSkipsTheExceptedRecipient) {
  Outbox sends;
  sends.send(3, to_bytes("one"));
  sends.send_all(std::vector<PartyId>{1, 2}, to_bytes("skipped"), 1);  // only 2 is left
  sends.send_all(std::vector<PartyId>{4}, to_bytes("none"), 4);        // nobody is left
  ASSERT_EQ(sends.size(), 2u);
  SendList out;
  send_tagged(out, std::move(sends), 0, 0, MsgKind::kUnknown);
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out.messages(), 2u);
  EXPECT_EQ(out.to(0)[0], 3u);
  EXPECT_EQ(out.to(1)[0], 2u);
  EXPECT_EQ(to_string(out.body(1)).substr(kTagSize), "skipped");
}

TEST(SharedPayload, MessageIsThirtyTwoBytes) {
  // A send list holds one 4-byte id per recipient; a Message, built only as
  // it lands in an inbox, is two ids, a payload handle (block pointer and
  // offset) and the kind.
  EXPECT_EQ(sizeof(PartyId), 4u);
  EXPECT_EQ(sizeof(Payload), 16u);
  EXPECT_EQ(sizeof(Message), 32u);
}

/// Sends one shared body to its peers each round for `rounds` rounds; byte 0
/// of the body is the send round.
class MulticastParty final : public Party {
 public:
  MulticastParty(std::vector<PartyId> peers, std::size_t rounds, std::size_t body_size)
      : peers_(std::move(peers)), rounds_(rounds), body_size_(body_size) {}

  SendList on_round(std::size_t round, const std::vector<Message>&) override {
    SendList out;
    if (round >= rounds_) {
      done_ = true;
      return out;
    }
    Bytes body(body_size_, 0x5a);
    body[0] = static_cast<std::uint8_t>(round);
    out.send_all(peers_, std::move(body), MsgKind::kUnknown);
    return out;
  }
  bool done() const override { return done_; }

 private:
  std::vector<PartyId> peers_;
  std::size_t rounds_, body_size_;
  bool done_ = false;
};

/// Party 0 multicasts to parties 1..n-1, which record what they receive.
std::unique_ptr<Simulator> make_multicast_sim(std::size_t n, std::size_t rounds,
                                              std::size_t body_size) {
  std::vector<std::unique_ptr<Party>> parties;
  std::vector<PartyId> peers;
  for (PartyId p = 1; p < n; ++p) peers.push_back(p);
  parties.push_back(std::make_unique<MulticastParty>(peers, rounds, body_size));
  for (PartyId p = 1; p < n; ++p) parties.push_back(std::make_unique<CountingReceiver>(rounds, 30));
  return std::make_unique<Simulator>(std::move(parties), std::vector<bool>(n, false), nullptr);
}

TEST(SharedPayload, LedgerChargesEveryRecipientTheFullSize) {
  constexpr std::size_t kN = 5, kRounds = 3, kSize = 40;
  auto sim = make_multicast_sim(kN, kRounds, kSize);
  sim->run(40);
  const auto& st = sim->stats();
  EXPECT_EQ(st.party[0].msgs_sent, (kN - 1) * kRounds);
  EXPECT_EQ(st.party[0].bytes_sent, (kN - 1) * kRounds * kSize);
  const auto* first = dynamic_cast<CountingReceiver*>(sim->party(1));
  ASSERT_NE(first, nullptr);
  for (PartyId p = 1; p < kN; ++p) {
    EXPECT_EQ(st.party[p].bytes_recv, kRounds * kSize);
    auto* rx = dynamic_cast<CountingReceiver*>(sim->party(p));
    ASSERT_NE(rx, nullptr);
    ASSERT_EQ(rx->received().size(), kRounds);
    // Every recipient holds the same buffer as recipient 1.
    for (std::size_t r = 0; r < kRounds; ++r) {
      EXPECT_EQ(rx->received()[r].payload.data(), first->received()[r].payload.data());
    }
  }
}

TEST(SharedPayload, DuplicateSharesTheBody) {
  auto sim = make_multicast_sim(3, 2, 16);
  FaultPlan plan;
  plan.seed = 4;
  plan.duplicate_prob = 1.0;
  sim->set_fault_plan(plan);
  sim->run(40);
  EXPECT_EQ(sim->stats().faults.duplicated, 4u);
  for (PartyId p = 1; p < 3; ++p) {
    auto* rx = dynamic_cast<CountingReceiver*>(sim->party(p));
    ASSERT_NE(rx, nullptr);
    ASSERT_EQ(rx->received().size(), 4u);  // two rounds, two copies each
    for (std::size_t k = 0; k < 4; k += 2) {
      EXPECT_EQ(rx->received()[k].payload.data(), rx->received()[k + 1].payload.data());
    }
  }
}

TEST(SharedPayload, DelayedPayloadIsIntactWhenItArrives) {
  // Every message is deferred by up to 3 rounds, long after the sender's own
  // copy and the round's inboxes were released: the shared body must still
  // hold the bytes it was sent with (under ASan, any use after free fails).
  constexpr std::size_t kN = 4, kRounds = 5, kSize = 64;
  auto sim = make_multicast_sim(kN, kRounds, kSize);
  FaultPlan plan;
  plan.seed = 11;
  plan.delay_prob = 1.0;
  plan.max_delay = 3;
  sim->set_fault_plan(plan);
  sim->run(40);
  EXPECT_EQ(sim->stats().faults.late_delivered, (kN - 1) * kRounds);
  for (PartyId p = 1; p < kN; ++p) {
    auto* rx = dynamic_cast<CountingReceiver*>(sim->party(p));
    ASSERT_NE(rx, nullptr);
    ASSERT_EQ(rx->received().size(), kRounds);
    std::vector<int> tally(kRounds, 0);
    for (const auto& m : rx->received()) {
      ASSERT_EQ(m.payload.size(), kSize);
      ASSERT_LT(m.payload[0], kRounds);
      ++tally[m.payload[0]];
      for (std::size_t i = 1; i < kSize; ++i) ASSERT_EQ(m.payload[i], 0x5a);
    }
    for (std::size_t r = 0; r < kRounds; ++r) EXPECT_EQ(tally[r], 1) << "send round " << r;
  }
}

TEST(SharedPayload, OneBodyToKRecipientsLandsAsKPlusOneMessagesOnOneBlock) {
  // Party 0 sends one body to parties 1..k in round 0. Fault decisions are a
  // pure function of (plan seed, round, link, seq), so the search below
  // finds the first seed under which exactly one copy is duplicated and
  // another delayed. Every copy that lands, the duplicate and the late one
  // included, must be a message on the sender's one block (under ASan, a
  // copy outliving its block fails).
  constexpr std::size_t kK = 6, kSize = 48;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    auto sim = make_multicast_sim(kK + 1, 1, kSize);
    FaultPlan plan;
    plan.seed = seed;
    plan.duplicate_prob = 0.2;
    plan.delay_prob = 0.2;
    plan.max_delay = 2;
    sim->set_fault_plan(plan);
    sim->run(40);
    const FaultCounters& f = sim->stats().faults;
    if (f.duplicated != 1 || f.delayed != 1) continue;
    EXPECT_EQ(f.late_delivered, 1u);
    std::vector<const Message*> landed;
    for (PartyId p = 1; p <= kK; ++p) {
      auto* rx = dynamic_cast<CountingReceiver*>(sim->party(p));
      ASSERT_NE(rx, nullptr);
      for (const Message& m : rx->received()) landed.push_back(&m);
    }
    ASSERT_EQ(landed.size(), kK + 1) << "seed " << seed;
    for (const Message* m : landed) {
      EXPECT_EQ(m->from, 0u);
      EXPECT_EQ(m->payload.size(), kSize);
      EXPECT_EQ(m->payload.data(), landed.front()->payload.data()) << "seed " << seed;
    }
    EXPECT_EQ(sim->stats().party[0].msgs_sent, kK);  // the duplicate is the network's
    return;
  }
  FAIL() << "no plan seed in 1..500 duplicates exactly one copy and delays another";
}

/// Sends to party 1 every round, except that its first round-1 body also
/// names party 7, outside a two-party network.
class MisaddressingParty final : public Party {
 public:
  SendList on_round(std::size_t round, const std::vector<Message>&) override {
    SendList out;
    if (round == 1 && !misaddressed_) {
      misaddressed_ = true;
      out.send_all(std::vector<PartyId>{1, 7}, Bytes{0xBB}, MsgKind::kUnknown);
    } else {
      out.send(1, Bytes{static_cast<std::uint8_t>(round)}, MsgKind::kUnknown);
    }
    return out;
  }
  bool done() const override { return false; }

 private:
  bool misaddressed_ = false;
};

TEST(Simulator, IllAddressedHonestSendThrowsAndTheRetryRunsClean) {
  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<MisaddressingParty>());
  parties.push_back(std::make_unique<SinkParty>(100));
  Simulator sim(std::move(parties), std::vector<bool>{false, false}, nullptr);
  ASSERT_TRUE(sim.tick());
  EXPECT_THROW(sim.tick(), std::logic_error);
  EXPECT_EQ(sim.current_round(), 1u) << "the failed round must not complete";
  ASSERT_TRUE(sim.tick());  // round 1 again: party 0 now sends to party 1 only
  ASSERT_TRUE(sim.tick());
  sim.end_run();
  // Round 0's and the retried round 1's messages arrived; the discarded
  // round sent nothing, to party 1 or anyone else.
  auto* sink = dynamic_cast<SinkParty*>(sim.party(1));
  ASSERT_NE(sink, nullptr);
  ASSERT_EQ(sink->received().size(), 2u);
  EXPECT_EQ(sink->received()[0].payload, Payload(Bytes{0}));
  EXPECT_EQ(sink->received()[1].payload, Payload(Bytes{1}));
  EXPECT_EQ(sim.stats().party[0].msgs_sent, 3u);  // rounds 0, 1 (retried) and 2
}

/// Returns one scripted send list in round 0 and stays silent after.
class ScriptedAdversary final : public Adversary {
 public:
  explicit ScriptedAdversary(SendList script) : script_(std::move(script)) {}
  SendList on_round(std::size_t round, const std::vector<Message>&,
                    const std::vector<SendList>&) override {
    return round == 0 ? std::move(script_) : SendList();
  }

 private:
  SendList script_;
};

/// `honest` sink parties (slots 0..honest-1), then `corrupt` corrupted slots.
Simulator scripted_sim(std::size_t honest, std::size_t corrupt, SendList script) {
  std::vector<std::unique_ptr<Party>> parties;
  for (std::size_t i = 0; i < honest; ++i) parties.push_back(std::make_unique<SinkParty>(3));
  parties.resize(honest + corrupt);
  std::vector<bool> mask(honest + corrupt, false);
  std::fill(mask.begin() + static_cast<std::ptrdiff_t>(honest), mask.end(), true);
  return Simulator(std::move(parties), std::move(mask),
                   std::make_unique<ScriptedAdversary>(std::move(script)));
}

const SinkParty& sink(Simulator& sim, PartyId p) {
  return dynamic_cast<const SinkParty&>(*sim.party(p));
}

TEST(AdversarySendList, InterleavedSendersLandInEmissionOrder) {
  // Corrupted parties 1 and 2 take turns writing to party 0. Delivering the
  // adversary's traffic grouped by sender would reorder this inbox.
  SendList script;
  script.send(2, 0, to_bytes("a"), MsgKind::kUnknown);
  script.send(1, 0, to_bytes("b"), MsgKind::kUnknown);
  script.send(2, 0, to_bytes("c"), MsgKind::kUnknown);
  script.send(1, 0, to_bytes("d"), MsgKind::kBoostFlood);
  Simulator sim = scripted_sim(1, 2, std::move(script));
  sim.run(10);
  const std::vector<Message>& got = sink(sim, 0).received();
  ASSERT_EQ(got.size(), 4u);
  const std::vector<std::pair<PartyId, std::string>> want = {
      {2, "a"}, {1, "b"}, {2, "c"}, {1, "d"}};
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].from, want[j].first) << j;
    EXPECT_EQ(to_string(got[j].payload), want[j].second) << j;
  }
  EXPECT_EQ(got[3].kind, MsgKind::kBoostFlood);
  EXPECT_EQ(sim.stats().faults.adversary_rejected, 0u);
}

TEST(AdversarySendList, OneBodyToKRecipientsLandsAsKMessagesOnOneBlock) {
  constexpr std::size_t kK = 5;
  std::vector<PartyId> to(kK);
  for (PartyId p = 0; p < kK; ++p) to[p] = p;
  SendList script;
  script.send_all(kK, to, Bytes(40, 0x5A), MsgKind::kUnknown);
  ASSERT_EQ(script.size(), 1u);
  Simulator sim = scripted_sim(kK, 1, std::move(script));
  sim.run(10);
  const std::uint8_t* block = sink(sim, 0).received().at(0).payload.data();
  for (PartyId p = 0; p < kK; ++p) {
    const std::vector<Message>& got = sink(sim, p).received();
    ASSERT_EQ(got.size(), 1u) << "party " << p;
    EXPECT_EQ(got[0].from, kK);
    EXPECT_EQ(got[0].payload.size(), 40u);
    EXPECT_EQ(got[0].payload.data(), block) << "party " << p;
  }
  EXPECT_EQ(sim.stats().party[kK].msgs_sent, kK);
}

TEST(AdversarySendList, IllFormedPairsAreRejectedOnePerRecipient) {
  // Honest sinks 0 and 1, corrupted party 2, n = 3.
  SendList script;
  // Valid recipients around one outside [0, n): only that one is rejected.
  script.send_all(2, std::vector<PartyId>{0, 99, 1}, to_bytes("ok"), MsgKind::kUnknown);
  // A spoofed honest sender: every recipient is rejected, loopback included.
  script.send_all(0, std::vector<PartyId>{1, 0}, to_bytes("spoof"), MsgKind::kUnknown);
  // Over the payload cap: every recipient is rejected, loopback included.
  script.send_all(2, std::vector<PartyId>{2, 1},
                  Bytes(Simulator::kMaxAdversaryPayload + 1, 0xEE), MsgKind::kUnknown);
  // A body that names no sender speaks for no corrupted party.
  script.send(1, to_bytes("anon"), MsgKind::kUnknown);
  // Loopback to a corrupted party is free and never counted.
  script.send(2, 2, to_bytes("self"), MsgKind::kUnknown);
  Simulator sim = scripted_sim(2, 1, std::move(script));
  sim.run(10);
  EXPECT_EQ(sim.stats().faults.adversary_rejected, 1u + 2u + 2u + 1u);
  for (PartyId p : {PartyId{0}, PartyId{1}}) {
    const std::vector<Message>& got = sink(sim, p).received();
    ASSERT_EQ(got.size(), 1u) << "party " << p;
    EXPECT_EQ(got[0].from, 2u);
    EXPECT_EQ(to_string(got[0].payload), "ok");
  }
  EXPECT_EQ(sim.stats().party[2].msgs_sent, 2u);
  EXPECT_EQ(sim.stats().party[2].bytes_sent, 4u);
}

// A TaggedMsg borrows its body, so one built from a temporary buffer would
// dangle: that overload is deleted.
static_assert(!std::is_constructible_v<TaggedMsg, PartyId, Bytes&&>);
static_assert(std::is_constructible_v<TaggedMsg, PartyId, const Bytes&>);

TEST(SubProto, UntagRejectsShortPayload) {
  std::uint32_t phase;
  std::uint64_t inst;
  BytesView body;
  EXPECT_FALSE(untag_body(Bytes{1, 2, 3}, phase, inst, body));
}

TEST(SubProto, EmptyBodyAllowed) {
  Bytes tagged = tag_body(1, 2, Bytes{});
  std::uint32_t phase;
  std::uint64_t inst;
  BytesView body;
  ASSERT_TRUE(untag_body(tagged, phase, inst, body));
  EXPECT_TRUE(body.empty());
}

/// Child double for ParallelProto: runs `rounds` subrounds, emits one tagged
/// byte pair to party 0 each subround, records every body it is handed.
class ProbeProto final : public SubProtocol {
 public:
  ProbeProto(std::size_t rounds, std::uint8_t tag) : rounds_(rounds), tag_(tag) {}

  std::size_t rounds() const override { return rounds_; }

  Outbox step(std::size_t subround, const std::vector<TaggedMsg>& inbox) override {
    for (const auto& m : inbox) got_.emplace_back(m.body.begin(), m.body.end());
    Outbox out;
    out.send(0, Bytes{tag_, static_cast<std::uint8_t>(subround)});
    return out;
  }

  const std::vector<Bytes>& got() const { return got_; }

 private:
  std::size_t rounds_;
  std::uint8_t tag_;
  std::vector<Bytes> got_;
};

TEST(ParallelProtoFraming, ChildrenMayDifferInRoundsAndGarbageIsCounted) {
  std::vector<std::unique_ptr<SubProtocol>> children;
  children.push_back(std::make_unique<ProbeProto>(1, 0xA));
  children.push_back(std::make_unique<ProbeProto>(3, 0xB));
  ParallelProto par(std::move(children));
  EXPECT_EQ(par.rounds(), 3u);  // the composite runs as long as its longest child

  auto out0 = par.step(0, {});
  EXPECT_EQ(out0.size(), 2u);  // both children still running

  // Subround 1: child 0's schedule has ended. A *well-formed* frame addressed
  // to it is dropped silently (late traffic for a shorter child is
  // legitimate); a truncated index header or an out-of-range index is an
  // attack signal and must be counted as malformed.
  // The frames outlive the step that borrows them.
  const Bytes ended{0, 0, 0, 0, 0x7};        // ended child — silent drop, NOT malformed
  const Bytes out_of_range{9, 0, 0, 0, 0x7};  // out-of-range child index — malformed
  const Bytes truncated{1, 2};               // truncated index header — malformed
  std::vector<TaggedMsg> inbox;
  inbox.emplace_back(1, ended);
  inbox.emplace_back(1, out_of_range);
  inbox.emplace_back(1, truncated);

  auto out1 = par.step(1, inbox);
  ASSERT_EQ(out1.size(), 1u);  // only the 3-round child emits now
  Reader r(out1.body(0));
  EXPECT_EQ(r.u32(), 1u);  // and its frames carry its child index
  EXPECT_EQ(par.malformed_frames(), 2u);

  // The ended child never saw the late frame; the live child saw nothing.
  EXPECT_TRUE(static_cast<const ProbeProto*>(par.child(0))->got().empty());
  EXPECT_TRUE(static_cast<const ProbeProto*>(par.child(1))->got().empty());
}

}  // namespace
}  // namespace srds
