// Sharded round loop (DESIGN.md §7): honest parties step on a worker pool,
// everything else stays on the coordinating thread in sequential order, so
// every worker count must reproduce the one-worker run bit for bit. The
// invariants, for workers ∈ {1, 2, 4} forced through set_workers (the pool
// engages at any n once the count is explicit):
//   * Ledger JSON, NetworkStats, a hash over every trace event (payload
//     bytes included) and the run's outputs are equal — for π_ba/snark,
//     KS'11 sampling, BGT'13 multisig and naive under drops, delays,
//     duplicates, churn and an eclipse campaign with adaptive corruption,
//     plus scalable MPC, one service stream, and multi-body send lists whose
//     shared bodies an adversary echoes on and replays from the rushing view;
//   * the adversary's per-sender send lists, flattened body by body, are the
//     network's delivery order;
//   * a party that throws on a worker surfaces on the caller's thread, the
//     lowest party id's exception first, and leaves no stale slot behind;
//   * the automatic mode keeps rounds of trivial steps inline and hands
//     heavy ones to the pool;
//   * allocations per run do not depend on the worker count.
// ctest label: chaos (the TSan CI job runs it with 4 workers forced, on
// whatever core count the runner has).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "ba/runner.hpp"
#include "mpc/scalable_mpc.hpp"
#include "net/simulator.hpp"
#include "obs/alloc_hooks.hpp"
#include "obs/ledger.hpp"
#include "svc/service.hpp"
#include "svc/transport.hpp"

namespace srds {
namespace {

constexpr std::size_t kWorkerCounts[] = {1, 2, 4};

/// FNV-1a over every event the simulator emits, payload bytes included: two
/// runs hash equal only if they sent the same bytes in the same order with
/// the same outcomes.
class HashSink final : public obs::TraceSink {
 public:
  void on_round_begin(std::size_t round) override { mix(1, round); }
  void on_send(std::size_t round, const Message& m) override {
    mix(2, round);
    msg(m);
  }
  void on_delivery(std::size_t round, const Message& m, obs::Delivery outcome) override {
    mix(3, round);
    mix(static_cast<std::uint64_t>(outcome));
    msg(m);
  }
  void on_corrupt(std::size_t round, PartyId party) override { mix(4, round, party); }
  void on_round_end(std::size_t round) override { mix(5, round); }
  void on_run_end(std::size_t rounds) override { mix(6, rounds); }

  std::uint64_t hash() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  void mix(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0) {
    for (std::uint64_t v : {a, b, c}) {
      for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void msg(const Message& m) {
    mix(m.from, m.to, static_cast<std::uint64_t>(m.kind));
    mix(m.payload.size());
    for (std::uint8_t b : m.payload) byte(b);
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Everything a run is judged by, in one comparable value.
struct Fingerprint {
  std::string ledger_json;
  NetworkStats stats{0};
  std::uint64_t trace = 0;
  std::size_t rounds = 0, honest = 0, decided = 0, correct = 0, adaptive = 0;
  bool agreement = false;
  std::optional<bool> value;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint ba_fingerprint(BaRunConfig cfg, std::size_t workers) {
  obs::Ledger ledger;
  HashSink sink;
  cfg.ledger = &ledger;
  cfg.trace = &sink;
  cfg.workers = workers;
  const BaRunResult r = run_ba(cfg);
  Fingerprint f;
  f.ledger_json = ledger.to_json(true).dump();
  f.stats = r.stats;
  f.trace = sink.hash();
  f.rounds = r.rounds;
  f.honest = r.honest;
  f.decided = r.decided;
  f.correct = r.correct;
  f.adaptive = r.adaptively_corrupted;
  f.agreement = r.agreement;
  f.value = r.value;
  return f;
}

/// Drops, delays, duplicates and churn, plus an eclipse campaign with an
/// adaptive corruption budget — every coordinator-side path at once.
BaRunConfig chaos_config(BoostProtocol protocol) {
  BaRunConfig cfg;
  cfg.n = 64;
  cfg.beta = 0.05;
  cfg.seed = 23;
  cfg.protocol = protocol;
  FaultPlan plan;
  plan.seed = 31;
  plan.drop_prob = 0.03;
  plan.delay_prob = 0.1;
  plan.max_delay = 2;
  plan.duplicate_prob = 0.1;
  plan.churn.push_back(ChurnWindow{5, 2, 6});
  plan.churn.push_back(ChurnWindow{40, 8, 12});
  cfg.faults = plan;
  cfg.campaign = CampaignKind::kEclipse;
  cfg.corruption_rate = 0.05;
  return cfg;
}

class ShardedBa : public ::testing::TestWithParam<BoostProtocol> {};

TEST_P(ShardedBa, EveryWorkerCountIsBitIdenticalUnderChaos) {
  const BaRunConfig cfg = chaos_config(GetParam());
  const Fingerprint one = ba_fingerprint(cfg, 1);
  ASSERT_FALSE(one.ledger_json.empty());
  EXPECT_GT(one.stats.faults.dropped + one.stats.faults.delayed, 0u);
  EXPECT_GT(one.stats.faults.duplicated, 0u);
  EXPECT_GT(one.stats.faults.churn_dropped, 0u);
  for (std::size_t w : kWorkerCounts) {
    const Fingerprint f = ba_fingerprint(cfg, w);
    EXPECT_EQ(f.ledger_json, one.ledger_json) << w << " workers";
    EXPECT_EQ(f.stats, one.stats) << w << " workers";
    EXPECT_EQ(f.trace, one.trace) << w << " workers";
    EXPECT_TRUE(f == one) << w << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, ShardedBa,
                         ::testing::Values(BoostProtocol::kPiBaSnark,
                                           BoostProtocol::kSampling,
                                           BoostProtocol::kMultisig,
                                           BoostProtocol::kNaive),
                         [](const ::testing::TestParamInfo<BoostProtocol>& info) {
                           std::string s = protocol_name(info.param);
                           for (char& c : s) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return s;
                         });

TEST(ShardedRoundLoop, FaultFreePiBaIsBitIdentical) {
  BaRunConfig cfg;
  cfg.n = 128;
  cfg.beta = 0.1;
  cfg.seed = 5;
  const Fingerprint one = ba_fingerprint(cfg, 1);
  EXPECT_TRUE(one.agreement);
  EXPECT_EQ(one.decided, one.honest);
  for (std::size_t w : kWorkerCounts) EXPECT_TRUE(ba_fingerprint(cfg, w) == one) << w;
}

TEST(ShardedRoundLoop, ScalableMpcIsBitIdentical) {
  // MPC parties share one FheOracle: ciphertext handles must not depend on
  // the order parties encrypt in, or payload bytes (and the hash) would.
  auto run = [](std::size_t workers) {
    MpcRunConfig cfg;
    cfg.n = 96;
    cfg.beta = 0.1;
    cfg.seed = 10;
    cfg.workers = workers;
    HashSink sink;
    cfg.trace = &sink;
    const MpcRunResult r = run_scalable_sum_mpc(cfg);
    EXPECT_TRUE(r.agreement);
    EXPECT_EQ(r.output, std::optional<std::uint64_t>(r.expected_sum));
    return std::make_tuple(sink.hash(), r.stats, r.rounds, r.decided, r.output);
  };
  const auto one = run(1);
  for (std::size_t w : kWorkerCounts) EXPECT_TRUE(run(w) == one) << w << " workers";
}

TEST(ShardedRoundLoop, ServiceStreamIsBitIdentical) {
  // One client streaming requests over the loopback transport into a
  // daemon whose simulator backend runs on `workers` threads.
  auto run = [](std::size_t workers) {
    obs::Ledger ledger;
    svc::ServiceConfig cfg;
    cfg.n = 64;
    cfg.beta = 0.1;
    cfg.seed = 7;
    cfg.session_window = 4;
    cfg.max_inflight = 4;
    cfg.ledger = &ledger;
    cfg.workers = workers;
    svc::BaServiceDaemon daemon(std::move(cfg));
    svc::LoopbackTransport transport;
    daemon.add_listener(transport.listener());
    svc::ServiceClient client(transport.connect());
    client.open();
    std::vector<std::pair<std::uint64_t, bool>> decisions;
    std::size_t submitted = 0, rounds = 0;
    while (decisions.size() < 6 && rounds < 20000) {
      client.retry();
      while (submitted < 6 && client.can_submit()) {
        client.submit(submitted % 2 == 0);
        ++submitted;
      }
      daemon.poll();
      if (daemon.step()) ++rounds;
      client.poll();
      for (const auto& d : client.take_decisions()) {
        decisions.emplace_back(d.seq, d.decision.value);
        EXPECT_TRUE(d.decision.agreement);
      }
    }
    client.close();
    daemon.shutdown();
    EXPECT_EQ(decisions.size(), 6u);
    return std::make_tuple(ledger.to_json(true).dump(), daemon.stats().rounds, decisions);
  };
  const auto one = run(1);
  for (std::size_t w : kWorkerCounts) EXPECT_TRUE(run(w) == one) << w << " workers";
}

// --- Outboxes, exceptions, allocations --------------------------------------

/// Sends a few payload-tagged messages to pseudo-random peers each round.
class Chatter final : public Party {
 public:
  Chatter(PartyId me, std::size_t n) : me_(me), n_(n) {}
  SendList on_round(std::size_t round, const std::vector<Message>& inbox) override {
    SendList out;
    const std::size_t k = 1 + (me_ * 7 + round + inbox.size()) % 4;
    for (std::size_t j = 0; j < k; ++j) {
      const PartyId to = (me_ * 31 + round * 17 + j * 5) % n_;
      out.send(to,
               Bytes{static_cast<std::uint8_t>(me_), static_cast<std::uint8_t>(round),
                     static_cast<std::uint8_t>(j)},
               MsgKind::kUnknown);
    }
    return out;
  }
  bool done() const override { return false; }

 private:
  PartyId me_;
  std::size_t n_;
};

struct Sent {
  std::size_t round;
  PartyId from, to;
  Payload payload;
  bool operator==(const Sent&) const = default;
};

/// Records the rushing view, flattened in sender order, body by body and
/// each body's recipients in order, skipping loopback (which never reaches
/// the network).
class FlatteningAdversary final : public Adversary {
 public:
  explicit FlatteningAdversary(std::vector<Sent>* flat) : flat_(flat) {}
  std::vector<Message> on_round(std::size_t round, const std::vector<Message>&,
                                const std::vector<SendList>& honest_sends) override {
    for (PartyId i = 0; i < honest_sends.size(); ++i) {
      const SendList& sends = honest_sends[i];
      for (std::size_t k = 0; k < sends.size(); ++k) {
        for (PartyId to : sends.to(k)) {
          if (to != i) flat_->push_back(Sent{round, i, to, sends.body(k)});
        }
      }
    }
    return {};
  }

 private:
  std::vector<Sent>* flat_;
};

class SendRecorder final : public obs::TraceSink {
 public:
  void on_send(std::size_t round, const Message& m) override {
    sent.push_back(Sent{round, m.from, m.to, m.payload});
  }
  std::vector<Sent> sent;
};

/// Multicasts one shared body to a few pseudo-random peers each round, the
/// first of them twice, then sends a second body to one more peer.
class Multicaster final : public Party {
 public:
  Multicaster(PartyId me, std::size_t n) : me_(me), n_(n) {}
  SendList on_round(std::size_t round, const std::vector<Message>& inbox) override {
    SendList out;
    std::vector<PartyId> to;
    for (std::size_t j = 0; j < 2 + (me_ + round) % 5; ++j) {
      to.push_back(static_cast<PartyId>((me_ * 13 + round * 7 + j * 3 + 1) % n_));
    }
    to.push_back(to.front());
    Bytes body(24 + inbox.size(), static_cast<std::uint8_t>(me_));
    body[0] = static_cast<std::uint8_t>(round);
    out.send_all(to, std::move(body), MsgKind::kUnknown);
    out.send(static_cast<PartyId>((me_ + round + 1) % n_), Bytes(8, 0x77), MsgKind::kBoostFlood);
    return out;
  }
  bool done() const override { return false; }

 private:
  PartyId me_;
  std::size_t n_;
};

/// Echoes every message its corrupt parties receive on to the next party,
/// and replays each honest sender's last body from the rushing view, sharing
/// the bodies: the copies are made on the coordinator, the originals on a
/// worker, and either may be released first.
class EchoAdversary final : public Adversary {
 public:
  EchoAdversary(std::size_t n, PartyId replayer) : n_(n), replayer_(replayer) {}
  std::vector<Message> on_round(std::size_t, const std::vector<Message>& corrupt_inbox,
                                const std::vector<SendList>& honest_sends) override {
    std::vector<Message> out;
    for (const Message& m : corrupt_inbox) {
      const auto next = static_cast<PartyId>((m.to + 1) % n_);
      out.push_back(make_msg(m.to, next, m.payload, MsgKind::kUnknown));
    }
    for (PartyId i = 0; i < honest_sends.size(); ++i) {
      const SendList& sends = honest_sends[i];
      if (sends.size() == 0) continue;
      const std::size_t last = sends.size() - 1;
      out.push_back(make_msg(replayer_, sends.to(last)[0], sends.body(last), sends.kind(last)));
    }
    return out;
  }

 private:
  std::size_t n_;
  PartyId replayer_;
};

TEST(ShardedRoundLoop, SharedBodiesAreBitIdenticalUnderChaos) {
  static constexpr std::size_t kN = 32;
  auto run = [](std::size_t workers) {
    std::vector<std::unique_ptr<Party>> parties(kN);
    std::vector<bool> corrupt(kN, false);
    corrupt[5] = corrupt[20] = true;
    for (PartyId i = 0; i < kN; ++i) {
      if (!corrupt[i]) parties[i] = std::make_unique<Multicaster>(i, kN);
    }
    obs::Ledger ledger;
    HashSink sink;
    Simulator sim(std::move(parties), corrupt, std::make_unique<EchoAdversary>(kN, 20));
    FaultPlan plan;
    plan.seed = 17;
    plan.drop_prob = 0.05;
    plan.delay_prob = 0.2;
    plan.max_delay = 3;
    plan.duplicate_prob = 0.2;
    sim.set_fault_plan(plan);
    sim.set_ledger(&ledger);
    sim.set_trace_sink(&sink);
    sim.set_workers(workers);
    sim.run(12);
    EXPECT_GT(sim.stats().faults.duplicated, 0u);
    EXPECT_GT(sim.stats().faults.late_delivered, 0u);
    return std::make_tuple(ledger.to_json(true).dump(), sim.stats(), sink.hash());
  };
  const auto one = run(1);
  for (std::size_t w : kWorkerCounts) EXPECT_TRUE(run(w) == one) << w << " workers";
}

TEST(ShardedRoundLoop, FlattenedOutboxesAreTheDeliveryOrder) {
  constexpr std::size_t kN = 24;
  std::vector<std::vector<Sent>> views;
  for (std::size_t w : kWorkerCounts) {
    std::vector<std::unique_ptr<Party>> parties(kN);
    std::vector<bool> corrupt(kN, false);
    corrupt[3] = corrupt[11] = true;
    for (PartyId i = 0; i < kN; ++i) {
      if (!corrupt[i]) parties[i] = std::make_unique<Chatter>(i, kN);
    }
    std::vector<Sent> flat;
    SendRecorder rec;
    Simulator sim(std::move(parties), corrupt, std::make_unique<FlatteningAdversary>(&flat));
    sim.set_workers(w);
    sim.set_trace_sink(&rec);
    sim.run(6);
    // The old flat honest_out vector was exactly this concatenation, and
    // the network sends in its order (the adversary adds nothing here).
    ASSERT_FALSE(flat.empty());
    EXPECT_TRUE(flat == rec.sent) << w << " workers";
    views.push_back(std::move(flat));
  }
  for (const auto& v : views) EXPECT_TRUE(v == views.front());
}

/// Throws from on_round the first time it steps `round`; otherwise silent.
class Thrower final : public Party {
 public:
  Thrower(PartyId me, std::size_t round) : me_(me), round_(round) {}
  SendList on_round(std::size_t round, const std::vector<Message>&) override {
    if (round == round_ && !thrown_) {
      thrown_ = true;
      throw std::runtime_error("party " + std::to_string(me_));
    }
    return {};
  }
  bool done() const override { return false; }

 private:
  PartyId me_;
  std::size_t round_;
  bool thrown_ = false;
};

TEST(ShardedRoundLoop, LowestPartyIdExceptionSurfacesOnTheCaller) {
  constexpr std::size_t kN = 80;
  for (std::size_t w : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<std::unique_ptr<Party>> parties(kN);
    for (PartyId i = 0; i < kN; ++i) {
      // Parties 70, 9 and 33 throw in round 2; the lowest id must win
      // whichever worker reached its party first.
      const bool throws = i == 9 || i == 33 || i == 70;
      parties[i] = std::make_unique<Thrower>(i, throws ? 2 : ~std::size_t{0});
    }
    Simulator sim(std::move(parties), std::vector<bool>(kN, false), nullptr);
    sim.set_workers(w);
    try {
      sim.run(10);
      ADD_FAILURE() << "no exception with " << w << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "party 9") << w << " workers";
    }
    EXPECT_EQ(sim.current_round(), 2u) << "the failing round must not complete";
    // Every party stepped in the failed round and threw at most once, so a
    // retry of round 2 succeeds — unless parties 33 and 70's errors were
    // left in their slots.
    EXPECT_NO_THROW(sim.tick()) << w << " workers";
    EXPECT_EQ(sim.current_round(), 3u) << w << " workers";
  }
}

TEST(ShardedRoundLoop, AutomaticModePoolsOnlyWhatPays) {
  // Costs per party and message as measured on the shapes they stand for.
  const std::size_t lanes = 4;
  // A round of trivial steps sending many tiny messages (micro_obs
  // BM_SimRoundAccounting: n = 1024, 32 empty messages each, ~0.45 us a
  // party): the hand-off outweighs the steps, so it stays inline.
  EXPECT_FALSE(Simulator::pool_pays(45'000, 100, 3'200, 924, lanes));
  // A π_ba/snark boost round (n = 1024, 820 honest, ~300 us a party and
  // ~84 messages): the first party already decides for the pool.
  EXPECT_TRUE(Simulator::pool_pays(300'000, 1, 84, 819, lanes));
  // KS'11's polling round, the workloads' cheapest per message (~180 ns a
  // message, ~115 messages a party) still pays.
  EXPECT_TRUE(Simulator::pool_pays(205'000, 10, 1'150, 810, lanes));
  // Rounds of idle parties never run as long as one dispatch costs.
  EXPECT_FALSE(Simulator::pool_pays(39'000, 400, 0, 420, lanes));
  // One slow first party (a cold cache) is no projection.
  EXPECT_FALSE(Simulator::pool_pays(20'000, 1, 32, 1'023, lanes));
  // One lane, or nothing left to share, never pools.
  EXPECT_FALSE(Simulator::pool_pays(300'000, 1, 84, 819, 1));
  EXPECT_FALSE(Simulator::pool_pays(300'000, 1, 84, 1, lanes));
}

TEST(ShardedRoundLoop, AutomaticModeTakesHalfTheCpus) {
  EXPECT_EQ(Simulator::auto_workers(0), 1u);
  EXPECT_EQ(Simulator::auto_workers(1), 1u);  // taskset -c 0: sequential
  EXPECT_EQ(Simulator::auto_workers(3), 1u);
  EXPECT_EQ(Simulator::auto_workers(4), 2u);
  EXPECT_EQ(Simulator::auto_workers(6), 3u);
  EXPECT_EQ(Simulator::auto_workers(8), Simulator::kMaxAutoWorkers);
  EXPECT_EQ(Simulator::auto_workers(64), Simulator::kMaxAutoWorkers);
}

TEST(WorkerPool, BackToBackJobsRunEveryIndexExactlyOnce) {
  // Jobs of every size follow one another with no pause, so pool threads
  // wake late, find a spent or replaced cursor, and must neither run a
  // finished job's index again nor claim a later job's index for an
  // earlier job.
  WorkerPool pool;
  constexpr std::size_t kMax = 300;
  std::vector<std::atomic<std::uint32_t>> hits(kMax);
  for (std::size_t job = 0; job < 2000; ++job) {
    const std::size_t count = 1 + (job * 37) % kMax;
    const std::uint32_t tag = static_cast<std::uint32_t>(job) + 1;
    auto body = [&hits, tag](std::size_t i) { hits[i].fetch_add(tag, std::memory_order_relaxed); };
    pool.for_each(count, 4, body);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].exchange(0, std::memory_order_relaxed), tag)
          << "job " << job << " index " << i;
    }
    for (std::size_t i = count; i < kMax; ++i) {
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 0u) << "job " << job << " index " << i;
    }
  }
}

/// Spins for `ns` of wall clock each round and records whether it stepped
/// on the thread that constructed it.
class Spinner final : public Party {
 public:
  explicit Spinner(std::chrono::nanoseconds ns) : ns_(ns), home_(std::this_thread::get_id()) {}
  SendList on_round(std::size_t, const std::vector<Message>&) override {
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 < ns_) {
    }
    away_ = away_ || std::this_thread::get_id() != home_;
    return {};
  }
  bool done() const override { return false; }
  bool away() const { return away_; }

 private:
  std::chrono::nanoseconds ns_;
  std::thread::id home_;
  bool away_ = false;
};

TEST(ShardedRoundLoop, AutomaticModePoolsHeavyRounds) {
  if (Simulator::auto_workers(affinity_cpus()) < 2) {
    GTEST_SKIP() << "fewer than four CPUs in the affinity mask: automatic mode is inline";
  }
  constexpr std::size_t kN = 64;
  std::vector<std::unique_ptr<Party>> parties;
  std::vector<const Spinner*> spinners;
  for (PartyId i = 0; i < kN; ++i) {
    auto p = std::make_unique<Spinner>(std::chrono::microseconds(200));
    spinners.push_back(p.get());
    parties.push_back(std::move(p));
  }
  Simulator sim(std::move(parties), std::vector<bool>(kN, false), nullptr);
  sim.run(3);
  std::size_t away = 0;
  for (const Spinner* s : spinners) away += s->away();
  EXPECT_GT(away, 0u) << "12.8 ms of steps per round never reached the pool";
}

TEST(ShardedRoundLoop, AllocationsPerRunDoNotDependOnWorkers) {
  // This binary links the counting hooks. std::thread would allocate one
  // state object per pool thread; the pool starts its threads without
  // operator new, so a run costs the same allocations at any worker count.
  ASSERT_TRUE(obs::alloc_hooks_active());
  BaRunConfig cfg;
  cfg.n = 64;
  cfg.beta = 0.1;
  cfg.seed = 3;
  auto allocs = [&](std::size_t workers) {
    cfg.workers = workers;
    const std::uint64_t a0 = obs::alloc_ops();
    const BaRunResult r = run_ba(cfg);
    const std::uint64_t a1 = obs::alloc_ops();
    EXPECT_TRUE(r.agreement);
    return a1 - a0;
  };
  allocs(1);  // warm any process-wide one-time state
  const std::uint64_t one = allocs(1);
  EXPECT_GT(one, 0u);
  for (std::size_t w : {std::size_t{4}, std::size_t{2}, std::size_t{0}, std::size_t{1}}) {
    EXPECT_EQ(allocs(w), one) << w << " workers";
  }
}

}  // namespace
}  // namespace srds
