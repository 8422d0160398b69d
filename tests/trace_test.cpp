// Tests for the round/phase tracer: a scripted-simulator unit test, the
// π_BA smoke test (tracer accounting must agree with the Ledger the
// simulator counts into), Chrome trace export, and the determinism guard (two runs
// with identical seed and fault plan produce byte-identical Reporter JSON
// apart from the timestamp).
#include <gtest/gtest.h>

#include "ba/runner.hpp"
#include "json_parser.hpp"
#include "net/simulator.hpp"
#include "obs/prof.hpp"
#include "obs/report.hpp"
#include "obs/tracer.hpp"

namespace srds {
namespace {

using testjson::PJson;

/// Sends one tagged message to party 1 per round for `rounds` rounds.
class KindSender final : public Party {
 public:
  KindSender(PartyId me, std::size_t rounds, std::size_t bytes, MsgKind kind)
      : me_(me), rounds_(rounds), bytes_(bytes), kind_(kind) {}

  std::vector<Message> on_round(std::size_t round, const std::vector<Message>&) override {
    if (round >= rounds_) {
      done_ = true;
      return {};
    }
    return {Message{me_, 1, Bytes(bytes_, 0xCD), kind_}};
  }
  bool done() const override { return done_; }

 private:
  PartyId me_;
  std::size_t rounds_, bytes_;
  MsgKind kind_;
  bool done_ = false;
};

class SilentSink final : public Party {
 public:
  std::vector<Message> on_round(std::size_t, const std::vector<Message>&) override {
    return {};
  }
  bool done() const override { return true; }
};

TEST(RoundTracer, ScriptedRunMatchesNetworkStats) {
  obs::RoundTracer tracer;
  tracer.on_phase(0, "warmup");
  tracer.on_phase(3, "main");

  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<KindSender>(0, 5, 40, MsgKind::kBoostFlood));
  parties.push_back(std::make_unique<SilentSink>());
  Simulator sim(std::move(parties), std::vector<bool>{false, false}, nullptr);
  sim.set_trace_sink(&tracer);
  std::size_t rounds = sim.run(32);

  EXPECT_EQ(rounds, 6u);  // five sending rounds, then one to notice done()
  EXPECT_EQ(tracer.rounds_run(), rounds);
  EXPECT_EQ(tracer.n_parties(), 2u);

  std::uint64_t traced_bytes = 0, traced_msgs = 0;
  for (const auto& r : tracer.rounds()) {
    traced_bytes += r.bytes_sent;
    traced_msgs += r.msgs_sent;
  }
  EXPECT_EQ(traced_bytes, 5u * 40u);
  EXPECT_EQ(traced_msgs, 5u);
  // Cross-check against the ledger the simulator counted into.
  EXPECT_EQ(traced_bytes, sim.ledger().total(0).bytes_sent);
  EXPECT_EQ(traced_msgs, sim.ledger().total(0).msgs_sent);

  auto phases = tracer.phase_totals();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "warmup");
  EXPECT_EQ(phases[0].rounds, 3u);
  EXPECT_EQ(phases[0].bytes_sent, 3u * 40u);
  EXPECT_EQ(phases[1].name, "main");
  EXPECT_EQ(phases[1].start, 3u);
  EXPECT_EQ(phases[1].bytes_sent, 2u * 40u);
  // Every byte is tagged with the sender's MsgKind.
  const auto flood = static_cast<std::size_t>(MsgKind::kBoostFlood);
  EXPECT_EQ(phases[0].kinds[flood].bytes, phases[0].bytes_sent);
  std::size_t phase_rounds = 0;
  for (const auto& p : phases) phase_rounds += p.rounds;
  EXPECT_EQ(phase_rounds, tracer.rounds_run());
}

TEST(RoundTracer, PiBaSmokeAgreesWithNetworkStats) {
  obs::RoundTracer tracer;
  BaRunConfig cfg;
  cfg.n = 64;
  cfg.beta = 0.2;
  cfg.seed = 7;
  cfg.protocol = BoostProtocol::kPiBaSnark;
  cfg.trace = &tracer;
  auto r = run_ba(cfg);

  ASSERT_TRUE(r.agreement);
  // The tracer observed exactly the rounds the network ran...
  EXPECT_EQ(tracer.rounds_run(), r.stats.rounds);
  EXPECT_EQ(tracer.rounds_run(), r.rounds);
  // ...and exactly the bytes/messages the Ledger counted (r.stats is its
  // snapshot).
  std::uint64_t traced_bytes = 0, traced_msgs = 0;
  for (const auto& rec : tracer.rounds()) {
    traced_bytes += rec.bytes_sent;
    traced_msgs += rec.msgs_sent;
  }
  std::uint64_t stats_bytes = 0, stats_msgs = 0;
  for (const auto& p : r.stats.party) {
    stats_bytes += p.bytes_sent;
    stats_msgs += p.msgs_sent;
  }
  EXPECT_EQ(traced_bytes, stats_bytes);
  EXPECT_EQ(traced_msgs, stats_msgs);

  // The harness registered the protocol's phase schedule; the boost phase
  // must carry traffic and the phases partition the run.
  auto phases = tracer.phase_totals();
  ASSERT_GE(phases.size(), 4u);
  EXPECT_EQ(phases[0].name, "f_ba");
  std::size_t covered = 0;
  bool saw_boost = false;
  for (const auto& p : phases) {
    covered += p.rounds;
    if (p.name == "boost") {
      saw_boost = true;
      EXPECT_GT(p.bytes_sent, 0u);
      // π_ba tags its boost traffic: signature shares must show up.
      const auto sign = static_cast<std::size_t>(MsgKind::kBoostSign);
      EXPECT_GT(p.kinds[sign].msgs, 0u);
    }
  }
  EXPECT_TRUE(saw_boost);
  EXPECT_EQ(covered, tracer.rounds_run());
  // Setup work was reported as spans (tree build + SRDS keygen).
  EXPECT_GE(tracer.to_json(false).find("spans")->items().size(), 2u);
}

TEST(Ledger, AgreesWithNetworkStatsAndTracerOnSeededRun) {
  // One seeded fault-free run, counted once by the Ledger and observed
  // independently by the RoundTracer (per-round aggregates). The Ledger's
  // books are pinned to the values the pre-Ledger NetworkStats produced for
  // this run, NetworkStats must be their snapshot, and the tracer must
  // agree round by round and phase by phase (attribution by observed round
  // coincides with attribution by send round only on fault-free runs,
  // which is why this guard pins a run without a fault plan).
  obs::RoundTracer tracer;
  obs::Ledger ledger;
  BaRunConfig cfg;
  cfg.n = 64;
  cfg.beta = 0.2;
  cfg.seed = 7;
  cfg.protocol = BoostProtocol::kPiBaSnark;
  cfg.trace = &tracer;
  cfg.ledger = &ledger;
  auto r = run_ba(cfg);
  ASSERT_TRUE(r.agreement);
  EXPECT_EQ(r.rounds, 47u);

  // Party-level: pinned whole-run and boost-phase figures...
  const obs::PartyStat sent = ledger.stat(obs::LedgerField::kBytesSent);
  EXPECT_EQ(sent.total, 18764031u);
  EXPECT_EQ(ledger.stat(obs::LedgerField::kBytesRecv).total, 18764031u);
  EXPECT_EQ(ledger.stat(obs::LedgerField::kMsgsSent).total, 49705u);
  EXPECT_EQ(r.stats.max_bytes_total(), 1625672u);
  EXPECT_EQ(r.stats.max_locality(), 63u);
  EXPECT_EQ(r.boost_stats.total_bytes(), 1641257u);
  EXPECT_EQ(r.boost_stats.max_bytes_total(), 101949u);
  EXPECT_EQ(r.boost_stats.max_locality(), 63u);
  // ...and NetworkStats is the ledger's snapshot, field for field.
  ASSERT_EQ(ledger.n_parties(), r.stats.party.size());
  const std::vector<std::size_t> locality = ledger.locality();
  for (PartyId i = 0; i < r.stats.party.size(); ++i) {
    ASSERT_EQ(static_cast<const obs::PartyTally&>(r.stats.party[i]), ledger.total(i))
        << "party " << i;
    ASSERT_EQ(r.stats.party[i].locality(), locality[i]) << "party " << i;
  }

  // Round-level: the tracer's per-round sent totals sum to the ledger's.
  std::uint64_t traced_bytes = 0;
  for (const auto& rec : tracer.rounds()) traced_bytes += rec.bytes_sent;
  std::uint64_t ledger_sent = 0;
  for (PartyId i = 0; i < ledger.n_parties(); ++i) {
    ledger_sent += ledger.total(i).bytes_sent;
  }
  EXPECT_EQ(traced_bytes, ledger_sent);

  // Phase-level: both sinks consumed the same on_phase marks; on a
  // fault-free run each phase's sent bytes/messages must match too.
  const auto phases = tracer.phase_totals();
  ASSERT_EQ(phases.size(), ledger.phase_count());
  for (std::size_t p = 0; p < phases.size(); ++p) {
    EXPECT_EQ(phases[p].name, ledger.phase_name(p));
    std::uint64_t phase_bytes = 0, phase_msgs = 0;
    for (PartyId i = 0; i < ledger.n_parties(); ++i) {
      phase_bytes += ledger.phase_total(p, i).bytes_sent;
      phase_msgs += ledger.phase_total(p, i).msgs_sent;
    }
    EXPECT_EQ(phase_bytes, phases[p].bytes_sent) << phases[p].name;
    EXPECT_EQ(phase_msgs, phases[p].msgs_sent) << phases[p].name;
  }

  // The harness audited the run: the registered budgets all evaluated, and
  // the boost-phase stat the bench binaries report comes from the ledger.
  ASSERT_GE(r.budget_evals.size(), 3u);
  const obs::PartyStat boost =
      ledger.stat(obs::LedgerField::kBytesTotal, ledger.phase_index("boost"));
  EXPECT_GT(boost.max, 0u);
  EXPECT_GE(boost.max, boost.p50);
}

TEST(RoundTracer, ChromeTraceIsWellFormedJson) {
  obs::RoundTracer tracer;
  BaRunConfig cfg;
  cfg.n = 64;
  cfg.beta = 0.1;
  cfg.seed = 11;
  cfg.protocol = BoostProtocol::kPiBaSnark;
  cfg.trace = &tracer;
  run_ba(cfg);

  PJson doc = testjson::parse(tracer.chrome_trace().dump());
  const PJson* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->array.size(), 4u);
  std::size_t phase_events = 0, round_events = 0, counter_events = 0;
  for (const PJson& e : events->array) {
    const PJson* ph = e.get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      ASSERT_NE(e.get("ts"), nullptr);
      ASSERT_NE(e.get("dur"), nullptr);
      const PJson* cat = e.get("cat");
      ASSERT_NE(cat, nullptr);
      if (cat->string == "phase") ++phase_events;
      if (cat->string == "round") ++round_events;
    } else if (ph->string == "C") {
      ++counter_events;
    }
  }
  EXPECT_GE(phase_events, 4u);
  EXPECT_EQ(round_events, tracer.rounds_run());
  EXPECT_EQ(counter_events, round_events);
}

TEST(RoundTracer, ChromeTraceCarriesProfTrackOnlyWhenEnabled) {
  obs::prof_set_enabled(false);
  obs::prof_reset();

  auto trace_once = [] {
    obs::RoundTracer tracer;
    BaRunConfig cfg;
    cfg.n = 64;
    cfg.beta = 0.1;
    cfg.seed = 11;
    cfg.protocol = BoostProtocol::kPiBaSnark;
    cfg.trace = &tracer;
    run_ba(cfg);
    return tracer.chrome_trace().dump();
  };

  auto count_prof_events = [](const std::string& json) {
    PJson doc = testjson::parse(json);
    std::size_t prof_events = 0;
    for (const PJson& e : doc.get("traceEvents")->array) {
      const PJson* cat = e.get("cat");
      if (cat && cat->string == "prof") {
        ++prof_events;
        // Prof spans are full X events on their own track with the
        // aggregate stats in args.
        EXPECT_EQ(e.get("ph")->string, "X");
        EXPECT_NE(e.get("ts"), nullptr);
        EXPECT_NE(e.get("dur"), nullptr);
        const PJson* args = e.get("args");
        EXPECT_NE(args, nullptr);
        if (args && args->get("count")) {
          EXPECT_GT(args->get("count")->integer, 0);
        }
      }
    }
    return prof_events;
  };

  EXPECT_EQ(count_prof_events(trace_once()), 0u)
      << "profiling off: the trace must not grow a prof track";

  obs::prof_set_enabled(true);
  const std::size_t with_prof = count_prof_events(trace_once());
  obs::prof_set_enabled(false);
  obs::prof_reset();
  EXPECT_GT(with_prof, 0u)
      << "a profiled pi_ba run must surface instrumented sites in the trace";
}

/// Rebuild the metrics a bench binary would report for one traced run,
/// excluding wall-clock (the only non-deterministic tracer signal).
obs::Json deterministic_metrics(const BaRunResult& r, const obs::RoundTracer& tracer) {
  obs::Json m = obs::Json::object();
  m.set("rounds", r.rounds);
  m.set("max_comm_per_party_bytes", r.boost_stats.max_bytes_total());
  m.set("total_comm_bytes", r.stats.total_bytes());
  m.set("decided_fraction", r.decided_fraction());
  obs::Json phases = obs::Json::object();
  for (const auto& p : tracer.phase_totals()) {
    obs::Json j = obs::Json::object();
    j.set("rounds", p.rounds);
    j.set("msgs_sent", p.msgs_sent);
    j.set("bytes_sent", p.bytes_sent);
    phases.set(p.name, std::move(j));
  }
  m.set("phases", std::move(phases));
  return m;
}

TEST(DeterminismGuard, IdenticalRunsProduceByteIdenticalReports) {
  auto run_once = [] {
    obs::RoundTracer tracer;
    BaRunConfig cfg;
    cfg.n = 64;
    cfg.beta = 0.2;
    cfg.seed = 2026;
    cfg.protocol = BoostProtocol::kPiBaSnark;
    FaultPlan plan;
    plan.seed = 99;
    plan.drop_prob = 0.05;
    plan.delay_prob = 0.1;
    plan.max_delay = 2;
    cfg.faults = plan;
    cfg.trace = &tracer;
    auto r = run_ba(cfg);

    bench::Reporter rep("determinism_guard");
    rep.set_param("n", 64);
    rep.set_param("seed", 2026);
    rep.add_row(64.0, deterministic_metrics(r, tracer));
    return rep.to_json(/*with_timestamp=*/false).dump(2);
  };

  std::string first = run_once();
  std::string second = run_once();
  EXPECT_EQ(first, second) << "identical (seed, fault plan) runs must serialize "
                              "byte-identically apart from the timestamp";

  // The profiling determinism contract (docs/observability.md): timing
  // never enters deterministic documents, so running the same seed with
  // profiling ON must reproduce the same bytes.
  obs::prof_set_enabled(true);
  std::string profiled = run_once();
  obs::prof_set_enabled(false);
  obs::prof_reset();
  EXPECT_EQ(first, profiled)
      << "enabling profiling must not change any deterministic byte";
  // Sanity: the report is parseable and carries the faulted run's data.
  PJson doc = testjson::parse(first);
  EXPECT_EQ(doc.get("bench")->string, "determinism_guard");
  EXPECT_EQ(doc.get("timestamp"), nullptr);
  ASSERT_EQ(doc.get("series")->array.size(), 1u);
}

}  // namespace
}  // namespace srds
