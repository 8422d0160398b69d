// Tests for the trace plane: the Ledger's per-round rows on a scripted run
// and on seeded π_BA runs (pinned books, and the Chrome trace's phase args
// equal to the Ledger's), the per-protocol BENCH phase rows pinned at n=64,
// Chrome trace export, and the determinism guard (two runs with identical
// seed and fault plan produce byte-identical Reporter JSON apart from the
// timestamp).
#include <gtest/gtest.h>

#include "ba/runner.hpp"
#include "bench_util.hpp"
#include "json_parser.hpp"
#include "net/simulator.hpp"
#include "obs/prof.hpp"
#include "obs/tracer.hpp"

namespace srds {
namespace {

using testjson::PJson;

/// Sends one tagged message to party 1 per round for `rounds` rounds.
class KindSender final : public Party {
 public:
  KindSender(std::size_t rounds, std::size_t bytes, MsgKind kind)
      : rounds_(rounds), bytes_(bytes), kind_(kind) {}

  SendList on_round(std::size_t round, const std::vector<Message>&) override {
    SendList out;
    if (round >= rounds_) {
      done_ = true;
      return out;
    }
    out.send(1, Bytes(bytes_, 0xCD), kind_);
    return out;
  }
  bool done() const override { return done_; }

 private:
  std::size_t rounds_, bytes_;
  MsgKind kind_;
  bool done_ = false;
};

class SilentSink final : public Party {
 public:
  SendList on_round(std::size_t, const std::vector<Message>&) override {
    return {};
  }
  bool done() const override { return true; }
};

TEST(Ledger, ScriptedRunFillsPerRoundRows) {
  std::vector<std::unique_ptr<Party>> parties;
  parties.push_back(std::make_unique<KindSender>(5, 40, MsgKind::kBoostFlood));
  parties.push_back(std::make_unique<SilentSink>());
  Simulator sim(std::move(parties), std::vector<bool>{false, false}, nullptr);
  obs::Ledger& led = sim.ledger();
  led.on_phase(0, "warmup");
  led.on_phase(3, "main");
  std::size_t rounds = sim.run(32);

  EXPECT_EQ(rounds, 6u);  // five sending rounds, then one to notice done()
  EXPECT_EQ(led.rounds_run(), rounds);
  EXPECT_EQ(led.n_parties(), 2u);

  // Rounds 0..4 each carry one 40 B message, delivered (and so received)
  // in its send round on the fault-free network; round 5 is silent.
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t k = r < 5 ? 1 : 0;
    const obs::PartyTally row = led.round_total(r);
    EXPECT_EQ(row, (obs::PartyTally{40 * k, 40 * k, k, k})) << "round " << r;
  }
  EXPECT_EQ(led.total(0).bytes_sent, 5u * 40u);
  EXPECT_EQ(led.total(0).msgs_sent, 5u);
  // Every byte is tagged with the sender's MsgKind.
  EXPECT_EQ(led.kind_total(MsgKind::kBoostFlood, 0).bytes_sent, 5u * 40u);

  // The two marks split the six rounds 3 + 3.
  ASSERT_EQ(led.phase_count(), 2u);
  EXPECT_EQ(led.phase_name(0), "warmup");
  EXPECT_EQ(led.phase_rounds(0), 3u);
  EXPECT_EQ(led.phase_total(0, 0).bytes_sent, 3u * 40u);
  EXPECT_EQ(led.phase_name(1), "main");
  EXPECT_EQ(led.phase_start(1), 3u);
  EXPECT_EQ(led.phase_rounds(1), 3u);
  EXPECT_EQ(led.phase_total(1, 0).bytes_sent, 2u * 40u);
}

TEST(RoundTracer, PiBaSmokeAgreesWithNetworkStats) {
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
  // The ledger counted and the tracer timed exactly the rounds the network
  // ran...
  EXPECT_EQ(ledger.rounds_run(), r.stats.rounds);
  EXPECT_EQ(ledger.rounds_run(), r.rounds);
  EXPECT_EQ(tracer.rounds().size(), r.rounds);
  // ...and the per-round rows sum to the per-party books (r.stats is their
  // snapshot).
  obs::PartyTally rows, parties;
  for (std::size_t k = 0; k < ledger.rounds_run(); ++k) rows += ledger.round_total(k);
  for (const auto& p : r.stats.party) parties += p;
  EXPECT_EQ(rows, parties);
  EXPECT_GT(rows.bytes_sent, 0u);

  // The chrome trace's phase events carry the ledger's phase totals, and
  // the phases partition the run.
  PJson doc = testjson::parse(tracer.chrome_trace(ledger).dump());
  std::size_t phase_events = 0, covered = 0, setup_spans = 0;
  for (const PJson& e : doc.get("traceEvents")->array) {
    const PJson* cat = e.get("cat");
    if (cat && cat->string == "setup") ++setup_spans;
    if (!cat || cat->string != "phase") continue;
    ++phase_events;
    const std::size_t p = ledger.phase_index(e.get("name")->string);
    ASSERT_NE(p, obs::Ledger::kAllPhases);
    const PJson* args = e.get("args");
    EXPECT_EQ(args->get("bytes_sent")->integer,
              static_cast<std::int64_t>(ledger.stat(obs::LedgerField::kBytesSent, p).total));
    EXPECT_EQ(args->get("msgs_sent")->integer,
              static_cast<std::int64_t>(ledger.stat(obs::LedgerField::kMsgsSent, p).total));
    EXPECT_EQ(e.get("dur")->integer, static_cast<std::int64_t>(1000 * ledger.phase_rounds(p)));
    covered += ledger.phase_rounds(p);
  }
  EXPECT_GE(phase_events, 4u);
  EXPECT_EQ(ledger.phase_name(0), "f_ba");
  EXPECT_EQ(covered, ledger.rounds_run());
  // The boost phase carries traffic, and π_ba tags it: signature shares
  // show up in the whole-run kind tallies.
  EXPECT_GT(ledger.stat(obs::LedgerField::kBytesSent, ledger.phase_index("boost")).total, 0u);
  std::uint64_t sign_msgs = 0;
  for (PartyId i = 0; i < ledger.n_parties(); ++i) {
    sign_msgs += ledger.kind_total(MsgKind::kBoostSign, i).msgs_sent;
  }
  EXPECT_GT(sign_msgs, 0u);
  // Setup work was reported as spans (tree build + SRDS keygen).
  EXPECT_GE(setup_spans, 2u);
}

TEST(Ledger, AgreesWithNetworkStatsOnSeededRun) {
  // One seeded fault-free run, counted once by the Ledger. Its books are
  // pinned to the values the pre-Ledger NetworkStats produced for this
  // run, NetworkStats must be their snapshot, and the per-round rows and
  // per-phase tallies must both add up to the whole-run totals.
  obs::Ledger ledger;
  BaRunConfig cfg;
  cfg.n = 64;
  cfg.beta = 0.2;
  cfg.seed = 7;
  cfg.protocol = BoostProtocol::kPiBaSnark;
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

  // Round-level: the per-round rows sum to the whole-run totals.
  obs::PartyTally rows;
  for (std::size_t k = 0; k < ledger.rounds_run(); ++k) rows += ledger.round_total(k);
  EXPECT_EQ(rows.bytes_sent, sent.total);
  EXPECT_EQ(rows.msgs_sent, 49705u);
  EXPECT_EQ(rows.bytes_recv, 18764031u);

  // Phase-level: each phase's rows sum to its sent tally, and the phases
  // partition the run and its traffic.
  std::size_t covered = 0;
  std::uint64_t phase_bytes = 0;
  for (std::size_t p = 0; p < ledger.phase_count(); ++p) {
    obs::PartyTally in_phase;
    const std::size_t start = ledger.phase_start(p);
    for (std::size_t k = start; k < start + ledger.phase_rounds(p); ++k) {
      in_phase += ledger.round_total(k);
    }
    EXPECT_EQ(in_phase.bytes_sent, ledger.stat(obs::LedgerField::kBytesSent, p).total)
        << ledger.phase_name(p);
    EXPECT_EQ(in_phase.msgs_sent, ledger.stat(obs::LedgerField::kMsgsSent, p).total)
        << ledger.phase_name(p);
    covered += ledger.phase_rounds(p);
    phase_bytes += in_phase.bytes_sent;
  }
  EXPECT_EQ(covered, r.rounds);
  EXPECT_EQ(phase_bytes, sent.total);

  // The harness audited the run: the registered budgets all evaluated, and
  // the boost-phase stat the bench binaries report comes from the ledger.
  ASSERT_GE(r.budget_evals.size(), 3u);
  const obs::PartyStat boost =
      ledger.stat(obs::LedgerField::kBytesTotal, ledger.phase_index("boost"));
  EXPECT_GT(boost.max, 0u);
  EXPECT_GE(boost.max, boost.p50);
}

/// One phase row of a BENCH artifact's `phases` block.
struct PinnedPhase {
  const char* name;
  std::size_t start, rounds;
  std::uint64_t msgs_sent, bytes_sent;
};

TEST(PhaseMetrics, PinnedForEveryProtocolAtN64) {
  // fig_perparty_scaling's n=64 rows (seed 101, β=0.2), as the bench writes
  // them: a change to the phase accounting shows up here first.
  const std::vector<std::pair<BoostProtocol, std::vector<PinnedPhase>>> pinned{
      {BoostProtocol::kNaive,
       {{"f_ba", 0, 10, 12696, 1311000},
        {"f_ct", 10, 20, 25944, 20835792},
        {"f_ae-dissem", 30, 5, 6933, 402114},
        {"boost", 35, 2, 3276, 147420}}},
      {BoostProtocol::kMultisig,
       {{"f_ba", 0, 10, 11616, 1198560},
        {"f_ct", 10, 20, 23760, 19062384},
        {"f_ae-dissem", 30, 5, 6884, 399272},
        {"boost", 35, 12, 10781, 858213}}},
      {BoostProtocol::kStar,
       {{"f_ba", 0, 10, 12696, 1311000},
        {"f_ct", 10, 20, 25944, 20835792},
        {"f_ae-dissem", 30, 5, 6933, 402114},
        {"boost", 35, 2, 1449, 123165}}},
      {BoostProtocol::kSampling,
       {{"f_ba", 0, 10, 12696, 1311000},
        {"f_ct", 10, 20, 25944, 20835792},
        {"f_ae-dissem", 30, 5, 6933, 402114},
        {"boost", 35, 3, 4442, 59737}}},
      {BoostProtocol::kPiBaOwf,
       {{"f_ba", 0, 10, 11616, 1198560},
        {"f_ct", 10, 20, 23760, 19062384},
        {"f_ae-dissem", 30, 5, 6884, 399272},
        {"boost", 35, 12, 12087, 4669801}}},
      {BoostProtocol::kPiBaSnark,
       {{"f_ba", 0, 10, 11616, 1198560},
        {"f_ct", 10, 20, 23760, 19062384},
        {"f_ae-dissem", 30, 5, 6884, 399272},
        {"boost", 35, 12, 14255, 1690417}}},
  };
  for (const auto& [protocol, phases] : pinned) {
    obs::Ledger ledger;
    BaRunConfig cfg;
    cfg.n = 64;
    cfg.beta = 0.2;
    cfg.seed = 101;
    cfg.protocol = protocol;
    cfg.ledger = &ledger;
    run_ba(cfg);
    obs::Json expected = obs::Json::object();
    for (const PinnedPhase& p : phases) {
      obs::Json j = obs::Json::object();
      j.set("start", p.start);
      j.set("rounds", p.rounds);
      j.set("msgs_sent", p.msgs_sent);
      j.set("bytes_sent", p.bytes_sent);
      expected.set(p.name, std::move(j));
    }
    EXPECT_EQ(bench::phase_metrics(ledger).dump(2), expected.dump(2))
        << protocol_name(protocol);
  }
}

TEST(RoundTracer, ChromeTraceIsWellFormedJson) {
  obs::RoundTracer tracer;
  obs::Ledger ledger;
  BaRunConfig cfg;
  cfg.n = 64;
  cfg.beta = 0.1;
  cfg.seed = 11;
  cfg.protocol = BoostProtocol::kPiBaSnark;
  cfg.trace = &tracer;
  cfg.ledger = &ledger;
  run_ba(cfg);

  PJson doc = testjson::parse(tracer.chrome_trace(ledger).dump());
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
  EXPECT_EQ(round_events, ledger.rounds_run());
  EXPECT_EQ(counter_events, round_events);
}

TEST(RoundTracer, ChromeTraceCarriesProfTrackOnlyWhenEnabled) {
  obs::prof_set_enabled(false);
  obs::prof_reset();

  auto trace_once = [] {
    obs::RoundTracer tracer;
    obs::Ledger ledger;
    BaRunConfig cfg;
    cfg.n = 64;
    cfg.beta = 0.1;
    cfg.seed = 11;
    cfg.protocol = BoostProtocol::kPiBaSnark;
    cfg.trace = &tracer;
    cfg.ledger = &ledger;
    run_ba(cfg);
    return tracer.chrome_trace(ledger).dump();
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

/// Rebuild the deterministic metrics a bench binary would report for one
/// run (everything but wall-clock).
obs::Json deterministic_metrics(const BaRunResult& r, const obs::Ledger& ledger) {
  obs::Json m = obs::Json::object();
  m.set("rounds", r.rounds);
  m.set("max_comm_per_party_bytes", r.boost_stats.max_bytes_total());
  m.set("total_comm_bytes", r.stats.total_bytes());
  m.set("decided_fraction", r.decided_fraction());
  m.set("phases", bench::phase_metrics(ledger));
  return m;
}

TEST(DeterminismGuard, IdenticalRunsProduceByteIdenticalReports) {
  auto run_once = [] {
    obs::Ledger ledger;
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
    cfg.ledger = &ledger;
    auto r = run_ba(cfg);

    bench::Reporter rep("determinism_guard");
    rep.set_param("n", 64);
    rep.set_param("seed", 2026);
    rep.add_row(64.0, deterministic_metrics(r, ledger));
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
