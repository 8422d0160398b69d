// Experiment "Table 1" — comparison of protocols boosting almost-everywhere
// agreement to full agreement (the paper's only quantitative artifact).
//
// Each row executes the full protocol on the synchronous simulator at a
// fixed n with β = 0.2 fail-silent corruption, and reports the *measured*
// analogues of the paper's columns: rounds, max communication per party
// (sent+received bytes over honest parties), communication locality
// (max distinct peers), plus the declared setup/assumption columns.
//
// Every run is counted into an obs::Ledger, so the BENCH_*.json artifact
// carries a per-phase byte/round breakdown per row, and the π_ba/snark row
// additionally exports a chrome://tracing timeline (TRACE_pi_ba.json) of
// the Ledger's traffic beside the obs::RoundTracer's round times.
#include <cstdio>

#include "ba/runner.hpp"
#include "bench_util.hpp"
#include "obs/tracer.hpp"

namespace {

struct Row {
  srds::BoostProtocol protocol;
  const char* paper_row;
  const char* setup;
  const char* assumptions;
};

constexpr Row kRows[] = {
    {srds::BoostProtocol::kNaive, "folklore all-to-all", "pki", "sig"},
    {srds::BoostProtocol::kMultisig, "BGT'13 [13]", "pki", "multisig (owf)"},
    {srds::BoostProtocol::kSampling, "KS'11/KLST'11 [45,47]", "-", "-"},
    {srds::BoostProtocol::kStar, "ACD+'19 [1] (star)", "trusted-pki", "sig"},
    {srds::BoostProtocol::kPiBaOwf, "This work (OWF-SRDS)", "trusted-pki", "owf"},
    {srds::BoostProtocol::kPiBaSnark, "This work (SNARK-SRDS)", "pki+crs", "snarks*+crh"},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace srds;
  using namespace srds::bench;

  Args args = Args::parse(argc, argv);
  const std::size_t n = args.n_or(512);
  const double beta = 0.2;
  const std::uint64_t seed = args.seed_or(42);

  Reporter rep("table1_boost_comparison");
  rep.set_param("n", n);
  rep.set_param("beta", beta);
  rep.set_param("seed", seed);

  print_header("Table 1 (measured): almost-everywhere -> everywhere boost step, n=" +
               std::to_string(n) + ", beta=0.2");
  say("(boost-phase costs only; the shared f_ba+f_ct+f_ae-comm front end is the\n"
      " same for every row and excluded, exactly as in the paper's comparison)\n\n");
  std::vector<int> widths{26, 8, 16, 12, 14, 13, 16, 10};
  print_row({"protocol", "rounds", "max comm/party", "locality", "total comm",
             "setup", "assumptions", "decided"},
            widths);

  double row_idx = 0;
  for (const Row& row : kRows) {
    obs::RoundTracer tracer;
    obs::Ledger ledger;
    BaRunConfig cfg;
    cfg.n = n;
    cfg.beta = beta;
    cfg.seed = seed;
    cfg.protocol = row.protocol;
    cfg.trace = &tracer;
    cfg.ledger = &ledger;
    cfg.strict_budgets = args.strict_budgets;
    BaRunResult r;
    RepeatStats rs;
    try {
      rs = timed_repeats(args.repeats, [&] {
        tracer.clear();
        r = run_ba(cfg);
      });
    } catch (const BudgetViolation& v) {
      std::fprintf(stderr, "%s\n", v.what());
      report_budget_findings(v.findings);
      return 3;
    }
    // Per-party numbers now come from the shared ledger (identical to the
    // old NetworkStats walk on a fault-free run, plus distribution stats).
    const obs::PartyStat boost_pp =
        ledger.stat(obs::LedgerField::kBytesTotal, ledger.phase_index("boost"));
    report_budget_findings(r.budget_evals);
    print_row({row.paper_row, std::to_string(r.boost_rounds),
               fmt_bytes(static_cast<double>(boost_pp.max)),
               std::to_string(r.boost_stats.max_locality()),
               fmt_bytes(static_cast<double>(r.boost_stats.total_bytes())), row.setup,
               row.assumptions, fmt(100.0 * r.decided_fraction(), 1) + "%"},
              widths);
    if (!r.agreement) std::printf("  !! agreement violated for %s\n", row.paper_row);

    obs::Json m = obs::Json::object();
    m.set("protocol", protocol_name(row.protocol));
    m.set("paper_row", row.paper_row);
    m.set("boost_rounds", r.boost_rounds);
    m.set("rounds", r.rounds);
    m.set("max_comm_per_party_bytes", boost_pp.max);
    m.set("p50_comm_per_party_bytes", boost_pp.p50);
    m.set("p90_comm_per_party_bytes", boost_pp.p90);
    m.set("locality", r.boost_stats.max_locality());
    m.set("total_comm_bytes", r.boost_stats.total_bytes());
    m.set("decided_fraction", r.decided_fraction());
    m.set("agreement", r.agreement);
    m.set("setup", row.setup);
    m.set("assumptions", row.assumptions);
    m.set("phases", phase_metrics(ledger));
    m.set("per_party", perparty_metrics(ledger));
    m.set("budgets", obs::BudgetAuditor::to_json(r.budget_evals));
    rs.attach(m);
    rep.add_row(row_idx, std::move(m));
    row_idx += 1;

    // Timeline artifact for the headline protocol: load in chrome://tracing.
    if (row.protocol == BoostProtocol::kPiBaSnark && args.json_enabled()) {
      std::string path = args.json_out + "/TRACE_pi_ba.json";
      if (obs::write_text_file(path, tracer.chrome_trace(ledger).dump(-1) + "\n")) {
        say("  [trace] %s\n", path.c_str());
      }
    }
  }

  say("\nReading guide: this snapshot fixes n=%zu, where the paper's asymptotic\n"
      "separation (Õ(1) for the SRDS rows vs Õ(√n) for sampling vs Õ(n) for\n"
      "naive/BGT'13/star) lives in the GROWTH, not yet in the absolute bytes —\n"
      "polylog committees carry chunky constants at this scale. See Fig A for\n"
      "the slopes (pi_ba ~0.2, naive/star ~1.0) and the measured crossovers:\n"
      "pi_ba/snark already beats BGT'13 at n=2048 and is below naive at\n"
      "n=4096 (243,016 vs 331,695 boost bytes, seed 101).\n"
      "Locality of naive/star is pinned at n-1; the SRDS rows stay well below.\n"
      "The setup/assumption columns are the paper's, satisfied by construction.\n",
      n);
  finish_report(rep, args);
  return 0;
}
