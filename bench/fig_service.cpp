// Experiment "Cor 1.2 service": throughput and amortized per-party cost of
// the long-lived BA service daemon (src/svc). One daemon per row serves ℓ
// one-bit requests over the deterministic loopback transport; pipelined rows
// run staggered instances (the whole point of the service), the sequential
// row forces one instance at a time (window = in-flight cap = 1). Headline
// metrics are round-based and deterministic — decisions per 1k simulator
// rounds, bytes per party per decision — so bench-diff can ratchet them;
// wall-clock throughput is reported under a *_wall key, which the ratchet
// skips as volatile.
//
// The gate this figure anchors: at ℓ=64 the pipelined service must retire
// decisions at ≥3x the sequential round rate (checked in-process for every
// swept n ≥ 256; exit 4 on failure), and the amortized budget — Corollary
// 1.2's ℓ·polylog(n) bits per party — holds under --strict-budgets.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "obs/tracer.hpp"
#include "svc/service.hpp"
#include "svc/transport.hpp"

namespace {

using namespace srds;

struct ServiceOut {
  svc::ServiceStats stats;
  std::uint64_t max_bytes = 0;  // worst party, whole service lifetime
  std::uint64_t p50_bytes = 0;
  std::size_t agreed = 0;
  double wall_sec = 0;
  std::vector<obs::BudgetEval> evals;
};

/// With `chrome` set, the run is also timed by a RoundTracer and its
/// Chrome trace is stored there.
ServiceOut run_service(std::size_t n, std::size_t ell, bool pipelined,
                       std::uint64_t seed, bool strict, obs::Json* chrome = nullptr) {
  obs::Ledger ledger;
  obs::RoundTracer tracer;
  svc::ServiceConfig cfg;
  cfg.n = n;
  cfg.beta = 0.1;
  cfg.seed = seed;
  // One client drives the service, so its window must cover the daemon's
  // in-flight cap for the pipeline to actually fill.
  cfg.session_window = pipelined ? cfg.max_inflight : 1;
  if (!pipelined) cfg.max_inflight = 1;
  cfg.ledger = &ledger;
  if (chrome) cfg.trace = &tracer;
  cfg.strict_budgets = strict;
  svc::BaServiceDaemon daemon(std::move(cfg));

  svc::LoopbackTransport transport;
  daemon.add_listener(transport.listener());
  svc::ServiceClient client(transport.connect());
  client.open();

  ServiceOut out;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t submitted = 0, received = 0;
  for (std::size_t iter = 0; iter < 10000000 && received < ell; ++iter) {
    client.retry();
    while (submitted < ell && client.can_submit()) {
      client.submit(submitted % 3 != 0);
      ++submitted;
    }
    daemon.poll();
    daemon.step();
    client.poll();
    for (const auto& d : client.take_decisions()) {
      ++received;
      if (d.decision.agreement) ++out.agreed;
    }
  }
  client.close();
  daemon.shutdown();  // drains + audits; throws BudgetViolation under strict
  out.wall_sec = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                     .count();
  out.stats = daemon.stats();
  out.evals = daemon.audit();
  const obs::PartyStat pp = ledger.stat(obs::LedgerField::kBytesTotal);
  out.max_bytes = pp.max;
  out.p50_bytes = pp.p50;
  if (chrome) *chrome = tracer.chrome_trace(ledger);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace srds;
  using namespace srds::bench;

  Args args = Args::parse(argc, argv);
  const std::uint64_t seed = args.seed_or(2121);

  Reporter rep("fig_service");
  rep.set_param("beta", 0.1);
  rep.set_param("seed", seed);
  rep.set_param("ell_list", "1,8,64");

  bool speedup_ok = true;
  std::vector<int> widths{8, 8, 14, 10, 16, 18, 10};
  for (std::size_t n : args.sizes({256, 1024})) {
    print_header("Cor 1.2 service: decisions vs rounds at n=" + std::to_string(n) +
                 " (beta=0.1)");
    print_row({"mode", "ell", "rounds", "dec/1k rd", "bytes/party", "per decision",
               "agreed"},
              widths);

    std::size_t sequential_rounds = 0, pipelined_rounds = 0;
    struct Row {
      const char* mode;
      std::size_t ell;
      bool pipelined;
    };
    const Row rows[] = {{"pipe", 1, true},
                        {"pipe", 8, true},
                        {"pipe", 64, true},
                        {"seq", 64, false}};
    for (const Row& row : rows) {
      ServiceOut r;
      RepeatStats rs;
      try {
        rs = timed_repeats(args.repeats, [&] {
          r = run_service(n, row.ell, row.pipelined, seed, args.strict_budgets);
        });
      } catch (const BudgetViolation& v) {
        std::fprintf(stderr, "fig_service: %s\n", v.what());
        report_budget_findings(v.findings);
        return 3;
      }
      const double per_1k = r.stats.rounds != 0
                                ? 1000.0 * static_cast<double>(r.stats.decisions) /
                                      static_cast<double>(r.stats.rounds)
                                : 0.0;
      const double per_decision =
          static_cast<double>(r.max_bytes) / static_cast<double>(row.ell);
      print_row({row.mode, std::to_string(row.ell), std::to_string(r.stats.rounds),
                 fmt(per_1k, 1), fmt_bytes(static_cast<double>(r.max_bytes)),
                 fmt_bytes(per_decision),
                 std::to_string(r.agreed) + "/" + std::to_string(row.ell)},
                widths);

      if (row.pipelined && row.ell == 64) pipelined_rounds = r.stats.rounds;
      if (!row.pipelined) sequential_rounds = r.stats.rounds;

      obs::Json m = obs::Json::object();
      m.set("protocol", std::string(row.pipelined ? "pipelined" : "sequential") +
                            "@n=" + std::to_string(n));
      m.set("n", n);
      m.set("rounds", r.stats.rounds);
      m.set("decided_per_1k_rounds", per_1k);
      m.set("max_bytes_per_party", r.max_bytes);
      m.set("p50_bytes_per_party", r.p50_bytes);
      m.set("bytes_per_party_per_decision", per_decision);
      m.set("agreed_fraction",
            static_cast<double>(r.agreed) / static_cast<double>(row.ell));
      m.set("rejected_backpressure", r.stats.rejected_backpressure);
      m.set("decisions_per_sec_wall",
            r.wall_sec > 0 ? static_cast<double>(r.stats.decisions) / r.wall_sec : 0.0);
      m.set("budgets", obs::BudgetAuditor::to_json(r.evals));
      rs.attach(m);
      rep.add_row(static_cast<double>(row.ell), std::move(m));
    }

    if (pipelined_rounds != 0 && sequential_rounds != 0) {
      const double speedup = static_cast<double>(sequential_rounds) /
                             static_cast<double>(pipelined_rounds);
      rep.set_param("speedup_n" + std::to_string(n), speedup);
      say("\npipelining speedup at ell=64: %.1fx fewer rounds than sequential\n",
          speedup);
      // The staggered pipeline is the service's reason to exist: at real
      // sizes it must beat one-at-a-time by a wide margin.
      if (n >= 256 && speedup < 3.0) {
        std::fprintf(stderr,
                     "fig_service: pipelined speedup %.2fx < 3x at n=%zu ell=64\n",
                     speedup, n);
        speedup_ok = false;
      }
    }
  }

  // Artifact leg: one traced pipelined run, exporting the chrome timeline
  // (with the prof flame track when --prof is on) and the standalone prof
  // snapshot — the observability artifacts CI uploads.
  if (args.json_enabled()) {
    obs::Json chrome = obs::Json::object();
    try {
      run_service(256, 8, true, seed, false, &chrome);
    } catch (const BudgetViolation&) {
      // Non-strict run; unreachable, but never fail the figure over the
      // artifact leg.
    }
    const std::string trace_path = args.json_out + "/TRACE_fig_service.json";
    if (obs::write_text_file(trace_path, chrome.dump(-1) + "\n")) {
      say("[trace] %s\n", trace_path.c_str());
    }
    write_prof_artifact(args, "fig_service");
  }

  finish_report(rep, args);
  return speedup_ok ? 0 : 4;
}
