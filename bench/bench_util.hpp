// Shared helpers for the experiment binaries: fixed-width table printing,
// log-log slope estimation for the scaling figures, and glue between the
// observability layer (obs/) and the bench JSON artifacts. Every binary
// parses the shared CLI (bench_args.hpp) and routes its rows through a
// bench::Reporter in addition to the text tables.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_args.hpp"
#include "obs/alloc_hooks.hpp"
#include "obs/budget.hpp"
#include "obs/ledger.hpp"
#include "obs/prof.hpp"
#include "report.hpp"

namespace srds::bench {

/// Allocations observed process-wide since startup. Nonzero only when the
/// binary links the srds_alloc_hooks OBJECT library (obs/alloc_hooks.hpp).
inline std::uint64_t alloc_ops() { return obs::alloc_ops(); }

/// Wall/alloc statistics over the repeats of one measured row.
struct RepeatStats {
  double wall_ns_median = 0;   // median wall time of one repeat (ns)
  double spread_rel = 0;       // (max - min) / median over the repeats
  double allocs_per_op = 0;    // median allocations of one repeat
  std::size_t repeats = 1;

  /// The schema-3 per-row "wall" metrics object.
  obs::Json wall_json() const {
    obs::Json j = obs::Json::object();
    j.set("ns_per_op", wall_ns_median);
    j.set("spread_rel", spread_rel);
    j.set("repeats", static_cast<unsigned long long>(repeats));
    return j;
  }

  /// Attach the schema-3 wall/allocs metrics to a row's metrics object.
  void attach(obs::Json& metrics) const {
    metrics.set("wall", wall_json());
    metrics.set("allocs_per_op", allocs_per_op);
  }
};

/// Run `fn` `repeats` times, timing each run (steady_clock) and counting
/// its allocations; report the median and the relative spread so the
/// bench-diff wall-metric gate can separate noise from regression. `fn`
/// must be a self-contained repeat: it resets whatever run state it reuses
/// (tracer/ledger), so only the last repeat's artifacts survive for the
/// row's deterministic metrics.
template <typename F>
RepeatStats timed_repeats(std::size_t repeats, F&& fn) {
  if (repeats == 0) repeats = 1;
  std::vector<double> ns;
  std::vector<double> allocs;
  ns.reserve(repeats);
  allocs.reserve(repeats);
  for (std::size_t i = 0; i < repeats; ++i) {
    const std::uint64_t a0 = alloc_ops();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
    allocs.push_back(static_cast<double>(alloc_ops() - a0));
  }
  std::sort(ns.begin(), ns.end());
  std::sort(allocs.begin(), allocs.end());
  RepeatStats s;
  s.repeats = repeats;
  s.wall_ns_median = ns[ns.size() / 2];
  s.allocs_per_op = allocs[allocs.size() / 2];
  if (s.wall_ns_median > 0) {
    s.spread_rel = (ns.back() - ns.front()) / s.wall_ns_median;
  }
  return s;
}

inline void print_header(const std::string& title) {
  if (quiet()) return;
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_row(const std::vector<std::string>& cells,
                      const std::vector<int>& widths) {
  if (quiet()) return;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::printf("%-*s", widths[i], cells[i].c_str());
  }
  std::printf("\n");
}

/// printf that respects --quiet (for the "Expected shape" footers).
template <typename... A>
void say(const char* fmt, A... args) {
  if (quiet()) return;
  std::printf(fmt, args...);
}

/// Per-phase round/message/byte breakdown of the run the ledger counted, as
/// a JSON object {phase: {start, rounds, msgs_sent, bytes_sent}} for
/// Reporter metrics.
inline obs::Json phase_metrics(const obs::Ledger& ledger) {
  obs::Json out = obs::Json::object();
  for (std::size_t p = 0; p < ledger.phase_count(); ++p) {
    obs::Json j = obs::Json::object();
    j.set("start", ledger.phase_start(p));
    j.set("rounds", ledger.phase_rounds(p));
    j.set("msgs_sent", ledger.stat(obs::LedgerField::kMsgsSent, p).total);
    j.set("bytes_sent", ledger.stat(obs::LedgerField::kBytesSent, p).total);
    out.set(ledger.phase_name(p), std::move(j));
  }
  return out;
}

/// Per-party distribution block for Reporter metrics, from the ledger: one
/// {max, argmax, p50, p90, total} stat of bytes sent+received per party for
/// the whole run and for each recorded protocol phase — "boost" is the
/// Table 1 axis (max communication per party in the boost step).
inline obs::Json perparty_metrics(const obs::Ledger& ledger) {
  auto block = [&](std::size_t phase) {
    obs::PartyStat s = ledger.stat(obs::LedgerField::kBytesTotal, phase);
    obs::Json j = obs::Json::object();
    j.set("max", s.max);
    j.set("argmax", s.argmax);
    j.set("p50", s.p50);
    j.set("p90", s.p90);
    j.set("total", s.total);
    return j;
  };
  obs::Json out = obs::Json::object();
  out.set("run", block(obs::Ledger::kAllPhases));
  for (std::size_t p = 0; p < ledger.phase_count(); ++p) {
    out.set(ledger.phase_name(p), block(p));
  }
  return out;
}

/// Print budget findings (failed evaluations) to stderr; returns how many
/// there were. Benches running with --strict-budgets exit(3) on > 0 — but
/// run_ba already throws BudgetViolation under cfg.strict_budgets, so this
/// is for the non-strict "record and continue" path.
inline std::size_t report_budget_findings(const std::vector<obs::BudgetEval>& evals) {
  std::size_t findings = 0;
  for (const auto& e : evals) {
    if (e.skipped || e.ok) continue;
    ++findings;
    std::fprintf(stderr,
                 "budget FINDING: %s phase '%s' n=%zu: max %llu bits > bound %.0f "
                 "(%llu/%zu parties over)\n",
                 e.protocol.c_str(), e.phase.c_str(), e.n,
                 static_cast<unsigned long long>(e.max_bits), e.bound_bits,
                 static_cast<unsigned long long>(e.violators), e.audited);
  }
  return findings;
}

/// Write the Reporter artifact (if --json-out is active) and tell the user
/// where it went.
inline void finish_report(const Reporter& rep, const Args& args) {
  if (!args.json_enabled()) return;
  std::string path = rep.write(args.json_out);
  if (path.empty()) {
    std::fprintf(stderr, "warning: failed to write BENCH_%s.json under %s\n",
                 rep.name().c_str(), args.json_out.c_str());
  } else {
    say("\n[json] %s\n", path.c_str());
  }
}

/// Write PROF_<name>.json (the standalone prof snapshot) under --json-out.
/// No-op unless --prof is active; returns the path or empty.
inline std::string write_prof_artifact(const Args& args, const std::string& name) {
  if (!args.json_enabled() || !obs::prof_enabled()) return {};
  std::string path = args.json_out;
  if (path.back() != '/') path.push_back('/');
  path += "PROF_" + name + ".json";
  if (!obs::write_text_file(path, obs::prof_to_json().dump(2) + "\n")) return {};
  say("[json] %s\n", path.c_str());
  return path;
}

inline std::string fmt_bytes(double b) {
  char buf[32];
  if (b >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%.1f MiB", b / (1024.0 * 1024.0));
  } else if (b >= 1024.0) {
    std::snprintf(buf, sizeof buf, "%.1f KiB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f B", b);
  }
  return buf;
}

inline std::string fmt(double v, int prec = 2) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

/// Least-squares slope of log(y) against log(x): the growth exponent.
/// (Slope ~1 = linear, ~0.5 = sqrt, ~0 = polylog-flat.)
inline double loglog_slope(const std::vector<double>& xs, const std::vector<double>& ys) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = xs.size();
  for (std::size_t i = 0; i < n; ++i) {
    double lx = std::log(xs[i]), ly = std::log(ys[i] > 0 ? ys[i] : 1.0);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  double denom = static_cast<double>(n) * sxx - sx * sx;
  return denom == 0 ? 0 : (static_cast<double>(n) * sxy - sx * sy) / denom;
}

}  // namespace srds::bench
