// bench::Reporter — machine-readable benchmark output.
//
// Every bench binary routes its result rows through a Reporter alongside
// the fixed-width text tables, producing a `BENCH_<name>.json` artifact:
//
//   {
//     "schema": 3,
//     "bench": "<name>",
//     "git_describe": "<git describe --always --dirty>",
//     "timestamp": "<ISO 8601 UTC>",
//     "params": { ... fixed experiment parameters ... },
//     "series": [ {"x": <number>, "metrics": { ... }}, ... ],
//     "prof": { "sites": [ ... ] }        (only when profiling is enabled)
//   }
//
// `x` is the sweep coordinate (n, ell, drop rate, row index...); `metrics`
// is a flat-ish object of numbers/strings (nested objects allowed, e.g. a
// per-phase breakdown). Schema v2 adds per-party distribution blocks
// (obs::Ledger stats under "per_party") and "budgets" evaluation arrays to
// the simulator-driven benches; v3 adds the per-row wall/allocs metrics
// ("wall": {ns_per_op, spread_rel, repeats} and "allocs_per_op", see
// bench_util.hpp timed_repeats) plus the optional top-level "prof" block
// (obs/prof.hpp). tools/bench-diff consumes these documents
// and compares any two of them metric-by-metric. Output is byte-deterministic for a deterministic
// benchmark apart from the `timestamp` and `prof` fields — both ride the
// with_timestamp gate, and the determinism guard in
// tests/trace_test.cpp enforces exactly that, so the perf trajectory
// across PRs can be diffed mechanically.
//
// Thread safety: add_row/set_param/to_json may be called from concurrent
// worker threads (sweeps that parallelize over n); rows appear in call
// order, so a bench that needs deterministic row order must either stay
// single-threaded or add rows after joining its workers.
#pragma once

#include <mutex>
#include <string>

#include "obs/json.hpp"

namespace srds::bench {

class Reporter {
 public:
  explicit Reporter(std::string bench_name) : bench_(std::move(bench_name)) {}

  const std::string& name() const { return bench_; }

  /// Record a fixed experiment parameter (beta, seed, sizes...).
  void set_param(const std::string& key, obs::Json value) {
    std::lock_guard<std::mutex> lk(mu_);
    params_.set(key, std::move(value));
  }

  /// Append one series row. `metrics` must be a JSON object.
  void add_row(double x, obs::Json metrics);

  std::size_t rows() const {
    std::lock_guard<std::mutex> lk(mu_);
    return series_.items().size();
  }

  /// The full document. `with_timestamp=false` omits the timestamp field
  /// (used by the determinism guard).
  obs::Json to_json(bool with_timestamp = true) const;

  /// Write BENCH_<name>.json under `dir` ("." = cwd). Returns the path, or
  /// empty on I/O failure.
  std::string write(const std::string& dir) const;

  /// `git describe --always --dirty` of the working tree, or "unknown"
  /// when git/repo is unavailable. Cached after the first call.
  static std::string git_describe();

 private:
  mutable std::mutex mu_;  // guards params_ and series_
  std::string bench_;
  obs::Json params_ = obs::Json::object();
  obs::Json series_ = obs::Json::array();
};

}  // namespace srds::bench
