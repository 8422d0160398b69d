// Core of the bench-diff ratchet gate: flatten BENCH_*.json artifacts
// (bench/report.hpp schema v2) into keyed numeric samples, then compare a
// baseline run against a fresh run with regression semantics.
//
// A sample is identified by (bench, label, x, metric):
//   * bench  — the document's "bench" name,
//   * label  — the row's metrics.protocol (or metrics.sweep) string, so
//              benches with several rows per x (Table 1: one per protocol)
//              match the right counterpart,
//   * x      — the row's x value,
//   * metric — the dotted path of the numeric leaf inside "metrics"
//              (nested objects/arrays flatten as "per_party.boost.max",
//              "budgets.2.max_bits", ...).
// A google-benchmark row (a string metrics.name and no protocol/sweep) is
// identified by (bench, name, metric) instead: its x is only its position
// in the suite, so adding or deleting a benchmark never shifts the others
// onto the wrong baseline row.
//
// Each metric carries a direction: for cost metrics (bytes/bits/msgs/
// rounds/locality and the per-party stat leaves) HIGHER is worse, for
// quality metrics (decided/delivered fractions, agreement, budget `ok`)
// LOWER is worse, everything else is informational. A delta beyond the
// threshold in the bad direction is a regression; a baseline sample with no
// fresh counterpart is a stale baseline entry. Either fails the gate —
// improvements and brand-new metrics never do, they are reported so the
// baseline can be ratcheted forward with --write-baseline.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace srds::benchdiff {

/// One flattened numeric leaf of a BENCH document.
struct Sample {
  std::string bench;
  std::string label;   // row identity for multi-row-per-x benches ("" if none)
  double x = 0;
  std::string metric;  // dotted path inside the row's "metrics" object
  double value = 0;
  /// Wall-clock class sample (wall mode only): gated with the wall
  /// threshold widened by the measured run-to-run spread, not the exact
  /// deterministic threshold.
  bool wall = false;
  double spread_rel = 0;  // row's measured (max-min)/median across repeats
  bool by_name = false;   // label is a micro row's name; x is not in the key

  /// Stable map key — x is rendered with the writer's shortest round-trip
  /// formatting so 512 and 512.0 collide as intended; a by_name sample
  /// leaves x out.
  std::string key() const;
};

/// Which direction of change is a regression for a given metric path.
enum class Direction { kHigherWorse, kLowerWorse, kInfo };
Direction classify(const std::string& metric);

struct FlattenOptions {
  /// Wall mode (schema 3): promote each row's wall.ns_per_op (carrying its
  /// spread_rel) into a sample so the ratchet can gate timing. Off by
  /// default — wall clocks are volatile and must never break the
  /// deterministic diff.
  bool include_wall = false;
};

/// Flatten a parsed BENCH document into samples. Returns false (with *err)
/// when the document lacks the expected "bench"/"series" shape. Volatile
/// leaves (timestamp, git_describe, anything wall-clock, allocs, prof)
/// never become samples, so identical logical runs diff clean — except
/// allocs_per_op, which repeats exactly for a seeded run and becomes a
/// higher-is-worse sample at any depth of a row (a figure's per-protocol
/// "naive.allocs_per_op" too), gated by kAllocsPerOpTolerance, and the wall
/// leaf that wall mode opts in.
bool flatten(const obs::Json& doc, std::vector<Sample>& out, std::string* err = nullptr,
             const FlattenOptions& options = {});

struct Delta {
  enum class Kind {
    kOk,           // within threshold (or informational)
    kRegression,   // worse than baseline beyond threshold — fails the gate
    kImprovement,  // better than baseline beyond threshold — ratchet candidate
    kStale,        // in baseline, missing from fresh — fails the gate
    kNew,          // in fresh, missing from baseline — reported only
  };
  Kind kind = Kind::kOk;
  Sample sample;        // fresh sample (baseline sample for kStale)
  double base = 0;      // baseline value (meaningless for kNew)
  double rel = 0;       // (fresh - base) / base; +/-inf when base == 0
  Direction direction = Direction::kInfo;
};

/// allocs_per_op moves by more than this many allocations per op before it
/// counts, whatever DiffOptions::threshold says: a seeded count repeats
/// exactly, so one new allocation per op is a regression even where it is
/// a fraction of a percent.
inline constexpr double kAllocsPerOpTolerance = 0.5;

struct DiffOptions {
  /// Relative change that counts as a regression/improvement (0.10 = 10%);
  /// allocs_per_op gates on kAllocsPerOpTolerance instead.
  double threshold = 0.10;
  /// Wall-class samples use this (usually looser) relative threshold...
  double wall_threshold = 0.25;
  /// ...widened to spread_guard × the larger measured spread of the two
  /// runs: a median shift smaller than a few spreads is machine noise, not
  /// a regression. The effective wall threshold is
  ///   max(wall_threshold, spread_guard * max(base.spread, fresh.spread)).
  double spread_guard = 3.0;
};

struct DiffReport {
  std::vector<Delta> deltas;  // regressions/stale first, then improvements/new
  std::size_t compared = 0;   // samples present on both sides
  std::size_t regressions = 0;
  std::size_t stale = 0;
  std::size_t improvements = 0;
  std::size_t added = 0;      // fresh samples with no baseline counterpart

  /// Gate verdict: any regression or stale baseline entry fails.
  bool failed() const { return regressions > 0 || stale > 0; }

  obs::Json to_json() const;
};

/// Compare baseline samples against fresh samples.
DiffReport diff(const std::vector<Sample>& baseline, const std::vector<Sample>& fresh,
                const DiffOptions& options = {});

/// Copy of `doc` with the run-volatile top-level fields (timestamp,
/// git_describe) removed — the form --write-baseline checks in, so baseline
/// files only change when the measured numbers do.
obs::Json strip_volatile(const obs::Json& doc);

const char* kind_name(Delta::Kind k);

}  // namespace srds::benchdiff
