// Ratcheting lint baseline.
//
// `srds-lint --write-baseline LINT_BASELINE.json` records every currently
// blocking finding; `--baseline LINT_BASELINE.json` then fails CI on any
// finding *not* in the file (new violation) and on any entry whose finding
// no longer occurs (stale baseline — the fix landed but the entry was kept,
// which would let a later regression hide behind it). Both directions
// failing is what makes the count monotone: the only way the baseline
// changes is an explicit, reviewed `--write-baseline` commit, and it can
// only shrink unless a diff visibly adds entries.
//
// Entries are keyed (file, rule, line) exactly — a violation that moves
// lines shows up as one new + one stale and forces a baseline refresh, by
// design: the file stays a precise mirror of the tree, never a fuzzy
// allowlist. The JSON is byte-deterministic (sorted entries, no
// timestamps), same contract as the LINT_/BENCH_ artifacts.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint.hpp"

namespace srds::lint {

struct BaselineEntry {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;  // informational; not part of the comparison key
};

struct Baseline {
  std::vector<BaselineEntry> entries;  // sorted by (file, line, rule)
};

/// Baseline of the current tree: every unsuppressed error-severity finding.
Baseline make_baseline(const std::vector<Finding>& findings);

/// {"tool":"srds-lint","schema":1,"baseline":[{file,line,rule,message}...]}
obs::Json baseline_json(const Baseline& b);

/// Parse a baseline artifact (the subset of JSON baseline_json emits). On
/// failure returns false with a one-line reason in `error`.
bool parse_baseline(const std::string& text, Baseline& out, std::string& error);

struct BaselineDiff {
  std::vector<Finding> fresh;        // blocking now, absent from the baseline
  std::vector<BaselineEntry> stale;  // in the baseline, no longer occurring
};

BaselineDiff diff_baseline(const std::vector<Finding>& findings, const Baseline& b);

}  // namespace srds::lint
