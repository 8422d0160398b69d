// srds-lint — repo-specific protocol-invariant static analysis.
//
// The paper's quantitative claims survive reproduction only under source-
// level disciplines that ordinary compilers never check:
//
//   * determinism — every protocol path must be a pure function of the run
//     seed (the determinism guard in tests/trace_test.cpp checks one trace
//     at runtime; rule D1 checks every path at the source level),
//   * one-directional layering — protocol layers compose common -> crypto
//     -> net -> {srds,tree,snark,lb} -> {consensus,ba,mpc} (the paper's
//     Figures 1–2 composition); rule L1 checks every include edge against
//     the checked-in module DAG in tools/srds-lint/layers.toml, and
//   * validated adversarial input — bytes a party acts on arrive only
//     through bounds-checked deserialization (the Theorem 1.3/1.4 attack
//     surface); rule T1 flags raw payload-byte reads that skip it.
//
// The checker is a token-level scanner (no libclang): C++ is lexed into
// identifiers/punctuation with line numbers (tools/srds-lint/lex.hpp),
// comments and strings are stripped (so `// rand()` never fires), and each
// rule is one function over the token stream plus the file's repo-relative
// path — except L1, which is a whole-program pass over the include graph
// of every scanned file (driven by the exported compile_commands.json in
// CI). That is deliberately AST-free — the invariants are lexical enough
// that token context decides, and the zero-dependency build keeps the
// linter cheap enough to run on every CI push.
//
// Rules (see docs/static_analysis.md for the paper-level rationale):
//   D1  nondeterminism sources in protocol code: rand()/srand(),
//       std::random_device and the std <random> engines (mt19937, ...)
//       outside src/common/rng, wall-clock reads
//       (time(), clock(), gettimeofday(), chrono::system_clock), and any
//       unordered_map/unordered_set use inside src/ba, src/consensus,
//       src/srds, src/tree (iteration order would leak into round order).
//   S1  every type declaring `serialize` must declare a matching
//       `deserialize` in the same type, and (when a test corpus is given)
//       be referenced by at least one test (the round-trip coverage rule).
//   H1  header hygiene: headers start with `#pragma once` (or a classic
//       include guard) and never contain `using namespace`.
//   L1  layering: cross-module includes must follow the module DAG
//       declared in layers.toml (graph.hpp). No inline allow() — kept
//       back-edges are declared in the manifest with a justification.
//   T1  adversarial-input taint: payload-byte reads without a prior
//       deserialize/validate in the same function body (taint.hpp).
//   P1  hot-path hygiene: no throw/new/std::function in functions marked
//       `// srds-lint: hotpath` (taint.hpp). Markers may name their target
//       (`hotpath(Simulator::deliver)`); stale markers are findings.
//   P2  interprocedural hot-path hygiene: the P1 discipline propagated
//       through the call graph from every hotpath-marked function.
//   T2  interprocedural taint: payload bytes handed to a helper before
//       validation, where the helper (transitively) reads the bytes before
//       its own deserialize/validate; reported with the flow path.
//   A0  malformed suppression: `srds-lint: allow(...)` without the
//       mandatory justification text, or naming an unknown rule. A
//       malformed suppression never suppresses.
//
// Suppressions: `// srds-lint: allow(D1): <justification>` suppresses rule
// D1 on the same line (trailing comment) or, for a comment-only line, on
// the next line containing code. The justification after "):" is mandatory.
// L1 is not inline-suppressible by design.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace srds::lint {

enum class Severity { kOff, kWarn, kError };

const char* severity_name(Severity s);

/// One rule of the engine. The table lives in rules(); adding an invariant
/// means adding a row there and one check function in lint.cpp (per-file
/// rules) or its own pass file (cross-TU rules — see graph.cpp).
struct RuleInfo {
  const char* id;       // "D1"
  const char* title;    // one-line summary for --list-rules
  Severity default_severity;
};

/// The rule table, in report order.
const std::vector<RuleInfo>& rules();

/// nullptr when `id` names no rule.
const RuleInfo* find_rule(const std::string& id);

struct Finding {
  std::string file;  // repo-relative path, '/'-separated
  std::size_t line = 0;
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;
  bool suppressed = false;
  std::string justification;  // non-empty iff suppressed
};

struct Config {
  /// Per-rule severity overrides (rule id -> severity), e.g. from
  /// `--severity D1=warn`. Unlisted rules keep their default.
  std::vector<std::pair<std::string, Severity>> overrides;

  /// Concatenated contents of the test corpus. When non-empty, S1
  /// additionally requires every serializable type name to appear in it
  /// (the round-trip test reference check).
  std::string test_corpus;

  /// Contents of the layers.toml module-DAG manifest. When non-empty,
  /// lint_files additionally runs the cross-TU L1 layering pass over the
  /// whole file set (a parse failure is itself reported as an L1 finding
  /// against `layers_manifest_path`).
  std::string layers_manifest;
  std::string layers_manifest_path = "layers.toml";

  /// Contents of the hotpath_allow.toml manifest ([allow] entries that
  /// stop the P2/T2 call-graph traversals). The passes run in lint_files
  /// regardless (hotpath markers alone seed them); a parse failure is
  /// reported as a P2 finding against `shard_manifest_path`.
  std::string shard_manifest;
  std::string shard_manifest_path = "hotpath_allow.toml";

  Severity severity_of(const std::string& rule) const;
};

/// Call-graph census for the LINT_*.json stats block (deterministic —
/// counts, not timings).
struct CallGraphStats {
  std::size_t functions = 0;         // definitions in the scanned set
  std::size_t call_edges = 0;        // resolved caller->callee edges
  std::size_t external_calls = 0;    // sites naming no scanned definition
  std::size_t hotpath_funcs = 0;     // P1/P2 roots (hotpath markers)
  std::size_t hotpath_reachable = 0; // definitions reachable from P2 roots
  std::size_t allowed_skips = 0;     // traversal stops at [allow] entries
};

/// Lint a single file. `path` is the repo-relative logical path — rule
/// scoping (protocol dirs, src/net, src/common/rng, header rules) is
/// decided from it, so tests can present fixture content under any path.
/// Runs the per-file rules only (D1/S1/H1/T1/P1/A0), not L1. Per-file
/// rules are protocol-code rules: paths outside src/ get no findings (they
/// still feed the L1 graph in lint_files).
std::vector<Finding> lint_file(const std::string& path, const std::string& content,
                               const Config& cfg);

/// Lint many (path, content) pairs — per-file rules, the cross-TU P2/T2
/// call-graph passes (roots from inline hotpath markers, stops from
/// cfg.shard_manifest) and, when cfg.layers_manifest is set, the L1
/// layering pass. Findings
/// sorted by (file, line, rule). `cg_stats`, when given, receives the
/// call-graph census for the JSON stats block.
std::vector<Finding> lint_files(
    const std::vector<std::pair<std::string, std::string>>& files, const Config& cfg,
    CallGraphStats* cg_stats = nullptr);

/// True if any finding is an unsuppressed error (the CI gate / exit code).
bool has_blocking(const std::vector<Finding>& findings);

/// Deterministic JSON artifact:
///   {"tool":"srds-lint","schema":2,
///    "summary":{"files":F,"errors":E,"warnings":W,"suppressed":S},
///    "findings":[{"file","line","rule","severity","message","suppressed",
///                 "justification"?}...],
///    "stats":{...}?}
/// Byte-identical across runs on identical input (no timestamps; findings
/// pre-sorted by lint_files). `stats`, when given, is attached verbatim —
/// the CLI passes a flat object there: the call-graph census and baseline
/// counts (deterministic) and the pass timings (obviously not, same
/// contract as the BENCH_*.json `elapsed` fields).
obs::Json findings_json(const std::vector<Finding>& findings, std::size_t files_scanned,
                        const obs::Json* stats = nullptr);

/// Human report, one `path:line: severity: [RULE] message` per finding
/// plus a one-line summary.
std::string human_report(const std::vector<Finding>& findings, std::size_t files_scanned,
                         bool verbose_suppressed);

}  // namespace srds::lint
