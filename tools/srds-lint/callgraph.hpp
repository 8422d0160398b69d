// Symbol-level call graph + the interprocedural passes built on it:
//
//   P2  interprocedural hot-path hygiene. P1 stops at the marked
//       function's braces; P2 walks the graph from every hotpath-marked
//       function and applies the same no-throw/no-new/no-std::function
//       discipline to everything reachable (deliver -> on_delivery ->
//       histogram allocation leaks).
//   T2  interprocedural taint. T1 stops at the function body; T2 follows
//       `payload` bytes handed to helpers before validation and flags the
//       helper that reads the corresponding parameter's bytes before its
//       own deserialize/validate — reported with the flow path.
//
// The graph itself is the same AST-free, token-level philosophy as the
// rest of srds-lint: definitions come from taint.hpp's function-body map
// (plus class-context qualification), call sites from ident-followed-by-
// '(' scanning with `Qual::` hints, `Type var(...)` constructor calls and
// make_unique/make_shared<T>. Resolution is deliberately an
// over-approximation: qualifier hint, then same-class member, then
// same-file, then *every* definition with that name; a name with no
// definition in the scanned set is an external call (counted, never
// traversed). Over-approximation errs toward more findings, which is the
// right direction for a gate — the hotpath_allow.toml manifest's [allow]
// section is the justified escape hatch.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lex.hpp"
#include "lint.hpp"
#include "taint.hpp"

namespace srds::lint {

/// One call site inside a function body.
struct CallSite {
  std::size_t line = 0;
  std::size_t tok = 0;    // token index of the callee identifier
  std::string name;       // callee name ("step")
  std::string qual_hint;  // innermost `X::` qualifier at the site, "" if none
};

/// One function definition in the scanned set.
struct FuncDef {
  std::size_t file = 0;  // index into CallGraph::files
  FuncBody body;
  std::vector<std::string> params;  // declarator parameter names, in order
  std::vector<CallSite> calls;
};

/// Per-file context the passes need beyond the definitions.
struct FileCtx {
  std::string path;
  Lexed lx;
};

struct CallGraph {
  std::vector<FileCtx> files;
  std::vector<FuncDef> defs;  // in (file, body) order
  std::map<std::string, std::vector<std::size_t>> by_name;
  std::size_t external_calls = 0;  // sites naming no scanned definition

  /// Overload/target resolution fallback chain: qualifier hint ->
  /// same-class member -> same-file -> every definition with the name.
  std::vector<std::size_t> resolve(const FuncDef& caller, const CallSite& cs) const;
};

/// Build the graph from (repo-relative path, content) pairs. Only src/
/// files contribute definitions; others are ignored.
CallGraph build_call_graph(
    const std::vector<std::pair<std::string, std::string>>& files);

/// hotpath_allow.toml: [allow] entries `Name = "justification"` exclude a
/// function from the P2/T2 traversals with a recorded reason. It is the
/// only section; anything else is a parse error.
struct ShardManifest {
  std::vector<std::pair<std::string, std::string>> allows;
};

bool parse_shard_manifest(const std::string& text, ShardManifest& out,
                          std::string& error);

/// Run P2 + T2. `manifest` may be null (no allows). Raw findings —
/// severity/suppression post-processing happens in lint_files.
std::vector<Finding> check_callgraph(const CallGraph& cg, const ShardManifest* manifest,
                                     const std::string& manifest_path,
                                     CallGraphStats* stats);

}  // namespace srds::lint
