// T1 (adversarial-input taint) and P1 (hot-path hygiene) passes, plus the
// shared token-level function-body map and marker machinery the call-graph
// passes (P2/T2, callgraph.hpp) build on.
//
// T1 — every byte a party acts on is adversary-controlled until it has
// passed a bounds-checked deserialization (the Reader contract in
// common/serial.hpp, untag_body, a deserialize()/validate() routine).
// Within the protocol directories (src/ba, src/consensus, src/srds,
// src/mpc) any function that reads `payload` *bytes* — indexing,
// .data()/.begin()/iteration, or mem* calls over the buffer — without a
// prior validation call in the same function body is flagged. Reading
// .size()/.empty() and handing the payload to a helper (whose own body T1
// checks when it is in scope) are not byte reads.
//
// P1 — functions marked `// srds-lint: hotpath` (the simulator delivery
// loop, SRDS aggregation) must not `throw`, use `new`, or construct a
// `std::function`: those allocate or unwind on the per-message path that
// the per-party communication accounting multiplies by n.
//
// Markers may name their target — `// srds-lint: hotpath(Simulator::deliver)`
// — in which case the marker goes stale (and is reported) when the named
// function is deleted or renamed. Unnamed markers must sit inside or within
// kMarkerAttachWindow lines above their function body; beyond that they are
// stale too, never silently dropped.
//
// The body map is a brace-matching heuristic, not an AST: a '{' opening
// after a ')' (with only declarator trailer tokens between) starts a
// function body unless the call-ish name is a control keyword or a lambda
// introducer. Lambda bodies are attributed to their enclosing function.
// Constructor bodies hop over member-initializer lists to the real
// declarator, and definitions inside a class body pick up `Class::` in
// their qualified name.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lex.hpp"
#include "lint.hpp"

namespace srds::lint {

struct FuncBody {
  std::string name;        // best-effort declarator name ("deliver")
  std::string qual;        // qualified chain ("Simulator::deliver")
  std::size_t open_line;   // line of the body '{'
  std::size_t open_tok;    // token index of '{'
  std::size_t close_tok;   // token index of the matching '}' (or last token)
  std::size_t close_line;  // line of that token
  std::size_t lparen_tok;  // token index of the declarator '(' (params start)
  std::size_t rparen_tok;  // token index of the declarator ')'
};

/// All top-level function bodies of a lexed file, in order.
std::vector<FuncBody> function_bodies(const Lexed& lx);

/// A `// srds-lint: hotpath` or `// srds-lint: hotpath(Name)` comment.
struct Marker {
  std::string name;  // qualified name from the (...) form; "" when unnamed
  std::size_t line;
};

/// Unnamed markers must attach to a body opening within this many lines.
constexpr std::size_t kMarkerAttachWindow = 20;

/// All hotpath markers in a lexed file, in line order.
std::vector<Marker> parse_markers(const Lexed& lx);

/// True when a marker's (possibly qualified) name designates `fb`.
bool marker_name_matches(const std::string& name, const FuncBody& fb);

/// Resolve a marker to an index into `funcs`, or npos with `*error` set to
/// a human-readable stale-marker explanation.
std::size_t resolve_marker(const Marker& m, const std::vector<FuncBody>& funcs,
                           std::string* error);

/// One forbidden construct inside a hotpath-disciplined body.
struct HotpathViolation {
  std::size_t line;
  std::string what;  // "'throw'", "'new'", "std::function construction"
};

/// Scan one body for the P1 discipline (no throw/new/std::function). Shared
/// by P1 (marked bodies) and P2 (bodies reachable from marked bodies).
std::vector<HotpathViolation> hotpath_violations(const Lexed& lx, const FuncBody& fb);

void check_t1(const std::string& path, const Lexed& lx, std::vector<Finding>& out);
void check_p1(const std::string& path, const Lexed& lx, std::vector<Finding>& out);

}  // namespace srds::lint
