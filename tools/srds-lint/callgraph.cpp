#include "callgraph.hpp"

#include <algorithm>
#include <deque>
#include <set>

namespace srds::lint {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool is_control_keyword(const std::string& s) {
  static const std::set<std::string> kControl = {"if",    "for",    "while",  "switch",
                                                "catch", "return", "sizeof", "alignof",
                                                "decltype"};
  return kControl.count(s) != 0;
}

/// Identifiers that are never a callee name nor the type of a
/// `Type name(args)` declaration-style constructor call.
bool is_non_callee_keyword(const std::string& s) {
  static const std::set<std::string> k = {
      "return",  "throw",     "new",      "delete",   "else",     "do",
      "case",    "goto",      "break",    "continue", "co_return", "co_await",
      "co_yield", "operator", "typeid",   "static_assert", "alignas", "noexcept",
      "const",   "constexpr", "static",   "inline",   "virtual",  "explicit",
      "typename", "template", "using",    "typedef",  "public",   "private",
      "protected", "assert"};
  return is_control_keyword(s) || k.count(s) != 0;
}

/// Member names that read as STL container/string/smart-pointer API. A
/// member call through a receiver whose type a token scanner cannot see
/// would otherwise name-match any class that mimics STL naming (obs::Json's
/// push_back/set, say) and drag unrelated code into the reachable set —
/// these stay opaque (external) instead.
bool is_opaque_member(const std::string& s) {
  static const std::set<std::string> k = {
      "push_back", "emplace_back", "pop_back", "push_front", "pop_front", "push",
      "pop",       "top",          "insert",   "emplace",    "erase",     "clear",
      "resize",    "reserve",      "shrink_to_fit", "at",    "find",      "count",
      "contains",  "lower_bound",  "upper_bound", "equal_range", "empty", "size",
      "length",    "capacity",     "substr",   "append",     "compare",   "c_str",
      "str",       "data",         "front",    "back",       "begin",     "end",
      "cbegin",    "cend",         "rbegin",   "rend",       "get",       "reset",
      "release",   "swap",         "assign",   "set",        "dump",      "value",
      "has_value", "value_or",     "load",     "store",      "exchange",  "fetch_add",
      "fetch_sub", "lock",         "unlock",   "try_lock",   "first",     "second"};
  return k.count(s) != 0;
}

// Mirrors taint.cpp's T1 notion of a validation point / byte read.
bool is_validation_ident(const std::string& s) {
  if (s == "untag_body" || s == "Reader") return true;
  return s.find("deserialize") != std::string::npos || s.find("validate") != std::string::npos;
}

bool is_byte_read_member(const std::string& s) {
  static const std::set<std::string> kReads = {"data",  "begin",  "end",  "front",
                                               "back",  "rbegin", "rend", "cbegin",
                                               "cend",  "view"};
  return kReads.count(s) != 0;
}

bool in_taint_scope(const std::string& path) {
  return path_under(path, "src/ba") || path_under(path, "src/consensus") ||
         path_under(path, "src/srds") || path_under(path, "src/mpc");
}

// ---------------------------------------------------------------------------
// Per-file extraction.
// ---------------------------------------------------------------------------

/// Parameter names from the declarator's (...) token range, in order.
std::vector<std::string> extract_params(const Lexed& lx, const FuncBody& fb) {
  const std::vector<Tok>& toks = lx.toks;
  std::vector<std::string> out;
  if (fb.lparen_tok + 1 >= fb.rparen_tok || fb.rparen_tok >= toks.size()) return out;
  int depth = 0;
  bool in_default = false;  // past a top-level '=' (default argument)
  std::string last_ident;
  auto finish = [&] {
    out.push_back(last_ident);  // "" for unnamed params keeps positions aligned
    last_ident.clear();
    in_default = false;
  };
  for (std::size_t i = fb.lparen_tok + 1; i < fb.rparen_tok; ++i) {
    const Tok& t = toks[i];
    if (t.text == "(" || t.text == "[" || t.text == "{" || t.text == "<") ++depth;
    else if (t.text == ")" || t.text == "]" || t.text == "}" || t.text == ">") --depth;
    else if (depth == 0 && t.text == ",") { finish(); continue; }
    else if (depth == 0 && t.text == "=") { in_default = true; continue; }
    if (!in_default && depth == 0 && t.kind == Tok::kIdent) last_ident = t.text;
  }
  finish();
  if (out.size() == 1 && out[0].empty()) out.clear();  // `()` / `(void)`-ish
  return out;
}

/// Call sites inside one body: `name(`, `Qual::name(`, `Type var(args)`
/// constructor calls, and make_unique/make_shared<T>(...).
std::vector<CallSite> extract_calls(const Lexed& lx, const FuncBody& fb) {
  const std::vector<Tok>& toks = lx.toks;
  std::vector<CallSite> out;
  for (std::size_t i = fb.open_tok + 1; i < fb.close_tok && i + 1 < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind != Tok::kIdent) continue;
    const Tok& next = toks[i + 1];
    if ((t.text == "make_unique" || t.text == "make_shared") && next.text == "<") {
      // Constructor call on the first template argument's last name
      // component: make_unique<srds::CoinTossProto>(...) -> CoinTossProto.
      int depth = 0;
      std::string last;
      for (std::size_t j = i + 1; j < fb.close_tok && j < toks.size(); ++j) {
        if (toks[j].text == "<") ++depth;
        else if (toks[j].text == ">") { if (--depth == 0) break; }
        else if (depth == 1 && toks[j].text == ",") break;
        else if (depth == 1 && toks[j].kind == Tok::kIdent) last = toks[j].text;
      }
      if (!last.empty()) out.push_back(CallSite{t.line, i, last, ""});
      continue;
    }
    if (next.text != "(") continue;
    if (is_non_callee_keyword(t.text)) continue;
    const Tok* prev = (i > 0) ? &toks[i - 1] : nullptr;
    if (prev && (prev->text == "." || prev->text == "->") && is_opaque_member(t.text)) {
      continue;
    }
    if (prev && prev->text == "::" && i >= 2 && toks[i - 2].kind == Tok::kIdent) {
      // `std::min(a, b)` must not fall through the resolution chain onto a
      // same-named member (Histogram::min, say) — std is never a project
      // qualifier, so the call is opaque.
      if (toks[i - 2].text == "std") continue;
      out.push_back(CallSite{t.line, i, t.text, toks[i - 2].text});
      continue;
    }
    if (prev && prev->kind == Tok::kIdent && !is_non_callee_keyword(prev->text)) {
      // `Type var(args)` declaration: the call this makes is Type's
      // constructor, and `var` itself is not a callee.
      out.push_back(CallSite{t.line, i, prev->text, ""});
      continue;
    }
    out.push_back(CallSite{t.line, i, t.text, ""});
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Graph construction + resolution.
// ---------------------------------------------------------------------------

std::vector<std::size_t> CallGraph::resolve(const FuncDef& caller, const CallSite& cs) const {
  auto it = by_name.find(cs.name);
  if (it == by_name.end()) return {};
  const std::vector<std::size_t>& cands = it->second;
  if (!cs.qual_hint.empty()) {
    std::vector<std::size_t> hinted;
    const std::string want = cs.qual_hint + "::" + cs.name;
    for (std::size_t d : cands) {
      const std::string& q = defs[d].body.qual;
      if (q == want || (q.size() >= want.size() + 2 &&
                        q.compare(q.size() - want.size() - 2, 2, "::") == 0 &&
                        q.compare(q.size() - want.size(), want.size(), want) == 0)) {
        hinted.push_back(d);
      }
    }
    if (!hinted.empty()) return hinted;
  }
  // Same-class members: caller `A::f` calling `g` prefers `A::g`.
  const std::string& cq = caller.body.qual;
  std::size_t sep = cq.rfind("::");
  if (sep != std::string::npos) {
    const std::string cls = cq.substr(0, sep);
    std::vector<std::size_t> same_class;
    for (std::size_t d : cands) {
      const std::string& q = defs[d].body.qual;
      std::size_t s2 = q.rfind("::");
      if (s2 != std::string::npos && q.compare(0, s2, cls) == 0) same_class.push_back(d);
    }
    if (!same_class.empty()) return same_class;
  }
  std::vector<std::size_t> same_file;
  for (std::size_t d : cands) {
    if (defs[d].file == caller.file) same_file.push_back(d);
  }
  if (!same_file.empty()) return same_file;
  return cands;  // conservative over-approximation: every def with the name
}

CallGraph build_call_graph(
    const std::vector<std::pair<std::string, std::string>>& files) {
  CallGraph cg;
  for (const auto& [raw_path, content] : files) {
    const std::string path = normalize_path(raw_path);
    if (!path_under(path, "src")) continue;
    FileCtx fc;
    fc.path = path;
    fc.lx = lex(content);
    const std::vector<FuncBody> funcs = function_bodies(fc.lx);
    const std::size_t file_idx = cg.files.size();
    for (const FuncBody& fb : funcs) {
      FuncDef def;
      def.file = file_idx;
      def.body = fb;
      def.params = extract_params(fc.lx, fb);
      def.calls = extract_calls(fc.lx, fb);
      cg.by_name[fb.name].push_back(cg.defs.size());
      cg.defs.push_back(std::move(def));
    }
    cg.files.push_back(std::move(fc));
  }
  // External-call census: sites whose name resolves to no scanned def.
  for (const FuncDef& def : cg.defs) {
    for (const CallSite& cs : def.calls) {
      if (cg.by_name.find(cs.name) == cg.by_name.end()) ++cg.external_calls;
    }
  }
  return cg;
}

// ---------------------------------------------------------------------------
// hotpath_allow.toml.
// ---------------------------------------------------------------------------

bool parse_shard_manifest(const std::string& text, ShardManifest& out, std::string& error) {
  out = ShardManifest{};
  bool in_allow = false;
  std::size_t lineno = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    std::string line = text.substr(start, end == std::string::npos ? std::string::npos
                                                                   : end - start);
    start = (end == std::string::npos) ? text.size() + 1 : end + 1;
    ++lineno;
    // Strip a '#' comment outside quotes.
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '"') quoted = !quoted;
      if (line[i] == '#' && !quoted) {
        line = line.substr(0, i);
        break;
      }
    }
    line = trim(line);
    if (line.empty()) continue;
    auto fail = [&](const std::string& why) {
      error = "line " + std::to_string(lineno) + ": " + why;
      return false;
    };
    if (line.front() == '[') {
      if (line.back() != ']') return fail("malformed section header");
      const std::string section = trim(line.substr(1, line.size() - 2));
      if (section != "allow") {
        return fail("unknown section '" + section + "' (expected [allow])");
      }
      in_allow = true;
      continue;
    }
    if (!in_allow) return fail("entry outside the [allow] section");
    std::size_t eq = line.find('=');
    if (eq == std::string::npos) return fail("expected `key = value`");
    std::string key = trim(line.substr(0, eq));
    std::string val = trim(line.substr(eq + 1));
    if (key.size() >= 2 && key.front() == '"' && key.back() == '"') {
      key = key.substr(1, key.size() - 2);
    }
    if (val.size() < 2 || val.front() != '"' || val.back() != '"') {
      return fail("allow entry '" + key + "' needs a quoted justification");
    }
    std::string just = val.substr(1, val.size() - 2);
    if (trim(just).empty()) {
      return fail("allow entry '" + key + "' needs a non-empty justification");
    }
    out.allows.emplace_back(key, trim(just));
  }
  return true;
}

namespace {

// ---------------------------------------------------------------------------
// Reachability.
// ---------------------------------------------------------------------------

/// Reachability wave recording each reached definition's parent and root.
struct Reach {
  std::vector<std::size_t> parent;  // def index, kNpos at roots
  std::vector<std::size_t> root;    // root def index
  std::vector<char> vis;
  std::size_t allowed_skips = 0;
};

Reach reach_from(const CallGraph& cg, const std::vector<std::size_t>& roots,
                 const std::set<std::size_t>& allowed) {
  Reach r;
  r.parent.assign(cg.defs.size(), kNpos);
  r.root.assign(cg.defs.size(), kNpos);
  r.vis.assign(cg.defs.size(), 0);
  std::deque<std::size_t> q;
  for (std::size_t root : roots) {
    if (r.vis[root]) continue;
    r.vis[root] = 1;
    r.root[root] = root;
    q.push_back(root);
  }
  while (!q.empty()) {
    std::size_t d = q.front();
    q.pop_front();
    for (const CallSite& cs : cg.defs[d].calls) {
      for (std::size_t cal : cg.resolve(cg.defs[d], cs)) {
        if (allowed.count(cal)) {
          ++r.allowed_skips;
          continue;
        }
        if (r.vis[cal]) continue;
        r.vis[cal] = 1;
        r.parent[cal] = d;
        r.root[cal] = r.root[d];
        q.push_back(cal);
      }
    }
  }
  return r;
}

/// " -> "-joined qualified names from `d`'s root down to `d` (capped depth).
std::string call_path(const CallGraph& cg, const Reach& r, std::size_t d) {
  std::vector<std::string> chain;
  for (std::size_t i = d; i != kNpos; i = r.parent[i]) {
    chain.push_back(cg.defs[i].body.qual);
    if (chain.size() > 24) {
      chain.push_back("...");
      break;
    }
  }
  std::reverse(chain.begin(), chain.end());
  std::string out;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (i) out += " -> ";
    out += chain[i];
  }
  return out;
}

void add(std::vector<Finding>& out, const std::string& file, std::size_t line,
         const char* rule, std::string msg) {
  Finding f;
  f.file = file;
  f.line = line;
  f.rule = rule;
  f.message = std::move(msg);
  out.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// T2 flow helpers.
// ---------------------------------------------------------------------------

/// Token index of the first validation call in a body, or kNpos.
std::size_t first_validation_tok(const Lexed& lx, const FuncBody& fb) {
  for (std::size_t i = fb.open_tok; i <= fb.close_tok && i < lx.toks.size(); ++i) {
    if (lx.toks[i].kind == Tok::kIdent && is_validation_ident(lx.toks[i].text)) return i;
  }
  return kNpos;
}

/// Zero-based argument positions at call site `cs` whose expression
/// mentions identifier `name`.
std::vector<std::size_t> arg_positions_mentioning(const Lexed& lx, const CallSite& cs,
                                                  const std::string& name) {
  const std::vector<Tok>& toks = lx.toks;
  std::vector<std::size_t> out;
  std::size_t lp = cs.tok + 1;
  while (lp < toks.size() && toks[lp].text != "(") ++lp;  // make_unique<T>(...)
  if (lp >= toks.size()) return out;
  int depth = 0;
  std::size_t arg = 0;
  bool mentioned = false;
  for (std::size_t j = lp; j < toks.size(); ++j) {
    const std::string& x = toks[j].text;
    if (x == "(" || x == "[" || x == "{") {
      ++depth;
      continue;
    }
    if (x == ")" || x == "]" || x == "}") {
      if (--depth == 0) break;
      continue;
    }
    if (depth == 1 && x == ",") {
      if (mentioned) out.push_back(arg);
      mentioned = false;
      ++arg;
      continue;
    }
    if (toks[j].kind == Tok::kIdent && x == name) mentioned = true;
  }
  if (mentioned) out.push_back(arg);
  return out;
}

/// First pre-validation byte read of parameter `pname` in `def`'s body:
/// sets *line and *how. Mirrors T1's read forms.
bool first_byte_read(const CallGraph& cg, const FuncDef& def, const std::string& pname,
                     std::size_t* line, std::string* how) {
  const Lexed& lx = cg.files[def.file].lx;
  const std::vector<Tok>& toks = lx.toks;
  const std::size_t valid = first_validation_tok(lx, def.body);
  for (std::size_t i = def.body.open_tok; i <= def.body.close_tok && i < toks.size(); ++i) {
    if (valid != kNpos && i >= valid) break;
    const Tok& t = toks[i];
    if (t.kind != Tok::kIdent) continue;
    if (t.text == pname) {
      const Tok* n1 = (i + 1 < toks.size()) ? &toks[i + 1] : nullptr;
      const Tok* n2 = (i + 2 < toks.size()) ? &toks[i + 2] : nullptr;
      if (n1 && n1->text == "[") {
        *line = t.line;
        *how = "indexing";
        return true;
      }
      if (n1 && (n1->text == "." || n1->text == "->") && n2 && n2->kind == Tok::kIdent &&
          is_byte_read_member(n2->text)) {
        *line = t.line;
        *how = "." + n2->text + "()";
        return true;
      }
      continue;
    }
    if ((t.text == "memcpy" || t.text == "memmove" || t.text == "memcmp") &&
        i + 1 < toks.size() && toks[i + 1].text == "(") {
      int pdepth = 0;
      for (std::size_t j = i + 1; j <= def.body.close_tok && j < toks.size(); ++j) {
        if (toks[j].text == "(") ++pdepth;
        if (toks[j].text == ")" && --pdepth == 0) break;
        if (toks[j].kind == Tok::kIdent && toks[j].text == pname) {
          *line = t.line;
          *how = t.text + " over the buffer";
          return true;
        }
      }
    }
  }
  return false;
}

struct T2Hit {
  std::size_t def = kNpos;
  std::size_t line = 0;
  std::string how;
  std::vector<std::string> flow;  // qualified names, source first
};

/// DFS: does `def` read the bytes of its parameter `pname` before its own
/// validation point, directly or by handing it to another helper?
bool t2_trace(const CallGraph& cg, std::size_t di, const std::string& pname, int depth,
              std::set<std::pair<std::size_t, std::string>>& visiting, T2Hit* hit) {
  if (depth > 8 || pname.empty()) return false;
  if (!visiting.insert({di, pname}).second) return false;  // recursion cycle
  const FuncDef& def = cg.defs[di];
  const FileCtx& fc = cg.files[def.file];
  if (!in_taint_scope(fc.path)) return false;
  // `payload` parameters are T1's jurisdiction already — no duplicate report.
  if (pname == "payload") return false;
  std::size_t line = 0;
  std::string how;
  if (first_byte_read(cg, def, pname, &line, &how)) {
    hit->def = di;
    hit->line = line;
    hit->how = how;
    hit->flow.push_back(def.body.qual);
    return true;
  }
  const std::size_t valid = first_validation_tok(fc.lx, def.body);
  for (const CallSite& cs : def.calls) {
    if (valid != kNpos && cs.tok >= valid) continue;
    if (is_validation_ident(cs.name)) continue;
    const std::vector<std::size_t> positions = arg_positions_mentioning(fc.lx, cs, pname);
    if (positions.empty()) continue;
    for (std::size_t cal : cg.resolve(def, cs)) {
      const FuncDef& callee = cg.defs[cal];
      for (std::size_t pos : positions) {
        if (pos >= callee.params.size()) continue;
        if (t2_trace(cg, cal, callee.params[pos], depth + 1, visiting, hit)) {
          hit->flow.push_back(def.body.qual);
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// The combined pass.
// ---------------------------------------------------------------------------

std::vector<Finding> check_callgraph(const CallGraph& cg, const ShardManifest* manifest,
                                     const std::string& manifest_path,
                                     CallGraphStats* stats) {
  std::vector<Finding> out;

  // Roots from inline hotpath markers. Marker resolution errors are P1's
  // job (check_p1 reports them per file).
  std::set<std::size_t> hotpath_marked;
  for (std::size_t fi = 0, base = 0; fi < cg.files.size(); ++fi) {
    std::vector<FuncBody> funcs;
    for (std::size_t d = base; d < cg.defs.size() && cg.defs[d].file == fi; ++d) {
      funcs.push_back(cg.defs[d].body);
    }
    for (const Marker& m : parse_markers(cg.files[fi].lx)) {
      std::string err;
      const std::size_t local = resolve_marker(m, funcs, &err);
      if (local != kNpos) hotpath_marked.insert(base + local);
    }
    base += funcs.size();
  }

  // Traversal stops from the manifest's [allow] section.
  std::set<std::size_t> allowed;
  if (manifest) {
    for (const auto& [name, just] : manifest->allows) {
      (void)just;
      bool any = false;
      for (std::size_t d = 0; d < cg.defs.size(); ++d) {
        if (marker_name_matches(name, cg.defs[d].body)) {
          allowed.insert(d);
          any = true;
        }
      }
      if (!any) {
        add(out, manifest_path, 0, "P2",
            "hotpath-allow manifest entry '" + name +
                "' matches no function definition in the scanned set; remove the stale "
                "entry");
      }
    }
  }

  // P2: the P1 discipline, propagated from every hotpath-marked function to
  // everything it can reach. The marked bodies themselves are P1's.
  const std::vector<std::size_t> p2_roots(hotpath_marked.begin(), hotpath_marked.end());
  const Reach p2 = reach_from(cg, p2_roots, allowed);
  std::size_t p2_reachable = 0;
  std::set<std::pair<std::string, std::size_t>> p2_seen;
  for (std::size_t d = 0; d < cg.defs.size(); ++d) {
    if (!p2.vis[d]) continue;
    ++p2_reachable;
    if (hotpath_marked.count(d)) continue;
    const FuncDef& def = cg.defs[d];
    const FileCtx& fc = cg.files[def.file];
    for (const HotpathViolation& v : hotpath_violations(fc.lx, def.body)) {
      if (!p2_seen.insert({fc.path, v.line}).second) continue;
      add(out, fc.path, v.line, "P2",
          v.what + " in function '" + def.body.qual + "' reachable from hotpath '" +
              cg.defs[p2.root[d]].body.qual + "' (call path: " + call_path(cg, p2, d) +
              "); the per-message path must not allocate, unwind, or type-erase");
    }
  }

  // T2: payload bytes handed to helpers before validation.
  std::set<std::pair<std::string, std::size_t>> t2_seen;
  for (std::size_t d = 0; d < cg.defs.size(); ++d) {
    const FuncDef& def = cg.defs[d];
    const FileCtx& fc = cg.files[def.file];
    if (!in_taint_scope(fc.path)) continue;
    if (allowed.count(d)) continue;
    const std::size_t valid = first_validation_tok(fc.lx, def.body);
    for (const CallSite& cs : def.calls) {
      if (valid != kNpos && cs.tok >= valid) continue;
      if (is_validation_ident(cs.name)) continue;
      const std::vector<std::size_t> positions =
          arg_positions_mentioning(fc.lx, cs, "payload");
      if (positions.empty()) continue;
      for (std::size_t cal : cg.resolve(def, cs)) {
        const FuncDef& callee = cg.defs[cal];
        if (allowed.count(cal)) continue;
        for (std::size_t pos : positions) {
          if (pos >= callee.params.size()) continue;
          T2Hit hit;
          std::set<std::pair<std::size_t, std::string>> visiting;
          visiting.insert({d, "payload"});
          if (!t2_trace(cg, cal, callee.params[pos], 1, visiting, &hit)) continue;
          const FileCtx& hit_fc = cg.files[cg.defs[hit.def].file];
          if (!t2_seen.insert({hit_fc.path, hit.line}).second) continue;
          hit.flow.push_back(def.body.qual);
          std::reverse(hit.flow.begin(), hit.flow.end());
          std::string flow;
          for (std::size_t i = 0; i < hit.flow.size(); ++i) {
            if (i) flow += " -> ";
            flow += hit.flow[i];
          }
          add(out, hit_fc.path, hit.line, "T2",
              "function '" + cg.defs[hit.def].body.qual +
                  "' reads adversarial payload bytes (" + hit.how +
                  ") before validation; the payload was handed off unvalidated along " +
                  flow +
                  " — validate at the boundary or move the read behind a "
                  "deserialize/validate call");
        }
      }
    }
  }

  if (stats) {
    stats->functions = cg.defs.size();
    std::size_t edges = 0;
    for (const FuncDef& def : cg.defs) {
      for (const CallSite& cs : def.calls) edges += cg.resolve(def, cs).size();
    }
    stats->call_edges = edges;
    stats->external_calls = cg.external_calls;
    stats->hotpath_funcs = hotpath_marked.size();
    stats->hotpath_reachable = p2_reachable;
    stats->allowed_skips = p2.allowed_skips;
  }
  return out;
}

}  // namespace srds::lint
