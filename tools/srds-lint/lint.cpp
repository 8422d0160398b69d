#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <set>
#include <tuple>

#include "callgraph.hpp"
#include "graph.hpp"
#include "lex.hpp"
#include "taint.hpp"

namespace srds::lint {

namespace {

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

struct Suppression {
  std::string rule;
  std::size_t comment_line = 0;
  std::size_t target_line = 0;  // line the suppression covers
  std::string justification;
  bool valid = false;  // known rule + non-empty justification
};

std::vector<Suppression> parse_suppressions(const Lexed& lx) {
  std::vector<Suppression> out;
  for (const Comment& c : lx.comments) {
    std::size_t pos = c.text.find("srds-lint:");
    if (pos == std::string::npos) continue;
    std::size_t a = c.text.find("allow(", pos);
    if (a == std::string::npos) continue;
    std::size_t close = c.text.find(')', a);
    if (close == std::string::npos) continue;
    Suppression sup;
    sup.rule = trim(c.text.substr(a + 6, close - (a + 6)));
    sup.comment_line = c.line;
    // Mandatory justification: "): <text>".
    std::size_t j = close + 1;
    if (j < c.text.size() && c.text[j] == ':') {
      sup.justification = trim(c.text.substr(j + 1));
    }
    sup.valid = find_rule(sup.rule) != nullptr && !sup.justification.empty();
    // Trailing comment covers its own line; a comment-only line covers the
    // next line that carries code.
    if (lx.code_lines.count(c.line)) {
      sup.target_line = c.line;
    } else {
      auto it = lx.code_lines.upper_bound(c.line);
      sup.target_line = (it == lx.code_lines.end()) ? 0 : *it;
    }
    out.push_back(std::move(sup));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule checks. Each takes the lexed file and appends raw findings (before
// severity/suppression post-processing). One function per invariant — new
// per-file rules slot in here; cross-TU passes live in graph.cpp, the
// taint/hot-path passes in taint.cpp.
// ---------------------------------------------------------------------------

void add(std::vector<Finding>& out, const std::string& file, std::size_t line,
         const char* rule, std::string msg) {
  Finding f;
  f.file = file;
  f.line = line;
  f.rule = rule;
  f.message = std::move(msg);
  out.push_back(std::move(f));
}

void check_d1(const std::string& path, const Lexed& lx, std::vector<Finding>& out) {
  const bool rng_home = path_under(path, "src/common") &&
                        path.find("/rng.") != std::string::npos;
  const bool proto = in_protocol_dir(path);
  static const std::set<std::string> kBannedCalls = {"rand", "srand", "time", "clock",
                                                     "gettimeofday"};
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  static const std::set<std::string> kRngEngines = {
      "mt19937",  "mt19937_64", "minstd_rand",   "minstd_rand0",  "default_random_engine",
      "knuth_b",  "ranlux24",   "ranlux48",      "ranlux24_base", "ranlux48_base"};
  for (std::size_t i = 0; i < lx.toks.size(); ++i) {
    const Tok& t = lx.toks[i];
    if (t.kind != Tok::kIdent) continue;
    const Tok* prev = i ? &lx.toks[i - 1] : nullptr;
    const Tok* next = (i + 1 < lx.toks.size()) ? &lx.toks[i + 1] : nullptr;
    const bool member_access = prev && (prev->text == "." || prev->text == "->");
    if (!rng_home) {
      if (kBannedCalls.count(t.text) && next && next->text == "(" && !member_access) {
        add(out, path, t.line, "D1",
            t.text + "() reads a nondeterminism source; derive from the run seed via "
                     "src/common/rng instead");
        continue;
      }
      if (t.text == "random_device") {
        add(out, path, t.line, "D1",
            "std::random_device outside src/common/rng breaks seed-reproducibility");
        continue;
      }
      if (kRngEngines.count(t.text) && !member_access) {
        add(out, path, t.line, "D1",
            "std " + t.text + " engine outside src/common/rng: randomness must come "
                              "from the run seed's chain, not a locally seeded engine");
        continue;
      }
      if (t.text == "system_clock") {
        add(out, path, t.line, "D1",
            "chrono::system_clock is wall-clock time; protocol state must depend only "
            "on the run seed");
        continue;
      }
    }
    if (proto && kUnordered.count(t.text)) {
      add(out, path, t.line, "D1",
          t.text + " in protocol code: hash-table iteration order is unspecified and "
                   "would leak into message order; use std::map/std::set or a sorted "
                   "vector");
    }
  }
  if (proto) {
    for (const PpDirective& d : lx.directives) {
      if (d.text.find("include") == std::string::npos) continue;
      if (d.text.find("unordered_") != std::string::npos) {
        add(out, path, d.line, "D1",
            "unordered container include in protocol code; use <map>/<set> or sorted "
            "vectors");
      }
    }
  }
}

void check_b1(const std::string& path, const Lexed& lx, std::vector<Finding>& out) {
  if (path_under(path, "src/net")) return;  // the simulator API layer itself
  if (path == "src/common/message.hpp") return;  // the factory's own home
  for (std::size_t i = 0; i + 1 < lx.toks.size(); ++i) {
    const Tok& t = lx.toks[i];
    if (t.kind != Tok::kIdent || t.text != "Message") continue;
    const std::string& nxt = lx.toks[i + 1].text;
    if (nxt == "{" || nxt == "(") {
      add(out, path, t.line, "B1",
          "raw Message construction outside src/net; use make_msg (common/message.hpp) "
          "so the MsgKind tag and byte accounting stay explicit");
    }
  }
}

void check_s1(const std::string& path, const Lexed& lx, const Config& cfg,
              std::vector<Finding>& out) {
  struct Scope {
    std::string name;
    std::size_t name_line = 0;
    int open_depth = 0;
    std::size_t serialize_line = 0;
    bool has_serialize = false;
    bool has_deserialize = false;
  };
  std::vector<Scope> stack;
  int depth = 0;

  // Pending class-head state: saw struct/class + name, scanning for '{'.
  bool pending = false;
  Scope pend;

  auto finalize = [&](const Scope& sc) {
    if (sc.has_serialize && !sc.has_deserialize) {
      add(out, path, sc.serialize_line, "S1",
          "type '" + sc.name + "' declares serialize() without a matching deserialize()");
    } else if (sc.has_serialize && sc.has_deserialize && !cfg.test_corpus.empty() &&
               cfg.test_corpus.find(sc.name) == std::string::npos) {
      add(out, path, sc.name_line, "S1",
          "serializable type '" + sc.name +
              "' has no round-trip test reference in the test corpus");
    }
  };

  for (std::size_t i = 0; i < lx.toks.size(); ++i) {
    const Tok& t = lx.toks[i];
    if (pending) {
      if (t.text == "{") {
        // Class body opens: this really is a type definition.
        pending = false;
        ++depth;
        pend.open_depth = depth;
        stack.push_back(pend);
        continue;
      }
      // Tokens that may appear in a class head (final, base clause,
      // template arguments). Anything else means this was a forward
      // declaration, an elaborated-type use, a function, an alias... —
      // cancel and let the token fall through to generic handling.
      const bool head_token = t.kind == Tok::kIdent || t.kind == Tok::kNum ||
                              t.text == ":" || t.text == "::" || t.text == "<" ||
                              t.text == ">" || t.text == ",";
      if (head_token) continue;
      pending = false;  // fall through
    }
    if (t.kind == Tok::kIdent && (t.text == "struct" || t.text == "class")) {
      const Tok* prev = i ? &lx.toks[i - 1] : nullptr;
      if (prev && prev->kind == Tok::kIdent && prev->text == "enum") continue;
      if (i + 1 < lx.toks.size() && lx.toks[i + 1].kind == Tok::kIdent) {
        pend = Scope{};
        pend.name = lx.toks[i + 1].text;
        pend.name_line = lx.toks[i + 1].line;
        pending = true;
        ++i;  // consume the name
      }
      continue;
    }
    if (t.text == "{") {
      ++depth;
      continue;
    }
    if (t.text == "}") {
      if (!stack.empty() && stack.back().open_depth == depth) {
        finalize(stack.back());
        stack.pop_back();
      }
      if (depth > 0) --depth;
      continue;
    }
    if (t.kind == Tok::kIdent && (t.text == "serialize" || t.text == "deserialize") &&
        !stack.empty() && depth == stack.back().open_depth) {
      const Tok* prev = i ? &lx.toks[i - 1] : nullptr;
      const Tok* next = (i + 1 < lx.toks.size()) ? &lx.toks[i + 1] : nullptr;
      if (next && next->text == "(" && !(prev && (prev->text == "." || prev->text == "->"))) {
        if (t.text == "serialize") {
          stack.back().has_serialize = true;
          stack.back().serialize_line = t.line;
        } else {
          stack.back().has_deserialize = true;
        }
      }
      continue;
    }
  }
  while (!stack.empty()) {  // unbalanced braces: finalize what we saw
    finalize(stack.back());
    stack.pop_back();
  }
}

void check_h1(const std::string& path, const Lexed& lx, std::vector<Finding>& out) {
  if (!is_header_path(path)) return;
  // Guard: the first directive must be `#pragma once`, or an
  // `#ifndef X` / `#define X` pair.
  bool guarded = false;
  for (const PpDirective& d : lx.directives) {
    if (d.text.find("pragma") != std::string::npos &&
        d.text.find("once") != std::string::npos) {
      guarded = true;
      break;
    }
  }
  if (!guarded && lx.directives.size() >= 2) {
    const std::string& a = lx.directives[0].text;
    const std::string& b = lx.directives[1].text;
    guarded = a.find("ifndef") != std::string::npos && b.find("define") != std::string::npos;
  }
  if (!guarded) {
    add(out, path, 1, "H1", "header lacks #pragma once (or an include guard)");
  }
  for (std::size_t i = 0; i + 1 < lx.toks.size(); ++i) {
    if (lx.toks[i].kind == Tok::kIdent && lx.toks[i].text == "using" &&
        lx.toks[i + 1].kind == Tok::kIdent && lx.toks[i + 1].text == "namespace") {
      add(out, path, lx.toks[i].line, "H1",
          "'using namespace' in a header leaks the namespace into every includer");
    }
  }
}

void sort_findings(std::vector<Finding>& all) {
  std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Rule table & engine plumbing.
// ---------------------------------------------------------------------------

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kOff: return "off";
    case Severity::kWarn: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"D1", "nondeterminism source in protocol code", Severity::kError},
      {"B1", "raw Message construction outside the network layer", Severity::kError},
      {"S1", "serialize without matching deserialize / round-trip test", Severity::kError},
      {"H1", "header hygiene (#pragma once, no using-namespace)", Severity::kError},
      {"L1", "include edge violating the layers.toml module DAG", Severity::kError},
      {"T1", "payload-byte read without prior deserialize/validate", Severity::kError},
      {"P1", "throw/new/std::function inside a hotpath-marked function", Severity::kError},
      {"P2", "hot-path violation reachable from a hotpath function", Severity::kError},
      {"T2", "unvalidated payload bytes flowing through helpers", Severity::kError},
      {"A0", "malformed srds-lint suppression", Severity::kError},
  };
  return kRules;
}

const RuleInfo* find_rule(const std::string& id) {
  for (const RuleInfo& r : rules()) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

Severity Config::severity_of(const std::string& rule) const {
  for (const auto& [id, sev] : overrides) {
    if (id == rule) return sev;
  }
  const RuleInfo* r = find_rule(rule);
  return r ? r->default_severity : Severity::kError;
}

std::vector<Finding> lint_file(const std::string& raw_path, const std::string& content,
                               const Config& cfg) {
  const std::string path = normalize_path(raw_path);

  // Per-file rules are protocol-code rules: they apply to src/ only. Files
  // outside it (tests building adversarial raw Messages, bench drivers, the
  // linter's own sources, whose doc comments *mention* markers) still join
  // the scan set for the cross-TU L1 graph, but carry none of the per-file
  // obligations.
  if (!path_under(path, "src")) return {};
  const Lexed lx = lex(content);

  std::vector<Finding> raw;
  check_d1(path, lx, raw);
  check_b1(path, lx, raw);
  check_s1(path, lx, cfg, raw);
  check_h1(path, lx, raw);
  check_t1(path, lx, raw);
  check_p1(path, lx, raw);

  // Apply suppressions; malformed ones become A0 findings and keep the
  // original finding alive.
  const std::vector<Suppression> sups = parse_suppressions(lx);
  for (const Suppression& s : sups) {
    if (s.valid) {
      for (Finding& f : raw) {
        if (f.rule == s.rule && f.line == s.target_line) {
          f.suppressed = true;
          f.justification = s.justification;
        }
      }
    } else {
      std::string why = find_rule(s.rule) == nullptr
                            ? "unknown rule '" + s.rule + "'"
                            : "missing justification (write `srds-lint: allow(" + s.rule +
                                  "): <why this is safe>`)";
      add(raw, path, s.comment_line, "A0", "malformed suppression: " + why);
    }
  }

  // Severity resolution; kOff findings vanish.
  std::vector<Finding> out;
  for (Finding& f : raw) {
    Severity sev = cfg.severity_of(f.rule);
    if (sev == Severity::kOff) continue;
    f.severity = sev;
    out.push_back(std::move(f));
  }
  return out;
}

std::vector<Finding> lint_files(
    const std::vector<std::pair<std::string, std::string>>& files, const Config& cfg,
    CallGraphStats* cg_stats) {
  std::vector<Finding> all;
  for (const auto& [path, content] : files) {
    std::vector<Finding> fs = lint_file(path, content, cfg);
    all.insert(all.end(), std::make_move_iterator(fs.begin()),
               std::make_move_iterator(fs.end()));
  }

  // Call-graph passes (P2/T2 interprocedural hotpath and taint). Roots
  // come from inline hotpath markers, traversal stops from the
  // hotpath_allow.toml manifest when given; inline suppressions apply to
  // the cross-TU findings exactly as to per-file ones.
  {
    std::vector<Finding> raw;
    ShardManifest manifest;
    const ShardManifest* mptr = nullptr;
    if (!cfg.shard_manifest.empty()) {
      std::string error;
      if (!parse_shard_manifest(cfg.shard_manifest, manifest, error)) {
        Finding f;
        f.file = normalize_path(cfg.shard_manifest_path);
        f.line = 0;
        f.rule = "P2";
        f.message = "bad hotpath-allow manifest: " + error;
        raw.push_back(std::move(f));
      } else {
        mptr = &manifest;
      }
    }
    const CallGraph cg = build_call_graph(files);
    std::vector<Finding> cgf = check_callgraph(
        cg, mptr, normalize_path(cfg.shard_manifest_path), cg_stats);
    raw.insert(raw.end(), std::make_move_iterator(cgf.begin()),
               std::make_move_iterator(cgf.end()));

    std::map<std::string, std::vector<Suppression>> sups_by_file;
    for (const FileCtx& fc : cg.files) sups_by_file[fc.path] = parse_suppressions(fc.lx);
    for (Finding& f : raw) {
      auto it = sups_by_file.find(f.file);
      if (it != sups_by_file.end()) {
        for (const Suppression& s : it->second) {
          if (s.valid && s.rule == f.rule && s.target_line == f.line) {
            f.suppressed = true;
            f.justification = s.justification;
          }
        }
      }
      Severity sev = cfg.severity_of(f.rule);
      if (sev == Severity::kOff) continue;
      f.severity = sev;
      all.push_back(std::move(f));
    }
  }

  // Cross-TU layering pass. L1 has no inline suppression (kept back-edges
  // are declared in the manifest itself), so its findings only go through
  // severity resolution.
  if (!cfg.layers_manifest.empty()) {
    std::vector<Finding> raw;
    LayerManifest manifest;
    std::string error;
    if (!parse_layers(cfg.layers_manifest, manifest, error)) {
      Finding f;
      f.file = normalize_path(cfg.layers_manifest_path);
      f.line = 0;
      f.rule = "L1";
      f.message = "bad layers manifest: " + error;
      raw.push_back(std::move(f));
    } else {
      raw = check_layers(build_dep_graph(files), manifest);
    }
    for (Finding& f : raw) {
      Severity sev = cfg.severity_of(f.rule);
      if (sev == Severity::kOff) continue;
      f.severity = sev;
      all.push_back(std::move(f));
    }
  }

  sort_findings(all);
  return all;
}

bool has_blocking(const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    if (!f.suppressed && f.severity == Severity::kError) return true;
  }
  return false;
}

obs::Json findings_json(const std::vector<Finding>& findings, std::size_t files_scanned,
                        const obs::Json* stats) {
  std::size_t errors = 0, warnings = 0, suppressed = 0;
  obs::Json arr = obs::Json::array();
  for (const Finding& f : findings) {
    if (f.suppressed) {
      ++suppressed;
    } else if (f.severity == Severity::kError) {
      ++errors;
    } else {
      ++warnings;
    }
    obs::Json j = obs::Json::object();
    j.set("file", f.file);
    j.set("line", static_cast<unsigned long long>(f.line));
    j.set("rule", f.rule);
    j.set("severity", severity_name(f.severity));
    j.set("message", f.message);
    j.set("suppressed", f.suppressed);
    if (f.suppressed) j.set("justification", f.justification);
    arr.push_back(std::move(j));
  }
  obs::Json summary = obs::Json::object();
  summary.set("files", static_cast<unsigned long long>(files_scanned));
  summary.set("errors", static_cast<unsigned long long>(errors));
  summary.set("warnings", static_cast<unsigned long long>(warnings));
  summary.set("suppressed", static_cast<unsigned long long>(suppressed));

  obs::Json out = obs::Json::object();
  out.set("tool", "srds-lint");
  out.set("schema", 2);
  out.set("summary", std::move(summary));
  out.set("findings", std::move(arr));
  if (stats) out.set("stats", *stats);
  return out;
}

std::string human_report(const std::vector<Finding>& findings, std::size_t files_scanned,
                         bool verbose_suppressed) {
  std::string out;
  std::size_t errors = 0, warnings = 0, suppressed = 0;
  for (const Finding& f : findings) {
    if (f.suppressed) {
      ++suppressed;
      if (verbose_suppressed) {
        out += f.file + ":" + std::to_string(f.line) + ": suppressed: [" + f.rule + "] " +
               f.message + " (justification: " + f.justification + ")\n";
      }
      continue;
    }
    (f.severity == Severity::kError ? errors : warnings) += 1;
    out += f.file + ":" + std::to_string(f.line) + ": " + severity_name(f.severity) +
           ": [" + f.rule + "] " + f.message + "\n";
  }
  out += "srds-lint: " + std::to_string(files_scanned) + " files, " +
         std::to_string(errors) + " errors, " + std::to_string(warnings) + " warnings, " +
         std::to_string(suppressed) + " suppressed\n";
  return out;
}

}  // namespace srds::lint
