// srds-lint CLI. Scans C++ sources for protocol-invariant violations.
//
// Usage:
//   srds-lint [options] [<file-or-dir>...]
//     --json FILE          write the machine-readable findings artifact
//                          (--json-out is accepted as an alias; parent
//                          directories are created as needed)
//     --tests-dir DIR      enable the S1 round-trip-reference check against
//                          the test sources under DIR
//     --layers FILE        layers.toml module-DAG manifest; enables the
//                          cross-TU L1 layering pass
//     --hotpath-allow FILE hotpath_allow.toml manifest: the [allow]
//                          escape hatch for the P2/T2 call-graph passes
//                          (inline hotpath markers work without it)
//     --compile-db FILE    compile_commands.json; its translation units
//                          (plus their transitively reachable quoted
//                          includes) join the scan set
//     --dot FILE           export the module dependency graph as Graphviz
//     --severity R=LEVEL   override a rule (LEVEL: error|warn|off); repeatable
//     --show-suppressed    list suppressed findings (with justifications)
//     --list-rules         print the rule table and exit
//     --quiet              summary line only
//
// Exit code: 0 when the gate passes (no unsuppressed error-severity
// findings), 1 otherwise, 2 on usage/IO errors. Paths are reported relative
// to the invocation directory, '/'-separated, so CI output is stable
// across checkouts.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graph.hpp"
#include "lex.hpp"
#include "lint.hpp"
#include "obs/json.hpp"

namespace fs = std::filesystem;

namespace {

bool has_source_ext(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".cpp" || e == ".cc" || e == ".cxx" || e == ".hpp" || e == ".h" ||
         e == ".hh" || e == ".hxx";
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Collect source files under `root` (or `root` itself), sorted for
/// deterministic report and JSON ordering.
bool collect(const fs::path& root, std::vector<fs::path>& out) {
  std::error_code ec;
  if (fs::is_directory(root, ec)) {
    for (fs::recursive_directory_iterator it(root, ec), end; it != end && !ec;
         it.increment(ec)) {
      if (it->is_regular_file(ec) && has_source_ext(it->path())) out.push_back(it->path());
    }
    return !ec;
  }
  if (fs::is_regular_file(root, ec)) {
    out.push_back(root);
    return true;
  }
  return false;
}

bool parse_severity(const std::string& arg, srds::lint::Config& cfg) {
  std::size_t eq = arg.find('=');
  if (eq == std::string::npos) return false;
  const std::string rule = arg.substr(0, eq);
  const std::string level = arg.substr(eq + 1);
  if (!srds::lint::find_rule(rule)) return false;
  srds::lint::Severity sev;
  if (level == "error") {
    sev = srds::lint::Severity::kError;
  } else if (level == "warn" || level == "warning") {
    sev = srds::lint::Severity::kWarn;
  } else if (level == "off") {
    sev = srds::lint::Severity::kOff;
  } else {
    return false;
  }
  cfg.overrides.emplace_back(rule, sev);
  return true;
}

/// Pull every `"file": "<path>"` value out of a compile_commands.json.
/// The compile database is machine-written (one "file" key per entry), so
/// a focused scan beats dragging in a full parser here.
std::vector<std::string> compile_db_files(const std::string& text) {
  std::vector<std::string> out;
  const std::string key = "\"file\"";
  std::size_t pos = 0;
  while ((pos = text.find(key, pos)) != std::string::npos) {
    pos += key.size();
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' || text[pos] == ':')) {
      ++pos;
    }
    if (pos >= text.size() || text[pos] != '"') continue;
    std::string val;
    ++pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) ++pos;
      val.push_back(text[pos]);
      ++pos;
    }
    out.push_back(std::move(val));
  }
  return out;
}

/// Repo-relative '/'-separated path for an absolute or relative one, or ""
/// when it lies outside the invocation directory.
std::string repo_relative(const fs::path& p) {
  std::error_code ec;
  fs::path rel = p.is_absolute() ? fs::proximate(p, fs::current_path(), ec) : p;
  if (ec) return "";
  const std::string s = rel.lexically_normal().generic_string();
  if (s.empty() || s == "." || s.rfind("..", 0) == 0 || fs::path(s).is_absolute()) return "";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string json_path, tests_dir, layers_path, compile_db_path, dot_path;
  std::string hotpath_allow_path;
  bool quiet = false, show_suppressed = false;
  srds::lint::Config cfg;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "srds-lint: " << flag << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--json" || a == "--json-out") {
      json_path = need_value(a.c_str());
    } else if (a == "--tests-dir") {
      tests_dir = need_value("--tests-dir");
    } else if (a == "--layers") {
      layers_path = need_value("--layers");
    } else if (a == "--hotpath-allow") {
      hotpath_allow_path = need_value("--hotpath-allow");
    } else if (a == "--compile-db") {
      compile_db_path = need_value("--compile-db");
    } else if (a == "--dot") {
      dot_path = need_value("--dot");
    } else if (a == "--severity") {
      if (!parse_severity(need_value("--severity"), cfg)) {
        std::cerr << "srds-lint: bad --severity (want RULE=error|warn|off)\n";
        return 2;
      }
    } else if (a == "--list-rules") {
      for (const auto& r : srds::lint::rules()) {
        std::printf("%-4s %-8s %s\n", r.id, srds::lint::severity_name(r.default_severity),
                    r.title);
      }
      return 0;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--show-suppressed") {
      show_suppressed = true;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "srds-lint: unknown option '" << a << "'\n";
      return 2;
    } else {
      roots.push_back(a);
    }
  }
  if (roots.empty() && compile_db_path.empty()) {
    std::cerr << "usage: srds-lint [--json FILE] [--tests-dir DIR] [--layers FILE]\n"
                 "                 [--hotpath-allow FILE] [--compile-db FILE]\n"
                 "                 [--dot FILE] [--severity R=LEVEL]\n"
                 "                 [--show-suppressed] [--list-rules] [--quiet] <path>...\n";
    return 2;
  }

  const auto t_start = std::chrono::steady_clock::now();

  if (!tests_dir.empty()) {
    std::vector<fs::path> test_files;
    if (!collect(tests_dir, test_files)) {
      std::cerr << "srds-lint: cannot read tests dir '" << tests_dir << "'\n";
      return 2;
    }
    std::sort(test_files.begin(), test_files.end());
    for (const fs::path& p : test_files) {
      std::string content;
      if (read_file(p, content)) cfg.test_corpus += content;
    }
  }

  if (!layers_path.empty()) {
    if (!read_file(layers_path, cfg.layers_manifest) || cfg.layers_manifest.empty()) {
      std::cerr << "srds-lint: cannot read layers manifest '" << layers_path << "'\n";
      return 2;
    }
    cfg.layers_manifest_path = repo_relative(fs::path(layers_path));
    if (cfg.layers_manifest_path.empty()) cfg.layers_manifest_path = layers_path;
  }

  if (!hotpath_allow_path.empty()) {
    if (!read_file(hotpath_allow_path, cfg.shard_manifest) || cfg.shard_manifest.empty()) {
      std::cerr << "srds-lint: cannot read hotpath-allow manifest '" << hotpath_allow_path
                << "'\n";
      return 2;
    }
    cfg.shard_manifest_path = repo_relative(fs::path(hotpath_allow_path));
    if (cfg.shard_manifest_path.empty()) cfg.shard_manifest_path = hotpath_allow_path;
  }

  std::vector<fs::path> files;
  for (const std::string& r : roots) {
    if (!collect(fs::path(r), files)) {
      std::cerr << "srds-lint: cannot read '" << r << "'\n";
      return 2;
    }
  }
  if (!compile_db_path.empty()) {
    std::string db;
    if (!read_file(compile_db_path, db)) {
      std::cerr << "srds-lint: cannot read compile database '" << compile_db_path << "'\n";
      return 2;
    }
    for (const std::string& f : compile_db_files(db)) {
      const fs::path p(f);
      if (has_source_ext(p) && !repo_relative(p).empty()) files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<std::pair<std::string, std::string>> inputs;
  std::set<std::string> seen;
  inputs.reserve(files.size());
  for (const fs::path& p : files) {
    std::string rel = repo_relative(p);
    if (rel.empty()) rel = p.lexically_normal().generic_string();
    if (!seen.insert(rel).second) continue;
    std::string content;
    if (!read_file(p, content)) {
      std::cerr << "srds-lint: cannot read '" << p.string() << "'\n";
      return 2;
    }
    inputs.emplace_back(std::move(rel), std::move(content));
  }

  // Close the scan set over quoted includes so the L1 graph sees headers
  // even when the compile database lists only translation units. Includes
  // resolve the way the build does: against src/ and the includer's dir.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string includer = inputs[i].first;
    const srds::lint::Lexed lx = srds::lint::lex(inputs[i].second);
    for (const auto& d : lx.directives) {
      const std::string target = srds::lint::quoted_include_target(d);
      if (target.empty()) continue;
      const fs::path base(includer);
      for (const fs::path& cand :
           {fs::path("src") / target, base.parent_path() / target}) {
        const std::string rel = repo_relative(cand);
        if (rel.empty() || seen.count(rel)) continue;
        std::string content;
        if (!read_file(cand, content)) continue;
        seen.insert(rel);
        inputs.emplace_back(rel, std::move(content));
        break;
      }
    }
  }
  std::sort(inputs.begin(), inputs.end());

  const auto t_io = std::chrono::steady_clock::now();
  srds::lint::CallGraphStats cg_stats;
  const std::vector<srds::lint::Finding> findings =
      srds::lint::lint_files(inputs, cfg, &cg_stats);
  const auto t_lint = std::chrono::steady_clock::now();

  if (!dot_path.empty()) {
    const std::string dot = srds::lint::dep_graph_dot(srds::lint::build_dep_graph(inputs));
    if (!srds::obs::write_text_file(dot_path, dot)) {
      std::cerr << "srds-lint: cannot write '" << dot_path << "'\n";
      return 2;
    }
  }

  if (!quiet) {
    std::fputs(srds::lint::human_report(findings, inputs.size(), show_suppressed).c_str(),
               stdout);
  } else {
    const std::string rep = srds::lint::human_report(findings, inputs.size(), false);
    const std::size_t nl = rep.rfind('\n', rep.size() - 2);
    std::fputs(rep.substr(nl == std::string::npos ? 0 : nl + 1).c_str(), stdout);
  }

  // The stats block: the call-graph census (deterministic counts; the
  // P2/T2 passes ran inside lint_files) and the pass timings, which are
  // wall-clock by nature (steady_clock durations, not time-of-day). Per-rule
  // counts are not repeated here: `findings` and `summary` carry them.
  srds::obs::Json stats = srds::obs::Json::object();
  stats.set("lint_callgraph_functions", cg_stats.functions);
  stats.set("lint_callgraph_call_edges", cg_stats.call_edges);
  stats.set("lint_callgraph_external_calls", cg_stats.external_calls);
  stats.set("lint_callgraph_hotpath_funcs", cg_stats.hotpath_funcs);
  stats.set("lint_callgraph_hotpath_reachable", cg_stats.hotpath_reachable);
  stats.set("lint_callgraph_allowed_skips", cg_stats.allowed_skips);
  const auto ms = [](auto d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  stats.set("lint_pass_ms_io", ms(t_io - t_start));
  stats.set("lint_pass_ms_lint", ms(t_lint - t_io));
  stats.set("lint_pass_ms_total", ms(std::chrono::steady_clock::now() - t_start));

  if (!json_path.empty()) {
    const std::string doc =
        srds::lint::findings_json(findings, inputs.size(), &stats).dump(2) + "\n";
    if (!srds::obs::write_text_file(json_path, doc)) {
      std::cerr << "srds-lint: cannot write '" << json_path << "'\n";
      return 2;
    }
  }

  return srds::lint::has_blocking(findings) ? 1 : 0;
}
