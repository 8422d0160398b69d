// bench-diff CLI — the ratcheting bench-regression gate.
//
// Usage:
//   bench-diff [options] <baseline> <fresh>
//     <baseline>, <fresh>   two BENCH_*.json files, or two directories of
//                           them (the checked-in BENCH_BASELINE/ dir vs a
//                           fresh --json-out run); artifacts pair by file
//                           name in directory mode
//     --threshold PCT       relative change that counts as a regression
//                           (default 10, i.e. 10%). Every row's
//                           allocs_per_op, which repeats exactly, gates on
//                           an absolute 0.5 allocations per op instead
//     --wall-threshold PCT  ALSO gate wall-clock medians (wall.ns_per_op)
//                           from schema-3 artifacts. A wall median
//                           regresses only when it moves beyond
//                           both this threshold and 3x the larger measured
//                           spread of the two runs (noise-aware ratchet).
//                           Off by default: wall clocks are volatile.
//     --json-out FILE       write the machine-readable diff report (parent
//                           directories are created as needed)
//     --write-baseline      refresh the baseline from the fresh run instead
//                           of gating: copies every fresh artifact over the
//                           baseline (volatile fields stripped) and, in
//                           directory mode, removes baseline artifacts with
//                           no fresh counterpart
//     --quiet               summary line only
//
// Gate semantics (mirrors the srds-lint LINT_BASELINE ratchet): a metric
// worse than baseline beyond the threshold OR a baseline entry the fresh
// run no longer produces fails; improvements and new metrics are reported
// as ratchet candidates. Exit 0 when the gate passes, 1 when it fails, 2 on
// usage/IO/parse errors.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "diff.hpp"
#include "obs/json.hpp"

namespace fs = std::filesystem;
using namespace srds::benchdiff;

namespace {

struct Options {
  std::string baseline;
  std::string fresh;
  double threshold = 0.10;
  bool wall_mode = false;
  double wall_threshold = 0.25;
  std::string json_out;
  bool write_baseline = false;
  bool quiet = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threshold PCT] [--wall-threshold PCT] [--json-out FILE] "
               "[--write-baseline] [--quiet] <baseline> <fresh>\n"
               "  <baseline>/<fresh>: two BENCH_*.json files or two directories\n",
               argv0);
  return 2;
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Load + parse one artifact; prints its own error. Returns false on failure.
bool load_doc(const fs::path& path, srds::obs::Json& doc) {
  std::string text, err;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "bench-diff: cannot read %s\n", path.c_str());
    return false;
  }
  if (!srds::obs::Json::parse(text, doc, &err)) {
    std::fprintf(stderr, "bench-diff: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  return true;
}

/// BENCH_*.json files directly inside `dir`, keyed by file name.
std::map<std::string, fs::path> artifacts_in(const fs::path& dir) {
  std::map<std::string, fs::path> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
      out.emplace(name, entry.path());
    }
  }
  return out;
}

void print_delta(const Delta& d) {
  std::string where = d.sample.bench;
  if (!d.sample.label.empty()) where += " / " + d.sample.label;
  char xbuf[64];
  std::snprintf(xbuf, sizeof xbuf, "%g", d.sample.x);
  switch (d.kind) {
    case Delta::Kind::kRegression:
    case Delta::Kind::kImprovement: {
      char rel[32];
      if (d.base == 0) {
        std::snprintf(rel, sizeof rel, "from zero");
      } else {
        std::snprintf(rel, sizeof rel, "%+.1f%%", 100.0 * d.rel);
      }
      std::printf("  %-14s %s @ x=%s %s: %g -> %g (%s)\n", kind_name(d.kind),
                  where.c_str(), xbuf, d.sample.metric.c_str(), d.base,
                  d.sample.value, rel);
      break;
    }
    case Delta::Kind::kStale:
      std::printf("  %-14s %s @ x=%s %s: baseline has %g, fresh run has no such "
                  "series (refresh with --write-baseline)\n",
                  kind_name(d.kind), where.c_str(), xbuf, d.sample.metric.c_str(),
                  d.base);
      break;
    case Delta::Kind::kNew:
      std::printf("  %-14s %s @ x=%s %s = %g (not in baseline)\n", kind_name(d.kind),
                  where.c_str(), xbuf, d.sample.metric.c_str(), d.sample.value);
      break;
    case Delta::Kind::kOk:
      break;
  }
}

/// --write-baseline: copy fresh artifacts (volatile fields stripped) over
/// the baseline; in directory mode also drop stale baseline artifacts.
int refresh_baseline(const Options& opt, bool dir_mode) {
  if (dir_mode) {
    std::error_code ec;
    fs::create_directories(opt.baseline, ec);
    const auto fresh_files = artifacts_in(opt.fresh);
    for (const auto& [name, path] : fresh_files) {
      srds::obs::Json doc;
      if (!load_doc(path, doc)) return 2;
      const fs::path dst = fs::path(opt.baseline) / name;
      if (!srds::obs::write_text_file(dst.string(),
                                      strip_volatile(doc).dump(2) + "\n")) {
        std::fprintf(stderr, "bench-diff: cannot write %s\n", dst.c_str());
        return 2;
      }
      if (!opt.quiet) std::printf("bench-diff: baseline %s refreshed\n", dst.c_str());
    }
    for (const auto& [name, path] : artifacts_in(opt.baseline)) {
      if (fresh_files.count(name)) continue;
      fs::remove(path, ec);
      if (!opt.quiet) {
        std::printf("bench-diff: baseline %s removed (no fresh counterpart)\n",
                    path.c_str());
      }
    }
    return 0;
  }
  srds::obs::Json doc;
  if (!load_doc(opt.fresh, doc)) return 2;
  const fs::path dst(opt.baseline);
  std::error_code ec;
  if (dst.has_parent_path()) fs::create_directories(dst.parent_path(), ec);
  if (!srds::obs::write_text_file(opt.baseline, strip_volatile(doc).dump(2) + "\n")) {
    std::fprintf(stderr, "bench-diff: cannot write %s\n", opt.baseline.c_str());
    return 2;
  }
  if (!opt.quiet) std::printf("bench-diff: baseline %s refreshed\n", opt.baseline.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench-diff: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--threshold") == 0) {
      opt.threshold = std::atof(value("--threshold")) / 100.0;
      if (opt.threshold < 0) return usage(argv[0]);
    } else if (std::strcmp(a, "--wall-threshold") == 0) {
      opt.wall_mode = true;
      opt.wall_threshold = std::atof(value("--wall-threshold")) / 100.0;
      if (opt.wall_threshold < 0) return usage(argv[0]);
    } else if (std::strcmp(a, "--json-out") == 0) {
      opt.json_out = value("--json-out");
    } else if (std::strcmp(a, "--write-baseline") == 0) {
      opt.write_baseline = true;
    } else if (std::strcmp(a, "--quiet") == 0 || std::strcmp(a, "-q") == 0) {
      opt.quiet = true;
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (a[0] == '-') {
      std::fprintf(stderr, "bench-diff: unknown option %s\n", a);
      return usage(argv[0]);
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() != 2) return usage(argv[0]);
  opt.baseline = positional[0];
  opt.fresh = positional[1];

  const bool fresh_is_dir = fs::is_directory(opt.fresh);
  if (opt.write_baseline) {
    // Baseline may not exist yet; its mode follows the fresh side.
    if (fs::exists(opt.baseline) && fs::is_directory(opt.baseline) != fresh_is_dir) {
      std::fprintf(stderr, "bench-diff: %s and %s must both be files or both be "
                           "directories\n",
                   opt.baseline.c_str(), opt.fresh.c_str());
      return 2;
    }
    return refresh_baseline(opt, fresh_is_dir);
  }

  if (!fs::exists(opt.baseline) || !fs::exists(opt.fresh)) {
    std::fprintf(stderr, "bench-diff: %s does not exist\n",
                 fs::exists(opt.baseline) ? opt.fresh.c_str() : opt.baseline.c_str());
    return 2;
  }
  const bool dir_mode = fs::is_directory(opt.baseline);
  if (dir_mode != fresh_is_dir) {
    std::fprintf(stderr,
                 "bench-diff: %s and %s must both be files or both be directories\n",
                 opt.baseline.c_str(), opt.fresh.c_str());
    return 2;
  }

  // Pair up artifacts. In file mode there is exactly one pair; in directory
  // mode artifacts pair by file name, and an unpaired side is reported as a
  // file-level stale/new entry.
  std::vector<std::pair<fs::path, fs::path>> pairs;  // (baseline, fresh)
  std::vector<std::string> stale_files, new_files;
  if (dir_mode) {
    const auto base_files = artifacts_in(opt.baseline);
    const auto fresh_files = artifacts_in(opt.fresh);
    for (const auto& [name, path] : base_files) {
      auto it = fresh_files.find(name);
      if (it == fresh_files.end()) {
        stale_files.push_back(name);
      } else {
        pairs.emplace_back(path, it->second);
      }
    }
    for (const auto& [name, path] : fresh_files) {
      if (!base_files.count(name)) new_files.push_back(name);
    }
    if (base_files.empty()) {
      std::fprintf(stderr, "bench-diff: no BENCH_*.json artifacts under %s\n",
                   opt.baseline.c_str());
      return 2;
    }
  } else {
    pairs.emplace_back(opt.baseline, opt.fresh);
  }

  FlattenOptions flat_opt;
  flat_opt.include_wall = opt.wall_mode;
  std::vector<Sample> base_samples, fresh_samples;
  for (const auto& [base_path, fresh_path] : pairs) {
    srds::obs::Json base_doc, fresh_doc;
    if (!load_doc(base_path, base_doc) || !load_doc(fresh_path, fresh_doc)) return 2;
    std::string err;
    if (!flatten(base_doc, base_samples, &err, flat_opt)) {
      std::fprintf(stderr, "bench-diff: %s: %s\n", base_path.c_str(), err.c_str());
      return 2;
    }
    if (!flatten(fresh_doc, fresh_samples, &err, flat_opt)) {
      std::fprintf(stderr, "bench-diff: %s: %s\n", fresh_path.c_str(), err.c_str());
      return 2;
    }
  }

  DiffOptions diff_opt;
  diff_opt.threshold = opt.threshold;
  diff_opt.wall_threshold = opt.wall_threshold;
  DiffReport report = diff(base_samples, fresh_samples, diff_opt);
  report.stale += stale_files.size();

  if (!opt.quiet) {
    for (const std::string& name : stale_files) {
      std::printf("  %-14s %s: baseline artifact has no fresh counterpart "
                  "(refresh with --write-baseline)\n",
                  "stale-baseline", name.c_str());
    }
    for (const std::string& name : new_files) {
      std::printf("  %-14s %s: fresh artifact not in baseline (record with "
                  "--write-baseline)\n",
                  "new-metric", name.c_str());
    }
    for (const Delta& d : report.deltas) print_delta(d);
  }
  char wall_note[64] = "";
  if (opt.wall_mode) {
    std::snprintf(wall_note, sizeof wall_note, ", wall %.1f%%",
                  100.0 * opt.wall_threshold);
  }
  std::printf("bench-diff: %zu compared, %zu regression%s, %zu stale, "
              "%zu improvement%s, %zu new (threshold %.1f%%%s) -> %s\n",
              report.compared, report.regressions, report.regressions == 1 ? "" : "s",
              report.stale, report.improvements, report.improvements == 1 ? "" : "s",
              report.added, 100.0 * opt.threshold, wall_note,
              report.failed() ? "FAIL" : "ok");

  if (!opt.json_out.empty()) {
    srds::obs::Json out = report.to_json();
    out.set("tool", "bench-diff");
    out.set("threshold", opt.threshold);
    if (opt.wall_mode) out.set("wall_threshold", opt.wall_threshold);
    out.set("baseline", opt.baseline);
    out.set("fresh", opt.fresh);
    const fs::path p(opt.json_out);
    std::error_code ec;
    if (p.has_parent_path()) fs::create_directories(p.parent_path(), ec);
    if (!srds::obs::write_text_file(opt.json_out, out.dump(2) + "\n")) {
      std::fprintf(stderr, "bench-diff: cannot write %s\n", opt.json_out.c_str());
      return 2;
    }
  }
  return report.failed() ? 1 : 0;
}
