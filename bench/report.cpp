#include "report.hpp"

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <stdexcept>

#include "obs/prof.hpp"
#include "obs/tracer.hpp"

namespace srds::bench {

void Reporter::add_row(double x, obs::Json metrics) {
  if (!metrics.is_object()) {
    throw std::invalid_argument("Reporter::add_row: metrics must be an object");
  }
  obs::Json row = obs::Json::object();
  row.set("x", x);
  row.set("metrics", std::move(metrics));
  std::lock_guard<std::mutex> lk(mu_);
  series_.push_back(std::move(row));
}

obs::Json Reporter::to_json(bool with_timestamp) const {
  std::lock_guard<std::mutex> lk(mu_);
  obs::Json out = obs::Json::object();
  // v2 added per_party/budgets row blocks; v3 adds wall/allocs row metrics
  // and the optional top-level prof block below.
  out.set("schema", 3);
  out.set("bench", bench_);
  out.set("git_describe", git_describe());
  if (with_timestamp) {
    // Wall-clock here is bench-artifact metadata, not protocol state; the
    // determinism guard compares with_timestamp=false documents.
    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    out.set("timestamp", buf);
  }
  out.set("params", params_);
  out.set("series", series_);
  // The prof block rides the same gate as the timestamp: it is wall-clock
  // data, so it must never appear in the deterministic document the
  // trace_test determinism guard compares.
  if (with_timestamp && obs::prof_enabled()) {
    out.set("prof", obs::prof_to_json());
  }
  return out;
}

std::string Reporter::write(const std::string& dir) const {
  std::string path = dir.empty() ? std::string(".") : dir;
  if (path.back() != '/') path.push_back('/');
  path += "BENCH_" + bench_ + ".json";
  // write_text_file creates missing parent directories.
  if (!obs::write_text_file(path, to_json().dump(2) + "\n")) return {};
  return path;
}

std::string Reporter::git_describe() {
  static const std::string cached = [] {
    std::string out;
    if (std::FILE* p = ::popen("git describe --always --dirty 2>/dev/null", "r")) {
      char buf[128];
      while (std::fgets(buf, sizeof buf, p)) out += buf;
      ::pclose(p);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
    return out.empty() ? std::string("unknown") : out;
  }();
  return cached;
}

}  // namespace srds::bench
