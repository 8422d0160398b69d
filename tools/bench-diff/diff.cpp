#include "diff.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <set>

namespace srds::benchdiff {
namespace {

bool contains(const std::string& s, const char* sub) {
  return s.find(sub) != std::string::npos;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t len = std::char_traits<char>::length(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

std::string fmt_x(double x) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x);
  return ec == std::errc() ? std::string(buf, end) : std::string("nan");
}

/// Leaves that change run-to-run without the measured numbers changing.
/// They never become samples — identical logical runs must diff clean.
/// (Wall mode re-admits wall.ns_per_op and allocs_per_op explicitly, with
/// their own noise-aware gate, rather than through this walk.)
bool volatile_key(const std::string& key) {
  return key == "timestamp" || key == "git_describe" || key == "prof" ||
         contains(key, "wall") || contains(key, "span") || contains(key, "allocs") ||
         ends_with(key, "_ns");
}

void walk(const obs::Json& v, std::string& path, const Sample& proto,
          std::vector<Sample>& out) {
  switch (v.type()) {
    case obs::Json::Type::kObject:
      for (const auto& [key, child] : v.members()) {
        if (volatile_key(key)) continue;
        const std::size_t mark = path.size();
        if (!path.empty()) path.push_back('.');
        path += key;
        walk(child, path, proto, out);
        path.resize(mark);
      }
      break;
    case obs::Json::Type::kArray:
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        const std::size_t mark = path.size();
        if (!path.empty()) path.push_back('.');
        path += std::to_string(i);
        walk(v.items()[i], path, proto, out);
        path.resize(mark);
      }
      break;
    case obs::Json::Type::kBool:
    case obs::Json::Type::kInt:
    case obs::Json::Type::kUint:
    case obs::Json::Type::kDouble: {
      Sample s = proto;
      s.metric = path;
      s.value = v.type() == obs::Json::Type::kBool
                    ? (v.as_bool() ? 1.0 : 0.0)
                    : v.as_double(std::numeric_limits<double>::quiet_NaN());
      if (std::isfinite(s.value)) out.push_back(std::move(s));
      break;
    }
    default:
      break;  // strings label rows, nulls are non-finite doubles — not samples
  }
}

}  // namespace

std::string Sample::key() const {
  std::string k;
  k.reserve(bench.size() + label.size() + metric.size() + 16);
  k += bench;
  k.push_back('\x1f');
  k += label;
  k.push_back('\x1f');
  k += fmt_x(x);
  k.push_back('\x1f');
  k += metric;
  return k;
}

Direction classify(const std::string& metric) {
  const std::size_t dot = metric.rfind('.');
  const std::string leaf = dot == std::string::npos ? metric : metric.substr(dot + 1);
  // Identities and budget-spec inputs: a change is a code change, not a
  // measured regression (bound_bits below still catches loosened budgets).
  static const std::set<std::string> info{"argmax", "worst_party", "start", "seed",
                                          "n",      "x",           "c",     "k",
                                          "n_exp",  "min_n"};
  if (info.count(leaf)) return Direction::kInfo;
  if (contains(leaf, "fraction") || contains(leaf, "decided") ||
      contains(leaf, "delivered") || contains(leaf, "correct") || leaf == "agreement" ||
      leaf == "ok" || leaf == "audited") {
    return Direction::kLowerWorse;
  }
  // Throughput counters (google-benchmark's bytes_per_second): more is
  // better, even though the name mentions bytes.
  if (contains(leaf, "per_second")) return Direction::kLowerWorse;
  if (contains(leaf, "bytes") || contains(leaf, "bits") || contains(leaf, "msgs") ||
      contains(leaf, "rounds") || leaf == "locality" || leaf == "violators" ||
      leaf == "max" || leaf == "p50" || leaf == "p90" || leaf == "total" ||
      leaf == "ns_per_op" || leaf == "allocs_per_op") {
    return Direction::kHigherWorse;
  }
  return Direction::kInfo;
}

bool flatten(const obs::Json& doc, std::vector<Sample>& out, std::string* err,
             const FlattenOptions& options) {
  const obs::Json* bench = doc.find("bench");
  const obs::Json* series = doc.find("series");
  if (!bench || bench->type() != obs::Json::Type::kString || !series ||
      !series->is_array()) {
    if (err) *err = "not a BENCH document (missing \"bench\" or \"series\")";
    return false;
  }
  for (const obs::Json& row : series->items()) {
    const obs::Json* x = row.find("x");
    const obs::Json* metrics = row.find("metrics");
    if (!x || !metrics || !metrics->is_object()) continue;
    Sample proto;
    proto.bench = bench->as_string();
    proto.x = x->as_double();
    if (const obs::Json* p = metrics->find("protocol");
        p && p->type() == obs::Json::Type::kString) {
      proto.label = p->as_string();
    } else if (const obs::Json* s = metrics->find("sweep");
               s && s->type() == obs::Json::Type::kString) {
      proto.label = s->as_string();
    }
    std::string path;
    walk(*metrics, path, proto, out);
    if (!options.include_wall) continue;
    // Wall mode: lift the schema-3 wall/alloc leaves into gated samples,
    // tagging the wall sample with the row's measured spread so the diff
    // can widen the threshold on noisy rows.
    if (const obs::Json* wall = metrics->find("wall"); wall && wall->is_object()) {
      if (const obs::Json* ns = wall->find("ns_per_op")) {
        Sample s = proto;
        s.metric = "wall.ns_per_op";
        s.value = ns->as_double(std::numeric_limits<double>::quiet_NaN());
        s.wall = true;
        if (const obs::Json* sp = wall->find("spread_rel")) {
          s.spread_rel = sp->as_double(0.0);
        }
        if (std::isfinite(s.value)) out.push_back(std::move(s));
      }
    }
    if (const obs::Json* allocs = metrics->find("allocs_per_op")) {
      Sample s = proto;
      s.metric = "allocs_per_op";
      s.value = allocs->as_double(std::numeric_limits<double>::quiet_NaN());
      if (std::isfinite(s.value)) out.push_back(std::move(s));
    }
  }
  return true;
}

DiffReport diff(const std::vector<Sample>& baseline, const std::vector<Sample>& fresh,
                const DiffOptions& options) {
  DiffReport report;
  std::map<std::string, const Sample*> base_by_key;
  for (const Sample& s : baseline) base_by_key.emplace(s.key(), &s);
  std::set<std::string> seen;

  std::vector<Delta> bad, notable;
  for (const Sample& s : fresh) {
    const std::string key = s.key();
    seen.insert(key);
    auto it = base_by_key.find(key);
    if (it == base_by_key.end()) {
      ++report.added;
      notable.push_back({Delta::Kind::kNew, s, 0, 0, classify(s.metric)});
      continue;
    }
    ++report.compared;
    Delta d;
    d.sample = s;
    d.base = it->second->value;
    d.direction = classify(s.metric);
    if (d.base != 0) {
      d.rel = (s.value - d.base) / std::abs(d.base);
    } else if (s.value != 0) {
      d.rel = s.value > 0 ? std::numeric_limits<double>::infinity()
                          : -std::numeric_limits<double>::infinity();
    }
    const double worse = d.direction == Direction::kHigherWorse  ? d.rel
                         : d.direction == Direction::kLowerWorse ? -d.rel
                                                                 : 0.0;
    double gate = options.threshold;
    if (s.wall) {
      // Noise-aware ratchet: a wall median must move beyond BOTH the wall
      // threshold and a few measured spreads before it counts.
      const double spread = std::max(s.spread_rel, it->second->spread_rel);
      gate = std::max(options.wall_threshold, options.spread_guard * spread);
    }
    if (worse > gate) {
      d.kind = Delta::Kind::kRegression;
      ++report.regressions;
      bad.push_back(std::move(d));
    } else if (worse < -gate) {
      d.kind = Delta::Kind::kImprovement;
      ++report.improvements;
      notable.push_back(std::move(d));
    }
  }
  for (const Sample& s : baseline) {
    if (seen.count(s.key())) continue;
    ++report.stale;
    bad.push_back({Delta::Kind::kStale, s, s.value, 0, classify(s.metric)});
  }
  report.deltas = std::move(bad);
  report.deltas.insert(report.deltas.end(), std::make_move_iterator(notable.begin()),
                       std::make_move_iterator(notable.end()));
  return report;
}

const char* kind_name(Delta::Kind k) {
  switch (k) {
    case Delta::Kind::kOk: return "ok";
    case Delta::Kind::kRegression: return "regression";
    case Delta::Kind::kImprovement: return "improvement";
    case Delta::Kind::kStale: return "stale-baseline";
    case Delta::Kind::kNew: return "new-metric";
  }
  return "?";
}

obs::Json DiffReport::to_json() const {
  obs::Json out = obs::Json::object();
  out.set("compared", compared);
  out.set("regressions", regressions);
  out.set("stale", stale);
  out.set("improvements", improvements);
  out.set("added", added);
  out.set("failed", failed());
  obs::Json rows = obs::Json::array();
  for (const Delta& d : deltas) {
    obs::Json row = obs::Json::object();
    row.set("kind", kind_name(d.kind));
    row.set("bench", d.sample.bench);
    if (!d.sample.label.empty()) row.set("label", d.sample.label);
    row.set("x", d.sample.x);
    row.set("metric", d.sample.metric);
    if (d.kind != Delta::Kind::kNew) row.set("baseline", d.base);
    if (d.kind != Delta::Kind::kStale) row.set("value", d.sample.value);
    if (d.kind == Delta::Kind::kRegression || d.kind == Delta::Kind::kImprovement) {
      row.set("rel_change", d.rel);  // non-finite serializes as null
    }
    rows.push_back(std::move(row));
  }
  out.set("deltas", std::move(rows));
  return out;
}

obs::Json strip_volatile(const obs::Json& doc) {
  if (!doc.is_object()) return doc;
  obs::Json out = obs::Json::object();
  for (const auto& [key, value] : doc.members()) {
    if (key == "timestamp" || key == "git_describe" || key == "prof") continue;
    out.set(key, value);
  }
  return out;
}

}  // namespace srds::benchdiff
