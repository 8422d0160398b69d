// Tests for the bench-diff core (tools/bench-diff/diff.hpp): flattening
// BENCH documents into keyed samples, metric direction classification, and
// the ratchet gate semantics (regression / improvement / stale / new).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "diff.hpp"
#include "obs/json.hpp"

namespace srds {
namespace {

using namespace srds::benchdiff;
using obs::Json;

/// A small two-row BENCH document in the Reporter's schema-v2 shape.
Json make_doc(std::uint64_t snark_bytes, std::uint64_t naive_bytes,
              double decided = 1.0) {
  Json doc = Json::object();
  doc.set("schema", 2);
  doc.set("bench", "table1");
  doc.set("git_describe", "cafef00d");  // volatile: must not become a sample
  doc.set("timestamp", "2026-01-01T00:00:00Z");
  Json series = Json::array();
  int x = 0;
  for (const char* proto : {"pi_ba/snark-srds", "naive-all-to-all"}) {
    Json m = Json::object();
    m.set("protocol", proto);
    m.set("max_comm_per_party_bytes",
          std::string(proto) == "naive-all-to-all" ? naive_bytes : snark_bytes);
    m.set("decided_fraction", decided);
    m.set("agreement", true);
    m.set("wall_ms", 123 + x);  // volatile: wall-clock never gates
    Json pp = Json::object();
    Json boost = Json::object();
    boost.set("max", std::string(proto) == "naive-all-to-all" ? naive_bytes
                                                              : snark_bytes);
    pp.set("boost", std::move(boost));
    m.set("per_party", std::move(pp));
    Json row = Json::object();
    row.set("x", x++);
    row.set("metrics", std::move(m));
    series.push_back(std::move(row));
  }
  doc.set("series", std::move(series));
  return doc;
}

TEST(BenchDiff, ClassifiesMetricDirections) {
  EXPECT_EQ(classify("max_comm_per_party_bytes"), Direction::kHigherWorse);
  EXPECT_EQ(classify("per_party.boost.max"), Direction::kHigherWorse);
  EXPECT_EQ(classify("phases.f_ct.msgs_sent"), Direction::kHigherWorse);
  EXPECT_EQ(classify("budgets.2.max_bits"), Direction::kHigherWorse);
  EXPECT_EQ(classify("boost_rounds"), Direction::kHigherWorse);
  EXPECT_EQ(classify("locality"), Direction::kHigherWorse);
  EXPECT_EQ(classify("decided_fraction"), Direction::kLowerWorse);
  EXPECT_EQ(classify("agreement"), Direction::kLowerWorse);
  EXPECT_EQ(classify("budgets.0.ok"), Direction::kLowerWorse);
  EXPECT_EQ(classify("per_party.run.argmax"), Direction::kInfo);
  EXPECT_EQ(classify("budgets.0.budget.c"), Direction::kInfo);
  EXPECT_EQ(classify("phases.boost.start"), Direction::kInfo);
}

TEST(BenchDiff, ThroughputCountersAreHigherBetter) {
  EXPECT_EQ(classify("counter_bytes_per_second"), Direction::kLowerWorse);
}

TEST(BenchDiff, FlattenSkipsVolatileAndLabelsRows) {
  std::vector<Sample> samples;
  std::string err;
  ASSERT_TRUE(flatten(make_doc(100, 200), samples, &err)) << err;
  ASSERT_FALSE(samples.empty());
  bool saw_label = false;
  for (const Sample& s : samples) {
    EXPECT_EQ(s.bench, "table1");
    EXPECT_EQ(s.metric.find("wall"), std::string::npos);
    EXPECT_EQ(s.metric.find("timestamp"), std::string::npos);
    if (s.label == "pi_ba/snark-srds" && s.metric == "per_party.boost.max") {
      saw_label = true;
      EXPECT_EQ(s.value, 100.0);
    }
  }
  EXPECT_TRUE(saw_label);

  Json not_bench = Json::object();
  EXPECT_FALSE(flatten(not_bench, samples, &err));
  EXPECT_FALSE(err.empty());
}

TEST(BenchDiff, IdenticalRunsPass) {
  std::vector<Sample> base, fresh;
  ASSERT_TRUE(flatten(make_doc(100, 200), base));
  ASSERT_TRUE(flatten(make_doc(100, 200), fresh));
  DiffReport r = diff(base, fresh);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.regressions, 0u);
  EXPECT_EQ(r.stale, 0u);
  EXPECT_EQ(r.improvements, 0u);
  EXPECT_EQ(r.added, 0u);
  EXPECT_GT(r.compared, 0u);
  EXPECT_TRUE(r.deltas.empty());
}

TEST(BenchDiff, CostRegressionBeyondThresholdFails) {
  std::vector<Sample> base, fresh;
  ASSERT_TRUE(flatten(make_doc(100, 200), base));
  ASSERT_TRUE(flatten(make_doc(112, 200), fresh));  // snark +12%
  DiffReport r = diff(base, fresh);  // default threshold 10%
  EXPECT_TRUE(r.failed());
  // Both snark byte metrics regressed; naive's are untouched.
  EXPECT_EQ(r.regressions, 2u);
  for (const Delta& d : r.deltas) {
    EXPECT_EQ(d.kind, Delta::Kind::kRegression);
    EXPECT_EQ(d.sample.label, "pi_ba/snark-srds");
    EXPECT_NEAR(d.rel, 0.12, 1e-9);
  }

  // The same change under a looser threshold passes.
  DiffOptions loose;
  loose.threshold = 0.15;
  EXPECT_FALSE(diff(base, fresh, loose).failed());

  // A change within the default threshold passes too.
  std::vector<Sample> close;
  ASSERT_TRUE(flatten(make_doc(105, 200), close));
  EXPECT_FALSE(diff(base, close).failed());
}

TEST(BenchDiff, ImprovementIsReportedNotFailed) {
  std::vector<Sample> base, fresh;
  ASSERT_TRUE(flatten(make_doc(100, 200), base));
  ASSERT_TRUE(flatten(make_doc(100, 100), fresh));  // naive halved
  DiffReport r = diff(base, fresh);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.improvements, 2u);
  ASSERT_FALSE(r.deltas.empty());
  EXPECT_EQ(r.deltas[0].kind, Delta::Kind::kImprovement);
}

TEST(BenchDiff, QualityDropIsARegression) {
  std::vector<Sample> base, fresh;
  ASSERT_TRUE(flatten(make_doc(100, 200, /*decided=*/1.0), base));
  ASSERT_TRUE(flatten(make_doc(100, 200, /*decided=*/0.8), fresh));
  DiffReport r = diff(base, fresh);
  EXPECT_TRUE(r.failed());
  bool saw = false;
  for (const Delta& d : r.deltas) {
    if (d.sample.metric == "decided_fraction") {
      saw = true;
      EXPECT_EQ(d.kind, Delta::Kind::kRegression);
      EXPECT_EQ(d.direction, Direction::kLowerWorse);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(BenchDiff, StaleBaselineEntryFailsAndNewMetricDoesNot) {
  std::vector<Sample> base, fresh;
  ASSERT_TRUE(flatten(make_doc(100, 200), base));
  ASSERT_TRUE(flatten(make_doc(100, 200), fresh));

  // Fresh gains a metric the baseline lacks: reported, not failed.
  Sample extra = fresh.front();
  extra.metric = "brand_new_bytes";
  fresh.push_back(extra);
  DiffReport r1 = diff(base, fresh);
  EXPECT_FALSE(r1.failed());
  EXPECT_EQ(r1.added, 1u);

  // Baseline keeps a metric the fresh run no longer produces: the ratchet
  // fails until the baseline is refreshed.
  fresh.pop_back();
  fresh.pop_back();  // drop a real fresh sample -> its baseline entry is stale
  DiffReport r2 = diff(base, fresh);
  EXPECT_TRUE(r2.failed());
  EXPECT_EQ(r2.stale, 1u);
  EXPECT_EQ(r2.deltas[0].kind, Delta::Kind::kStale);
}

TEST(BenchDiff, ZeroBaselineHandledWithoutDivision) {
  Sample b{"bench", "", 1, "extra_bytes", 0};
  Sample f = b;
  f.value = 50;
  DiffReport r = diff({b}, {f});
  EXPECT_TRUE(r.failed());
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_TRUE(std::isinf(r.deltas[0].rel));

  // 0 -> 0 is no change.
  f.value = 0;
  EXPECT_FALSE(diff({b}, {f}).failed());
}

TEST(BenchDiff, ReportJsonAndVolatileStrip) {
  std::vector<Sample> base, fresh;
  ASSERT_TRUE(flatten(make_doc(100, 200), base));
  ASSERT_TRUE(flatten(make_doc(120, 200), fresh));
  DiffReport r = diff(base, fresh);
  Json j = r.to_json();
  ASSERT_TRUE(j.is_object());
  EXPECT_TRUE(j.find("failed")->as_bool());
  EXPECT_EQ(j.find("regressions")->as_uint(), r.regressions);
  ASSERT_TRUE(j.find("deltas")->is_array());
  const Json& first = j.find("deltas")->items().front();
  EXPECT_EQ(first.find("kind")->as_string(), "regression");
  EXPECT_EQ(first.find("metric")->as_string(), "max_comm_per_party_bytes");

  Json stripped = strip_volatile(make_doc(1, 2));
  EXPECT_EQ(stripped.find("timestamp"), nullptr);
  EXPECT_EQ(stripped.find("git_describe"), nullptr);
  ASSERT_NE(stripped.find("bench"), nullptr);
  // Round-trip through the parser: what --write-baseline persists reloads
  // into an identical document.
  Json back;
  ASSERT_TRUE(Json::parse(stripped.dump(2), back));
  EXPECT_EQ(back.dump(2), stripped.dump(2));
}

/// A one-row schema-3 document carrying the wall/alloc leaves the wall-mode
/// gate consumes.
Json make_wall_doc(double ns_per_op, double spread_rel, double allocs) {
  Json doc = Json::object();
  doc.set("schema", 3);
  doc.set("bench", "micro_x");
  Json m = Json::object();
  m.set("name", "BM_Thing");
  m.set("protocol", "BM_Thing");
  m.set("deterministic_bytes", 4096);
  Json wall = Json::object();
  wall.set("ns_per_op", ns_per_op);
  wall.set("spread_rel", spread_rel);
  wall.set("repeats", 3);
  m.set("wall", std::move(wall));
  m.set("allocs_per_op", allocs);
  Json row = Json::object();
  row.set("x", 0);
  row.set("metrics", std::move(m));
  Json series = Json::array();
  series.push_back(std::move(row));
  doc.set("series", std::move(series));
  return doc;
}

TEST(BenchDiffWall, WallLeavesOnlyFlattenInWallMode) {
  std::vector<Sample> plain, walled;
  ASSERT_TRUE(flatten(make_wall_doc(100, 0.05, 7), plain));
  std::size_t plain_allocs = 0;
  for (const Sample& s : plain) {
    EXPECT_EQ(s.metric.find("wall"), std::string::npos) << s.metric;
    if (s.metric == "allocs_per_op") ++plain_allocs;
  }
  EXPECT_EQ(plain_allocs, 1u) << "allocation counts gate outside wall mode too";

  FlattenOptions opt;
  opt.include_wall = true;
  ASSERT_TRUE(flatten(make_wall_doc(100, 0.05, 7), walled, nullptr, opt));
  const Sample* wall = nullptr;
  const Sample* allocs = nullptr;
  for (const Sample& s : walled) {
    if (s.metric == "wall.ns_per_op") wall = &s;
    if (s.metric == "allocs_per_op") allocs = &s;
  }
  ASSERT_NE(wall, nullptr);
  EXPECT_TRUE(wall->wall);
  EXPECT_DOUBLE_EQ(wall->value, 100.0);
  EXPECT_DOUBLE_EQ(wall->spread_rel, 0.05);
  ASSERT_NE(allocs, nullptr);
  EXPECT_FALSE(allocs->wall) << "alloc counts gate with the exact threshold";
  EXPECT_DOUBLE_EQ(allocs->value, 7.0);
  EXPECT_EQ(classify("wall.ns_per_op"), Direction::kHigherWorse);
  EXPECT_EQ(classify("allocs_per_op"), Direction::kHigherWorse);
}

TEST(BenchDiffWall, NoiseWithinSpreadGuardPasses) {
  FlattenOptions opt;
  opt.include_wall = true;
  std::vector<Sample> base, fresh;
  // +25% median shift, but both runs measured a 10% spread: the effective
  // gate is spread_guard(3) * 0.10 = 30%, so this is machine noise.
  ASSERT_TRUE(flatten(make_wall_doc(100, 0.10, 7), base, nullptr, opt));
  ASSERT_TRUE(flatten(make_wall_doc(125, 0.10, 7), fresh, nullptr, opt));
  DiffReport r = diff(base, fresh);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.regressions, 0u);
}

TEST(BenchDiffWall, RealRegressionBeyondWallThresholdFails) {
  FlattenOptions opt;
  opt.include_wall = true;
  std::vector<Sample> base, fresh;
  // Tight spreads (1%): the gate bottoms out at wall_threshold (25%), and a
  // 2x slowdown is unambiguous.
  ASSERT_TRUE(flatten(make_wall_doc(100, 0.01, 7), base, nullptr, opt));
  ASSERT_TRUE(flatten(make_wall_doc(200, 0.01, 7), fresh, nullptr, opt));
  DiffReport r = diff(base, fresh);
  EXPECT_TRUE(r.failed());
  bool saw_wall = false;
  for (const Delta& d : r.deltas) {
    if (d.sample.metric == "wall.ns_per_op") {
      saw_wall = true;
      EXPECT_EQ(d.kind, Delta::Kind::kRegression);
      EXPECT_NEAR(d.rel, 1.0, 1e-9);
    }
  }
  EXPECT_TRUE(saw_wall);

  // The asymmetric case: only the *larger* spread of the two runs widens
  // the gate, so one noisy run is enough to avoid a false failure.
  std::vector<Sample> noisy_fresh;
  ASSERT_TRUE(flatten(make_wall_doc(200, 0.50, 7), noisy_fresh, nullptr, opt));
  EXPECT_FALSE(diff(base, noisy_fresh).failed());
}

TEST(BenchDiffWall, AllocRegressionFailsExactly) {
  FlattenOptions opt;
  opt.include_wall = true;
  std::vector<Sample> base, fresh;
  ASSERT_TRUE(flatten(make_wall_doc(100, 0.01, 8), base, nullptr, opt));
  ASSERT_TRUE(flatten(make_wall_doc(100, 0.01, 16), fresh, nullptr, opt));
  DiffReport r = diff(base, fresh);
  EXPECT_TRUE(r.failed());
  bool saw = false;
  for (const Delta& d : r.deltas) {
    if (d.sample.metric == "allocs_per_op") {
      saw = true;
      EXPECT_EQ(d.kind, Delta::Kind::kRegression);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(BenchDiffWall, StaleWallBaselineFails) {
  FlattenOptions opt;
  opt.include_wall = true;
  std::vector<Sample> base, fresh;
  ASSERT_TRUE(flatten(make_wall_doc(100, 0.05, 7), base, nullptr, opt));
  // Fresh run flattened without wall mode (e.g. run without --repeats):
  // the wall baseline entry goes stale and the gate must fail rather than
  // silently stop ratcheting timing.
  ASSERT_TRUE(flatten(make_wall_doc(100, 0.05, 7), fresh));
  DiffReport r = diff(base, fresh);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.stale, 1u);  // wall.ns_per_op; allocs_per_op is in both
}

/// A figure row (no wall block) with an allocation count, the shape the
/// simulator-driven benches emit.
Json make_figure_doc(double allocs) {
  Json doc = make_doc(1000, 5000);
  Json series = Json::array();
  for (const Json& row : doc.find("series")->items()) {
    Json r = row;
    Json m = *row.find("metrics");
    m.set("allocs_per_op", allocs);
    r.set("metrics", std::move(m));
    series.push_back(std::move(r));
  }
  doc.set("series", std::move(series));
  return doc;
}

TEST(BenchDiff, FigureRowAllocRiseBeyondThresholdFails) {
  std::vector<Sample> base, within, beyond;
  ASSERT_TRUE(flatten(make_figure_doc(1000), base));
  ASSERT_TRUE(flatten(make_figure_doc(1000.4), within));
  ASSERT_TRUE(flatten(make_figure_doc(1200), beyond));
  EXPECT_FALSE(diff(base, within).failed()) << "+0.4 allocs/op is inside the tolerance";
  DiffReport r = diff(base, beyond);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.regressions, 2u);  // one per row
  for (const Delta& d : r.deltas) {
    EXPECT_EQ(d.sample.metric, "allocs_per_op");
    EXPECT_EQ(d.kind, Delta::Kind::kRegression);
    EXPECT_NEAR(d.rel, 0.2, 1e-9);
  }
  // And a fall is an improvement, reported for the ratchet, never a failure.
  std::vector<Sample> fewer;
  ASSERT_TRUE(flatten(make_figure_doc(250), fewer));
  DiffReport down = diff(base, fewer);
  EXPECT_FALSE(down.failed());
  EXPECT_EQ(down.improvements, 2u);
}

TEST(BenchDiff, OneMoreAllocationPerOpFailsAtAnyRelativeThreshold) {
  // One extra allocation per simulator round: 1024.05 -> 1025.05 allocs/op
  // is +0.1%, far inside the 10% relative threshold, and still a regression.
  std::vector<Sample> base, same, plus_one;
  ASSERT_TRUE(flatten(make_figure_doc(1024.05), base));
  ASSERT_TRUE(flatten(make_figure_doc(1024.05), same));
  ASSERT_TRUE(flatten(make_figure_doc(1025.05), plus_one));
  EXPECT_FALSE(diff(base, same).failed());
  EXPECT_EQ(diff(base, same).regressions, 0u);
  DiffOptions loose;
  loose.threshold = 0.5;  // even a 50% relative threshold does not hide it
  const DiffReport r = diff(base, plus_one, loose);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.regressions, 2u);  // one per row
  // The relative threshold still governs every other metric.
  std::vector<Sample> bytes_up;
  ASSERT_TRUE(flatten(make_doc(1050, 5000), bytes_up));
  std::vector<Sample> bytes_base;
  ASSERT_TRUE(flatten(make_doc(1000, 5000), bytes_base));
  EXPECT_FALSE(diff(bytes_base, bytes_up).failed()) << "+5% bytes is inside 10%";
}

/// A micro suite's BENCH document: one google-benchmark row per name, x its
/// position, each with a distinct allocation count.
Json make_micro_doc(const std::vector<std::pair<const char*, double>>& rows) {
  Json doc = Json::object();
  doc.set("schema", 3);
  doc.set("bench", "micro_obs");
  Json series = Json::array();
  int x = 0;
  for (const auto& [name, allocs] : rows) {
    Json m = Json::object();
    m.set("name", name);
    m.set("allocs_per_op", allocs);
    Json row = Json::object();
    row.set("x", x++);
    row.set("metrics", std::move(m));
    series.push_back(std::move(row));
  }
  doc.set("series", std::move(series));
  return doc;
}

TEST(BenchDiff, MicroRowsMatchByNameNotPosition) {
  // Deleting benchmark A moves B and C up one position; matched by x they
  // would gate against A's and B's counts.
  std::vector<Sample> base, fresh;
  ASSERT_TRUE(flatten(make_micro_doc({{"BM_A", 1}, {"BM_B", 10}, {"BM_C", 100}}), base));
  ASSERT_TRUE(flatten(make_micro_doc({{"BM_B", 10}, {"BM_C", 100}}), fresh));
  DiffReport r = diff(base, fresh, {/*threshold=*/0.0});
  EXPECT_EQ(r.stale, 1u);
  EXPECT_EQ(r.compared, 2u);
  EXPECT_EQ(r.regressions, 0u);
  EXPECT_EQ(r.improvements, 0u);
  EXPECT_EQ(r.added, 0u);
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0].kind, Delta::Kind::kStale);
  EXPECT_EQ(r.deltas[0].sample.label, "BM_A");
}

}  // namespace
}  // namespace srds
