// Tests for the observability primitives: the hand-rolled JSON writer
// (validated against the independent parser in json_parser.hpp), the bench
// Reporter, the shared bench CLI and the allocation-hook stub.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench_args.hpp"
#include "json_parser.hpp"
#include "obs/alloc_hooks.hpp"
#include "obs/json.hpp"
#include "report.hpp"

namespace srds {
namespace {

using obs::Json;
using testjson::PJson;

TEST(JsonWriter, ScalarsRoundTrip) {
  Json doc = Json::object();
  doc.set("null", nullptr);
  doc.set("true", true);
  doc.set("false", false);
  doc.set("int", -42);
  doc.set("uint", 18446744073709551615ull);  // uint64 max stays exact
  doc.set("double", 0.5);
  doc.set("string", "hello");

  PJson p = testjson::parse(doc.dump());
  ASSERT_EQ(p.type, PJson::Type::kObject);
  EXPECT_EQ(p.get("null")->type, PJson::Type::kNull);
  EXPECT_TRUE(p.get("true")->boolean);
  EXPECT_FALSE(p.get("false")->boolean);
  EXPECT_EQ(p.get("int")->integer, -42);
  EXPECT_EQ(p.get("double")->number, 0.5);
  EXPECT_EQ(p.get("string")->string, "hello");
  // Exactness check directly on the serialized text (the test parser only
  // holds int64): uint64 max must not be rounded through a double.
  EXPECT_NE(doc.dump().find("18446744073709551615"), std::string::npos);
}

TEST(JsonWriter, EscapingRoundTrips) {
  const std::string nasty = "q\"b\\s/c\ncr\rtab\tnul\x01\x1f e";
  Json doc = Json::object();
  doc.set(nasty, nasty);

  std::string text = doc.dump();
  // Control characters must appear as \u00XX escapes, never raw.
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_NE(text.find("\\u001f"), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\\\""), std::string::npos);

  PJson p = testjson::parse(text);
  ASSERT_EQ(p.object.size(), 1u);
  EXPECT_EQ(p.object[0].first, nasty);
  EXPECT_EQ(p.object[0].second.string, nasty);
}

TEST(JsonWriter, NestedStructuresAndOrder) {
  Json doc = Json::object();
  doc.set("z", 1);  // insertion order, not alphabetical
  doc.set("a", 2);
  Json arr = Json::array();
  arr.push_back(1);
  Json inner = Json::object();
  inner.set("k", "v");
  arr.push_back(std::move(inner));
  arr.push_back(Json::array());
  doc.set("arr", std::move(arr));
  doc.set("z", 3);  // overwrite keeps the original position

  PJson p = testjson::parse(doc.dump());
  ASSERT_EQ(p.object.size(), 3u);
  EXPECT_EQ(p.object[0].first, "z");
  EXPECT_EQ(p.object[0].second.integer, 3);
  EXPECT_EQ(p.object[1].first, "a");
  EXPECT_EQ(p.object[2].first, "arr");
  const PJson& parr = p.object[2].second;
  ASSERT_EQ(parr.array.size(), 3u);
  EXPECT_EQ(parr.array[0].integer, 1);
  EXPECT_EQ(parr.array[1].get("k")->string, "v");
  EXPECT_TRUE(parr.array[2].array.empty());
}

TEST(JsonWriter, PrettyAndCompactAgree) {
  Json doc = Json::object();
  doc.set("a", 1);
  Json arr = Json::array();
  arr.push_back("x");
  arr.push_back(2.25);
  doc.set("b", std::move(arr));

  PJson compact = testjson::parse(doc.dump(-1));
  PJson pretty = testjson::parse(doc.dump(2));
  ASSERT_EQ(pretty.object.size(), compact.object.size());
  EXPECT_EQ(pretty.get("b")->array[1].number, compact.get("b")->array[1].number);
  // Pretty output actually is pretty (has newlines); compact is one line.
  EXPECT_NE(doc.dump(2).find('\n'), std::string::npos);
  EXPECT_EQ(doc.dump(-1).find('\n'), std::string::npos);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  Json doc = Json::array();
  doc.push_back(std::numeric_limits<double>::quiet_NaN());
  doc.push_back(std::numeric_limits<double>::infinity());
  doc.push_back(1.5);
  PJson p = testjson::parse(doc.dump());
  EXPECT_EQ(p.array[0].type, PJson::Type::kNull);
  EXPECT_EQ(p.array[1].type, PJson::Type::kNull);
  EXPECT_EQ(p.array[2].number, 1.5);
}

TEST(JsonWriter, DumpIsDeterministic) {
  auto build = [] {
    Json doc = Json::object();
    doc.set("x", 0.1);
    doc.set("y", 3);
    Json arr = Json::array();
    arr.push_back("s");
    doc.set("z", std::move(arr));
    return doc.dump(2);
  };
  EXPECT_EQ(build(), build());
}

TEST(Reporter, SchemaAndParams) {
  bench::Reporter rep("unit");
  rep.set_param("n", 64);
  Json m = Json::object();
  m.set("bytes", 123);
  rep.add_row(64.0, std::move(m));

  PJson p = testjson::parse(rep.to_json().dump(2));
  EXPECT_EQ(p.get("bench")->string, "unit");
  EXPECT_NE(p.get("git_describe"), nullptr);
  EXPECT_NE(p.get("timestamp"), nullptr);
  EXPECT_EQ(p.get("params")->get("n")->integer, 64);
  ASSERT_EQ(p.get("series")->array.size(), 1u);
  EXPECT_EQ(p.get("series")->array[0].get("x")->number, 64.0);
  EXPECT_EQ(p.get("series")->array[0].get("metrics")->get("bytes")->integer, 123);
  // Determinism form: identical content, no timestamp field.
  PJson q = testjson::parse(rep.to_json(false).dump());
  EXPECT_EQ(q.get("timestamp"), nullptr);
}

TEST(Reporter, RejectsNonObjectMetrics) {
  bench::Reporter rep("unit");
  EXPECT_THROW(rep.add_row(1.0, Json(3)), std::invalid_argument);
}

TEST(Reporter, WriteCreatesMissingParentDirectories) {
  // CI points --json-out at artifact directories that do not exist yet;
  // Reporter::write must create the whole chain instead of failing.
  namespace fs = std::filesystem;
  const fs::path root = fs::path("obs_test_artifacts");
  fs::remove_all(root);
  bench::Reporter rep("nested_dir_unit");
  rep.set_param("n", 8);

  const std::string out = rep.write((root / "deeply" / "nested").string());
  ASSERT_FALSE(out.empty());
  EXPECT_TRUE(fs::exists(root / "deeply" / "nested" / "BENCH_nested_dir_unit.json"));

  std::ifstream in(out);
  std::ostringstream ss;
  ss << in.rdbuf();
  PJson doc = testjson::parse(ss.str());
  EXPECT_EQ(doc.get("bench")->string, "nested_dir_unit");
  EXPECT_EQ(doc.get("schema")->integer, 3);
  fs::remove_all(root);
}

TEST(JsonParser, RoundTripsWriterOutputByteIdentically) {
  Json doc = Json::object();
  doc.set("uint", 18446744073709551615ull);
  doc.set("int", -42);
  doc.set("double", 0.125);
  doc.set("bool", true);
  doc.set("null", nullptr);
  doc.set("s", "q\"b\\s\nnul\x01 e");
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(Json::object());
  doc.set("arr", std::move(arr));

  for (int indent : {-1, 2}) {
    Json back;
    std::string err;
    ASSERT_TRUE(Json::parse(doc.dump(indent), back, &err)) << err;
    // The parser preserves the writer's number kinds and key order, so
    // re-serialization is byte-identical — what lets bench-diff compare
    // and re-write baseline artifacts without churn.
    EXPECT_EQ(back.dump(indent), doc.dump(indent));
  }
}

TEST(JsonParser, NumberKindsMatchTheWriter) {
  Json v;
  ASSERT_TRUE(Json::parse("42", v));
  EXPECT_EQ(v.type(), Json::Type::kUint);
  EXPECT_EQ(v.as_uint(), 42u);
  ASSERT_TRUE(Json::parse("-42", v));
  EXPECT_EQ(v.type(), Json::Type::kInt);
  EXPECT_EQ(v.as_int(), -42);
  ASSERT_TRUE(Json::parse("4.5", v));
  EXPECT_EQ(v.type(), Json::Type::kDouble);
  EXPECT_EQ(v.as_double(), 4.5);
  ASSERT_TRUE(Json::parse("1e3", v));
  EXPECT_EQ(v.type(), Json::Type::kDouble);
  EXPECT_EQ(v.as_double(), 1000.0);
  // The numeric accessors coerce across kinds with a fallback on mismatch.
  ASSERT_TRUE(Json::parse("7", v));
  EXPECT_EQ(v.as_double(), 7.0);
  EXPECT_EQ(v.as_string(), "");
  ASSERT_TRUE(Json::parse("-1", v));
  EXPECT_EQ(v.as_uint(123), 123u);  // negative cannot coerce to unsigned
}

TEST(JsonParser, DecodesEscapes) {
  Json v;
  ASSERT_TRUE(Json::parse(R"("a\"b\\c\ndAé")", v));
  EXPECT_EQ(v.as_string(), "a\"b\\c\ndA\xc3\xa9");  // é = é in UTF-8
}

TEST(JsonParser, RejectsMalformedInputWithOffset) {
  Json v;
  std::string err;
  EXPECT_FALSE(Json::parse("{\"a\": 1,", v, &err));
  EXPECT_NE(err.find("at byte"), std::string::npos);
  EXPECT_FALSE(Json::parse("[1, 2] trailing", v, &err));
  EXPECT_FALSE(Json::parse("tru", v, &err));
  EXPECT_FALSE(Json::parse("", v, &err));
  EXPECT_FALSE(Json::parse("{\"a\" 1}", v, &err));

  // Pathological nesting is bounded, not a stack overflow.
  std::string deep(512, '[');
  deep += std::string(512, ']');
  EXPECT_FALSE(Json::parse(deep, v, &err));
  EXPECT_NE(err.find("deep"), std::string::npos);
}

TEST(BenchArgs, ParsesKnownFlagsAndCompactsRest) {
  const char* raw[] = {"prog",   "--n-list", "64,128,256", "--quiet",
                       "--seed", "7",        "--benchmark_filter=x",
                       "--json-out", "/tmp/x", nullptr};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = static_cast<int>(argv.size()) - 1;

  bench::Args args = bench::Args::parse(argc, argv.data());
  EXPECT_EQ(args.n_list, (std::vector<std::size_t>{64, 128, 256}));
  EXPECT_EQ(args.seed, 7u);
  EXPECT_TRUE(args.quiet);
  EXPECT_EQ(args.json_out, "/tmp/x");
  EXPECT_TRUE(args.json_enabled());
  // The unknown flag survives for a downstream parser.
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "--benchmark_filter=x");
  EXPECT_EQ(argv[2], nullptr);

  EXPECT_TRUE(bench::quiet());
  bench::set_quiet(false);  // do not leak into other tests
}

TEST(BenchArgs, DefaultsAndHelpers) {
  const char* raw[] = {"prog", nullptr};
  std::vector<char*> argv{const_cast<char*>(raw[0]), nullptr};
  int argc = 1;
  bench::Args args = bench::Args::parse(argc, argv.data());
  EXPECT_TRUE(args.n_list.empty());
  EXPECT_EQ(args.seed, 0u);
  EXPECT_EQ(args.json_out, ".");
  EXPECT_FALSE(args.quiet);
  EXPECT_EQ(args.sizes({8, 16}), (std::vector<std::size_t>{8, 16}));
  EXPECT_EQ(args.n_or(512), 512u);
  EXPECT_EQ(args.seed_or(42), 42u);

  const char* raw2[] = {"prog", "--n-list", "32", "--no-json", nullptr};
  std::vector<char*> argv2;
  for (const char* a : raw2) argv2.push_back(const_cast<char*>(a));
  int argc2 = static_cast<int>(argv2.size()) - 1;
  bench::Args args2 = bench::Args::parse(argc2, argv2.data());
  EXPECT_FALSE(args2.json_enabled());
  EXPECT_EQ(args2.sizes({8, 16}), (std::vector<std::size_t>{32}));
  EXPECT_EQ(args2.n_or(512), 32u);
}

TEST(AllocHooks, StubReportsInactiveWhenHooksAreNotLinked) {
  // This binary does NOT link the srds_alloc_hooks OBJECT library, so the
  // [[gnu::weak]] stubs must win: the counter pins at 0 and active() is
  // false (tests/prof_test.cpp asserts the linked side).
  EXPECT_FALSE(obs::alloc_hooks_active());
  const std::uint64_t before = obs::alloc_ops();
  std::vector<std::uint64_t> v(128, 1);
  EXPECT_EQ(v.size(), 128u);
  EXPECT_EQ(obs::alloc_ops(), before);
  EXPECT_EQ(before, 0u);
}

}  // namespace
}  // namespace srds
