// srds-lint engine tests: every rule against a fixture with known
// violations (exact rule IDs and line numbers), suppression semantics,
// severity overrides, path scoping, and — reusing the PR 2 determinism-
// guard pattern — byte-identical JSON output across two runs.
//
// Fixtures live in tests/lint_fixtures/ and are linted under *logical*
// paths (the engine scopes rules by repo-relative path, so the same bytes
// can be checked as protocol code, network code, or rng-home code).

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <cstdio>
#include <filesystem>

#include "graph.hpp"
#include "lint.hpp"
#include "obs/json.hpp"
#include "taint.hpp"

namespace srds::lint {
namespace {

std::string fixture(const std::string& name) {
  const std::string path = std::string(SRDS_LINT_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// (rule, line) pairs of unsuppressed findings, sorted.
std::set<std::pair<std::string, std::size_t>> hits(const std::vector<Finding>& fs) {
  std::set<std::pair<std::string, std::size_t>> out;
  for (const Finding& f : fs) {
    if (!f.suppressed) out.insert({f.rule, f.line});
  }
  return out;
}

TEST(LintD1, FlagsEveryNondeterminismSourceInProtocolDirs) {
  const auto fs = lint_file("src/ba/d1_nondet.cpp", fixture("d1_nondet.cpp"), {});
  const std::set<std::pair<std::string, std::size_t>> expected = {
      {"D1", 5},   // #include <unordered_map>
      {"D1", 12},  // rand()
      {"D1", 13},  // std::random_device
      {"D1", 14},  // time(nullptr)
      {"D1", 15},  // chrono::system_clock
      {"D1", 16},  // std::mt19937
      {"D1", 21},  // unordered_map
      {"D1", 22},  // unordered_set
  };
  EXPECT_EQ(hits(fs), expected);
}

TEST(LintD1, UnorderedContainersAllowedOutsideProtocolDirs) {
  const auto fs = lint_file("src/obs/d1_nondet.cpp", fixture("d1_nondet.cpp"), {});
  const std::set<std::pair<std::string, std::size_t>> expected = {
      {"D1", 12}, {"D1", 13}, {"D1", 14}, {"D1", 15}, {"D1", 16},
  };
  EXPECT_EQ(hits(fs), expected);
}

TEST(LintD1, RngHomeIsExemptFromRandomnessChecks) {
  const auto fs = lint_file("src/common/rng.cpp", fixture("d1_nondet.cpp"), {});
  EXPECT_TRUE(hits(fs).empty());
}

TEST(LintB1, FlagsRawMessageConstructionOutsideNet) {
  const auto fs =
      lint_file("src/consensus/b1_raw_message.cpp", fixture("b1_raw_message.cpp"), {});
  const std::set<std::pair<std::string, std::size_t>> expected = {
      {"B1", 10},  // braced construction
      {"B1", 14},  // functional cast
  };
  EXPECT_EQ(hits(fs), expected);
}

TEST(LintB1, NetLayerMayConstructMessages) {
  const auto fs = lint_file("src/net/b1_raw_message.cpp", fixture("b1_raw_message.cpp"), {});
  EXPECT_TRUE(hits(fs).empty());
}

TEST(LintS1, FlagsSerializeWithoutDeserialize) {
  const auto fs = lint_file("src/srds/s1_serialize.hpp", fixture("s1_serialize.hpp"), {});
  const std::set<std::pair<std::string, std::size_t>> expected = {
      {"S1", 17},  // OneWay::serialize
  };
  EXPECT_EQ(hits(fs), expected);
}

TEST(LintS1, RequiresRoundTripTestReferenceWhenCorpusGiven) {
  Config cfg;
  cfg.test_corpus = "TEST(RoundTrip, Works) { fixture::RoundTrip x; }";
  const auto fs = lint_file("src/srds/s1_serialize.hpp", fixture("s1_serialize.hpp"), cfg);
  // RoundTrip is referenced; OneWay still lacks deserialize.
  EXPECT_EQ(hits(fs), (std::set<std::pair<std::string, std::size_t>>{{"S1", 17}}));

  Config empty_corpus;
  empty_corpus.test_corpus = "TEST(Unrelated, Nothing) {}";
  const auto fs2 =
      lint_file("src/srds/s1_serialize.hpp", fixture("s1_serialize.hpp"), empty_corpus);
  // Now RoundTrip (declared line 10) is also flagged: no test references it.
  EXPECT_EQ(hits(fs2),
            (std::set<std::pair<std::string, std::size_t>>{{"S1", 10}, {"S1", 17}}));
}

TEST(LintH1, FlagsMissingGuardAndUsingNamespace) {
  const auto fs = lint_file("src/tree/h1_header.hpp", fixture("h1_header.hpp"), {});
  const std::set<std::pair<std::string, std::size_t>> expected = {
      {"H1", 1},  // no #pragma once / include guard
      {"H1", 6},  // using namespace in header
  };
  EXPECT_EQ(hits(fs), expected);
}

TEST(LintH1, SourceFilesAreNotHeaderChecked) {
  // Same bytes as a .cpp: H1 does not apply.
  const auto fs = lint_file("src/tree/h1_header.cpp", fixture("h1_header.hpp"), {});
  EXPECT_TRUE(hits(fs).empty());
}

TEST(LintClean, CleanFixtureHasNoFindingsAnywhere) {
  const std::string content = fixture("clean.hpp");
  Config cfg;
  cfg.test_corpus = "fixture::Pair round trip";
  for (const char* path : {"src/ba/clean.hpp", "src/consensus/clean.hpp",
                           "src/net/clean.hpp", "src/obs/clean.hpp"}) {
    const auto fs = lint_file(path, content, cfg);
    EXPECT_TRUE(fs.empty()) << path << ": " << (fs.empty() ? "" : fs.front().message);
  }
}

TEST(LintSuppress, JustifiedSuppressionsCoverTrailingAndNextLine) {
  const auto fs = lint_file("src/obs/suppressed.cpp", fixture("suppressed.cpp"), {});
  // Unsuppressed: the malformed allow() lines keep their D1 findings and
  // gain A0 findings.
  const std::set<std::pair<std::string, std::size_t>> expected = {
      {"A0", 16},  // allow(D1) with no justification
      {"A0", 20},  // allow(Z9): unknown rule
      {"D1", 16},
      {"D1", 20},
  };
  EXPECT_EQ(hits(fs), expected);

  // Suppressed: the justified trailing comment (line 7) and the justified
  // comment-only line covering the next code line (12).
  std::set<std::pair<std::string, std::size_t>> suppressed;
  for (const Finding& f : fs) {
    if (f.suppressed) {
      EXPECT_FALSE(f.justification.empty());
      suppressed.insert({f.rule, f.line});
    }
  }
  const std::set<std::pair<std::string, std::size_t>> expected_suppressed = {
      {"D1", 7},
      {"D1", 12},
  };
  EXPECT_EQ(suppressed, expected_suppressed);

  EXPECT_TRUE(has_blocking(fs));  // the malformed ones still block
}

TEST(LintSeverity, OverridesDowngradeAndDisable) {
  Config warn;
  warn.overrides.emplace_back("D1", Severity::kWarn);
  const auto fs = lint_file("src/ba/d1_nondet.cpp", fixture("d1_nondet.cpp"), warn);
  EXPECT_FALSE(fs.empty());
  EXPECT_FALSE(has_blocking(fs));  // warnings never block

  Config off;
  off.overrides.emplace_back("D1", Severity::kOff);
  const auto fs2 = lint_file("src/ba/d1_nondet.cpp", fixture("d1_nondet.cpp"), off);
  EXPECT_TRUE(fs2.empty());
}

TEST(LintEngine, RuleTableLooksUpEveryRule) {
  std::vector<std::string> ids;
  for (const RuleInfo& r : rules()) {
    const RuleInfo* found = find_rule(r.id);
    ASSERT_NE(found, nullptr);
    EXPECT_STREQ(found->id, r.id);
    ids.emplace_back(r.id);
  }
  // The exact table, in report order: a rule can only join or leave it
  // deliberately.
  const std::vector<std::string> want = {"D1", "B1", "S1", "H1", "L1", "T1",
                                         "P1", "P2", "T2", "A0"};
  EXPECT_EQ(ids, want);
  EXPECT_EQ(find_rule("Z9"), nullptr);
  EXPECT_EQ(find_rule("C1"), nullptr);
  EXPECT_EQ(find_rule("C2"), nullptr);
  EXPECT_EQ(find_rule("C3"), nullptr);
}

// The determinism guard, ported from tests/trace_test.cpp: two full runs
// over the same inputs must produce byte-identical JSON artifacts (sorted
// findings, no timestamps, no environment leakage).
TEST(LintDeterminism, JsonIsByteIdenticalAcrossRuns) {
  const std::vector<std::pair<std::string, std::string>> inputs = {
      {"src/ba/d1_nondet.cpp", fixture("d1_nondet.cpp")},
      {"src/consensus/b1_raw_message.cpp", fixture("b1_raw_message.cpp")},
      {"src/srds/s1_serialize.hpp", fixture("s1_serialize.hpp")},
      {"src/tree/h1_header.hpp", fixture("h1_header.hpp")},
      {"src/obs/suppressed.cpp", fixture("suppressed.cpp")},
      {"src/net/clean.hpp", fixture("clean.hpp")},
  };
  Config cfg;
  cfg.test_corpus = "fixture::Pair fixture::RoundTrip";

  const auto run = [&] {
    const auto fs = lint_files(inputs, cfg);
    return findings_json(fs, inputs.size()).dump(2);
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b) << "lint JSON must be byte-identical across runs";
  EXPECT_NE(a.find("\"tool\": \"srds-lint\""), std::string::npos);

  // Sanity on the summary block: the fixture set has a known shape.
  const auto fs = lint_files(inputs, cfg);
  std::size_t suppressed = 0;
  for (const Finding& f : fs) suppressed += f.suppressed ? 1 : 0;
  EXPECT_EQ(suppressed, 2u);
  EXPECT_TRUE(has_blocking(fs));
}

TEST(LintReport, HumanReportNamesRuleAndLocation) {
  const auto fs = lint_file("src/ba/d1_nondet.cpp", fixture("d1_nondet.cpp"), {});
  const std::string rep = human_report(fs, 1, /*verbose_suppressed=*/false);
  EXPECT_NE(rep.find("src/ba/d1_nondet.cpp:12: error: [D1]"), std::string::npos);
  EXPECT_NE(rep.find("1 files"), std::string::npos);
}

// ---------------------------------------------------------------------------
// L1: cross-TU layering (graph.hpp). Tests use a reduced manifest with the
// same shape as tools/srds-lint/layers.toml.

const char* kTestManifest =
    "# test manifest\n"
    "[layers]\n"
    "common = []\n"
    "obs = [\"common\"]\n"
    "crypto = [\"common\"]\n"
    "net = [\"common\"]\n"
    "ba = [\"common\", \"crypto\", \"net\"]\n"
    "[open]\n"
    "modules = [\"obs\"]\n"
    "[unrestricted]\n"
    "modules = [\"tests\", \"bench\"]\n";

Config layered_cfg() {
  Config cfg;
  cfg.layers_manifest = kTestManifest;
  cfg.layers_manifest_path = "test-layers.toml";
  return cfg;
}

TEST(LintLayersManifest, ParsesTheCheckedInShape) {
  LayerManifest m;
  std::string error;
  ASSERT_TRUE(parse_layers(kTestManifest, m, error)) << error;
  ASSERT_NE(m.deps_of("ba"), nullptr);
  EXPECT_EQ(*m.deps_of("ba"), (std::vector<std::string>{"common", "crypto", "net"}));
  ASSERT_NE(m.deps_of("common"), nullptr);
  EXPECT_TRUE(m.deps_of("common")->empty());
  EXPECT_TRUE(m.is_open("obs"));
  EXPECT_FALSE(m.is_open("net"));
  EXPECT_TRUE(m.is_unrestricted("tests"));
  EXPECT_FALSE(m.declares("snark"));
}

TEST(LintLayersManifest, RejectsMalformedInput) {
  LayerManifest m;
  std::string error;
  EXPECT_FALSE(parse_layers("[layers]\nnet = [\"common\"\n", m, error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  EXPECT_FALSE(parse_layers("[nope]\n", m, error));
  EXPECT_NE(error.find("unknown section"), std::string::npos) << error;

  EXPECT_FALSE(parse_layers("net = []\n", m, error));
  EXPECT_NE(error.find("before any"), std::string::npos) << error;

  EXPECT_FALSE(parse_layers("[layers]\nnet = []\nnet = []\n", m, error));
  EXPECT_NE(error.find("duplicate module 'net'"), std::string::npos) << error;

  EXPECT_FALSE(parse_layers("[layers]\nnet = [\"ghost\"]\n", m, error));
  EXPECT_NE(error.find("undeclared module 'ghost'"), std::string::npos) << error;
}

TEST(LintLayersManifest, RejectsDeclaredDependencyCycle) {
  LayerManifest m;
  std::string error;
  const char* cyclic =
      "[layers]\n"
      "a = [\"b\"]\n"
      "b = [\"c\"]\n"
      "c = [\"a\"]\n";
  EXPECT_FALSE(parse_layers(cyclic, m, error));
  EXPECT_NE(error.find("declared dependencies form a cycle"), std::string::npos) << error;
  EXPECT_NE(error.find("a -> b -> c -> a"), std::string::npos) << error;
}

TEST(LintLayersGraph, ModuleOfMapsRepoPaths) {
  EXPECT_EQ(module_of("src/ba/ae_boost.cpp"), "ba");
  EXPECT_EQ(module_of("src/common/message.hpp"), "common");
  EXPECT_EQ(module_of("src/version.hpp"), "src");
  EXPECT_EQ(module_of("tests/lint_test.cpp"), "tests");
  EXPECT_EQ(module_of("bench/bench_main.cpp"), "bench");
}

TEST(LintL1, LegalEdgeProducesNoFinding) {
  const auto fs = lint_files({{"src/ba/l1_legal_edge.cpp", fixture("l1_legal_edge.cpp")}},
                             layered_cfg());
  EXPECT_TRUE(hits(fs).empty()) << (fs.empty() ? "" : fs.front().message);
}

TEST(LintL1, IllegalEdgeNamesTheOffendingInclude) {
  const auto fs = lint_files(
      {{"src/crypto/l1_illegal_edge.cpp", fixture("l1_illegal_edge.cpp")}}, layered_cfg());
  EXPECT_EQ(hits(fs), (std::set<std::pair<std::string, std::size_t>>{{"L1", 4}}));
  ASSERT_FALSE(fs.empty());
  EXPECT_NE(fs.front().message.find("crypto -> ba"), std::string::npos);
  EXPECT_NE(fs.front().message.find("#include \"ba/ae_boost.hpp\""), std::string::npos);
  // No back-edge ba -> crypto in this file set: no cycle text.
  EXPECT_EQ(fs.front().message.find("cycle"), std::string::npos);
}

TEST(LintL1, CycleIsReportedOnBothEdgesWithShortestPath) {
  const auto fs = lint_files({{"src/net/l1_cycle_a.hpp", fixture("l1_cycle_a.hpp")},
                              {"src/crypto/l1_cycle_b.hpp", fixture("l1_cycle_b.hpp")}},
                             layered_cfg());
  const std::set<std::pair<std::string, std::size_t>> expected = {
      {"L1", 9},  // net -> crypto in l1_cycle_a.hpp
      {"L1", 5},  // crypto -> net in l1_cycle_b.hpp
  };
  EXPECT_EQ(hits(fs), expected);
  for (const Finding& f : fs) {
    EXPECT_NE(f.message.find("closes module cycle"), std::string::npos) << f.message;
  }
}

TEST(LintL1, OpenAndUnrestrictedModulesAreExempt) {
  const auto fs = lint_files(
      {
          // obs is [open]: includable from any module.
          {"src/crypto/uses_obs.cpp", "#include \"obs/trace.hpp\"\n"},
          // tests/ is [unrestricted]: may include anything.
          {"tests/top_test.cpp", "#include \"ba/ae_boost.hpp\"\n"},
          // an include naming no declared module is third-party, not an edge.
          {"src/net/uses_vendor.cpp", "#include \"vendor/lib.hpp\"\n"},
      },
      layered_cfg());
  EXPECT_TRUE(hits(fs).empty()) << (fs.empty() ? "" : fs.front().message);
}

TEST(LintL1, UndeclaredSrcModuleIsFlagged) {
  const auto fs = lint_files({{"src/zzz/new_module.cpp", "#include \"net/message.hpp\"\n"}},
                             layered_cfg());
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs.front().rule, "L1");
  EXPECT_NE(fs.front().message.find("module 'zzz'"), std::string::npos);
  EXPECT_NE(fs.front().message.find("not declared in layers.toml"), std::string::npos);
}

TEST(LintL1, BadManifestIsItselfAFinding) {
  Config cfg;
  cfg.layers_manifest = "[layers]\nnet = [broken\n";
  cfg.layers_manifest_path = "test-layers.toml";
  const auto fs = lint_files({{"src/net/x.cpp", "int x;\n"}}, cfg);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs.front().rule, "L1");
  EXPECT_EQ(fs.front().file, "test-layers.toml");
  EXPECT_NE(fs.front().message.find("bad layers manifest"), std::string::npos);
}

TEST(LintGraphDot, DotExportIsDeterministic) {
  const std::vector<std::pair<std::string, std::string>> inputs = {
      {"src/net/l1_cycle_a.hpp", fixture("l1_cycle_a.hpp")},
      {"src/crypto/l1_cycle_b.hpp", fixture("l1_cycle_b.hpp")},
      {"src/ba/l1_legal_edge.cpp", fixture("l1_legal_edge.cpp")},
  };
  const std::string a = dep_graph_dot(build_dep_graph(inputs));
  const std::string b = dep_graph_dot(build_dep_graph(inputs));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("digraph srds_modules"), std::string::npos);
  EXPECT_NE(a.find("\"ba\" -> \"crypto\";"), std::string::npos);
  EXPECT_NE(a.find("\"net\" -> \"crypto\";"), std::string::npos);
  EXPECT_NE(a.find("\"crypto\" -> \"net\";"), std::string::npos);
}

// ---------------------------------------------------------------------------
// T1: adversarial-input taint (taint.hpp).

TEST(LintT1, RawPayloadReadsAreFlagged) {
  const auto fs = lint_file("src/ba/t1_raw_read.cpp", fixture("t1_raw_read.cpp"), {});
  const std::set<std::pair<std::string, std::size_t>> expected = {
      {"T1", 10},  // indexing
      {"T1", 14},  // .data() pointer escape
      {"T1", 19},  // memcpy over the buffer
      {"T1", 23},  // read *before* the validate call
      {"T1", 29},  // Payload::view() span escape
  };
  EXPECT_EQ(hits(fs), expected);
}

TEST(LintT1, ValidatedReadsPass) {
  const auto fs = lint_file("src/ba/t1_validated.cpp", fixture("t1_validated.cpp"), {});
  EXPECT_TRUE(hits(fs).empty()) << (fs.empty() ? "" : fs.front().message);
}

TEST(LintT1, HelperReadIsFlaggedInTheHelperOnly) {
  const auto fs = lint_file("src/ba/t1_helper.cpp", fixture("t1_helper.cpp"), {});
  EXPECT_EQ(hits(fs), (std::set<std::pair<std::string, std::size_t>>{{"T1", 10}}));
  ASSERT_FALSE(fs.empty());
  EXPECT_NE(fs.front().message.find("t1_peek_helper"), std::string::npos);
}

TEST(LintT1, OnlyProtocolDirsAreInScope) {
  // Same bytes under src/net (the layer that owns raw delivery): no T1.
  const auto fs = lint_file("src/net/t1_raw_read.cpp", fixture("t1_raw_read.cpp"), {});
  EXPECT_TRUE(hits(fs).empty());
}

// ---------------------------------------------------------------------------
// P1: hot-path hygiene (taint.hpp).

TEST(LintP1, MarkedFunctionsRejectThrowNewAndTypeErasure) {
  const auto fs = lint_file("src/net/p1_hotpath.cpp", fixture("p1_hotpath.cpp"), {});
  const std::set<std::pair<std::string, std::size_t>> expected = {
      {"P1", 11},  // throw
      {"P1", 17},  // new
      {"P1", 22},  // std::function
  };
  EXPECT_EQ(hits(fs), expected);
}

TEST(LintP1, UnmatchedMarkerIsItselfFlagged) {
  const std::string content =
      "// srds-lint: hotpath\n"
      "int kNotAFunction = 3;\n";
  const auto fs = lint_file("src/net/p1_dangling.cpp", content, {});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs.front().rule, "P1");
  EXPECT_NE(fs.front().message.find("matches no function body"), std::string::npos);
}

TEST(LintP1, FunctionBodyMapFindsDeclarators) {
  const Lexed lx = lex(fixture("p1_hotpath.cpp"));
  const std::vector<FuncBody> bodies = function_bodies(lx);
  std::vector<std::string> names;
  for (const FuncBody& b : bodies) names.push_back(b.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"p1_marked_throw", "p1_marked_new",
                                      "p1_marked_type_erase", "p1_marked_clean",
                                      "p1_unmarked"}));
}

// ---------------------------------------------------------------------------
// Lexer hardening (lex.hpp): constructs that must not desynchronize the
// token stream or the brace-matching body map.

TEST(LintLex, HardeningFixtureProducesNoFindings) {
  // Raw strings (plain and prefixed) holding braces/quotes/rand(), a
  // backslash-continued line comment, block-comment braces, and dead
  // preprocessor branches: none of it is protocol code, so none of it may
  // fire a rule even under the strictest path scope.
  const auto fs = lint_file("src/ba/lex_hardening.cpp", fixture("lex_hardening.cpp"), {});
  EXPECT_TRUE(hits(fs).empty());
}

TEST(LintLex, BodyMapSurvivesRawStringsCommentsAndConditionals) {
  const Lexed lx = lex(fixture("lex_hardening.cpp"));
  const std::vector<FuncBody> bodies = function_bodies(lx);
  std::vector<std::string> names;
  for (const FuncBody& b : bodies) names.push_back(b.name);
  // branch_b lives in the dead #else arm and must be invisible; the junk
  // braces under #if 0 must not split after_conditional off the map.
  EXPECT_EQ(names, (std::vector<std::string>{"braces_in_strings", "branch_a",
                                             "after_conditional"}));
}

TEST(LintLex, MalformedRawStringDelimiterFallsBackToNormalLexing) {
  // A 17-char raw-string delimiter is ill-formed C++; the lexer must not
  // treat it as a raw string (and must keep lexing what follows).
  const Lexed lx = lex("int a = 0; // R\"aaaaaaaaaaaaaaaaa(not raw\n"
                       "int f() { return a; }\n");
  const std::vector<FuncBody> bodies = function_bodies(lx);
  ASSERT_EQ(bodies.size(), 1u);
  EXPECT_EQ(bodies[0].name, "f");
}

TEST(LintLex, ClassicIncludeGuardSurvivesConditionalLexing) {
  // H1 accepts classic guards; the conditional-branch tracking must still
  // record the guard's directives (the first branch of #ifndef is live).
  const std::string guarded =
      "#ifndef SRDS_X_HPP\n"
      "#define SRDS_X_HPP\n"
      "int x();\n"
      "#endif\n";
  const auto fs = lint_file("src/net/x.hpp", guarded, {});
  EXPECT_TRUE(hits(fs).empty());
}

// ---------------------------------------------------------------------------
// Artifact writes.

// Regression: srds-lint's artifact writes (obs::write_text_file) into a
// directory that does not exist yet must create the parents instead of
// failing (fresh CI workspace handing the linter artifacts/LINT_x.json
// before anything created artifacts/).
TEST(LintBaseline, WriteTextFileCreatesMissingParentDirs) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() / "srds_lint_test_artifacts" / "nested" / "deep";
  fs::remove_all(root.parent_path().parent_path());
  const fs::path target = root / "LINT_x.json";
  ASSERT_FALSE(fs::exists(root));
  EXPECT_TRUE(obs::write_text_file(target.string(), "{}\n"));
  std::ifstream in(target);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{}\n");
  fs::remove_all(root.parent_path().parent_path());
}

// ---------------------------------------------------------------------------
// Extended determinism: the full engine (graph + taint passes, stats block)
// still emits byte-identical JSON across runs.

TEST(LintDeterminism, GraphAndTaintPassesKeepJsonByteIdentical) {
  const std::vector<std::pair<std::string, std::string>> inputs = {
      {"src/crypto/l1_illegal_edge.cpp", fixture("l1_illegal_edge.cpp")},
      {"src/net/l1_cycle_a.hpp", fixture("l1_cycle_a.hpp")},
      {"src/crypto/l1_cycle_b.hpp", fixture("l1_cycle_b.hpp")},
      {"src/ba/t1_raw_read.cpp", fixture("t1_raw_read.cpp")},
      {"src/ba/t1_validated.cpp", fixture("t1_validated.cpp")},
      {"src/net/p1_hotpath.cpp", fixture("p1_hotpath.cpp")},
  };
  const auto run = [&] {
    const auto fs = lint_files(inputs, layered_cfg());
    obs::Json stats = obs::Json::object();
    stats.set("files", static_cast<unsigned long long>(inputs.size()));
    return findings_json(fs, inputs.size(), &stats).dump(2);
  };
  const std::string a = run();
  EXPECT_EQ(a, run());
  EXPECT_NE(a.find("\"schema\": 2"), std::string::npos);
  EXPECT_NE(a.find("\"stats\""), std::string::npos);
  EXPECT_NE(a.find("\"rule\": \"L1\""), std::string::npos);
  EXPECT_NE(a.find("\"rule\": \"T1\""), std::string::npos);

  const auto fs = lint_files(inputs, layered_cfg());
  std::set<std::string> rules_seen;
  for (const Finding& f : fs) rules_seen.insert(f.rule);
  EXPECT_TRUE(rules_seen.count("L1"));
  EXPECT_TRUE(rules_seen.count("T1"));
  EXPECT_TRUE(rules_seen.count("P1"));
}

}  // namespace
}  // namespace srds::lint
