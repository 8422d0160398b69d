// srds-lint call-graph engine tests (callgraph.hpp): graph construction,
// resolution fallback, cycle termination, the P2/T2 interprocedural
// passes, hotpath-allow manifest semantics (allows, stale entries, parse
// errors), stale markers and the census stats.
//
// Fixtures live in tests/lint_fixtures/ next to the per-rule ones and are
// linted under *logical* paths (the engine scopes rules by repo-relative
// path); expected line numbers are pinned to the fixture sources.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "callgraph.hpp"
#include "lint.hpp"
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

/// (rule, line) pairs of unsuppressed findings for one rule, sorted.
std::set<std::pair<std::string, std::size_t>> rule_hits(const std::vector<Finding>& fs,
                                                        const std::string& rule) {
  std::set<std::pair<std::string, std::size_t>> out;
  for (const Finding& f : fs) {
    if (!f.suppressed && f.rule == rule) out.insert({f.rule, f.line});
  }
  return out;
}

const Finding* find_at(const std::vector<Finding>& fs, const std::string& rule,
                       std::size_t line) {
  for (const Finding& f : fs) {
    if (f.rule == rule && f.line == line) return &f;
  }
  return nullptr;
}

std::vector<std::pair<std::string, std::string>> overload_inputs() {
  return {{"src/srds/cg_overload_a.cpp", fixture("cg_overload_a.cpp")},
          {"src/srds/cg_overload_b.cpp", fixture("cg_overload_b.cpp")},
          {"src/srds/cg_overload_c.cpp", fixture("cg_overload_c.cpp")}};
}

// ---------------------------------------------------------------------------
// Graph construction.
// ---------------------------------------------------------------------------

TEST(CallGraphBuild, FindsDefinitionsAndCrossFileEdges) {
  const CallGraph cg = build_call_graph(
      {{"src/mpc/party.cpp", "std::vector<int> DemoParty::on_round(std::size_t round) {\n"
                             "  prepare(round);\n"
                             "  return {};\n"
                             "}\n"
                             "void DemoParty::prepare(std::size_t round) {\n"
                             "  bump_counter(round);\n"
                             "  Config::instance();\n"
                             "}\n"},
       {"src/mpc/state.cpp", "void bump_counter(std::size_t round) {\n"
                             "  (void)round;\n"
                             "}\n"}});
  ASSERT_EQ(cg.files.size(), 2u);
  ASSERT_EQ(cg.defs.size(), 3u);

  const auto edge = [&](const std::string& from, const std::string& to) {
    for (const FuncDef& d : cg.defs) {
      if (d.body.qual != from) continue;
      for (const CallSite& cs : d.calls) {
        for (std::size_t cal : cg.resolve(d, cs)) {
          if (cg.defs[cal].body.qual == to) return true;
        }
      }
    }
    return false;
  };
  // `prepare(round)` resolves to the same-class member, `bump_counter` to
  // the definition in the other file.
  EXPECT_TRUE(edge("DemoParty::on_round", "DemoParty::prepare"));
  EXPECT_TRUE(edge("DemoParty::prepare", "bump_counter"));

  // `Config::instance()` names no scanned definition: an external call.
  EXPECT_GT(cg.external_calls, 0u);
}

TEST(CallGraphBuild, StlMemberCallsStayOpaque) {
  // `out.push_back(x)` must not resolve into an unrelated class that
  // happens to define push_back — it is not recorded as a call at all.
  const CallGraph cg = build_call_graph(
      {{"src/mpc/a.cpp", "void caller(std::vector<int>& out, int x) {\n"
                         "  out.push_back(x);\n"
                         "}\n"},
       {"src/obs/b.cpp", "void Json::push_back(int v) {\n"
                         "  static int n = 0;\n"
                         "  ++n;\n"
                         "}\n"}});
  const FuncDef* caller = nullptr;
  for (const FuncDef& d : cg.defs) {
    if (d.body.qual == "caller") caller = &d;
  }
  ASSERT_NE(caller, nullptr);
  EXPECT_TRUE(caller->calls.empty());
}

// ---------------------------------------------------------------------------
// The traversal engine, probed through P2.
// ---------------------------------------------------------------------------

TEST(LintP2, CycleTerminatesAndReportsOnce) {
  const auto fs =
      lint_files({{"src/consensus/cg_cycle.cpp", fixture("cg_cycle.cpp")}}, {});
  const std::set<std::pair<std::string, std::size_t>> expected = {{"P2", 10}};
  EXPECT_EQ(rule_hits(fs, "P2"), expected);
  const Finding* f = find_at(fs, "P2", 10);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("call path: ping -> pong"), std::string::npos) << f->message;
}

TEST(LintP2, UnresolvedCallFallsBackToEveryCandidate) {
  const auto fs = lint_files(overload_inputs(), {});
  // Both same-name candidates are treated as reachable (over-approximation
  // by design): the allocation in b and the type erasure in c.
  const std::set<std::pair<std::string, std::size_t>> expected = {{"P2", 6}, {"P2", 4}};
  EXPECT_EQ(rule_hits(fs, "P2"), expected);
}

TEST(LintP1, StaleNamedMarkerIsAFinding) {
  const auto fs =
      lint_files({{"src/ba/cg_stale_markers.cpp", fixture("cg_stale_markers.cpp")}}, {});
  EXPECT_EQ(rule_hits(fs, "P1"),
            (std::set<std::pair<std::string, std::size_t>>{{"P1", 4}}));
  const Finding* p1 = find_at(fs, "P1", 4);
  ASSERT_NE(p1, nullptr);
  EXPECT_NE(p1->message.find("RemovedFast::send"), std::string::npos) << p1->message;
}

TEST(LintP2, QualifiedNameNeverMatchesADifferentClass) {
  Lexed lx = lex("struct A { void run() { } };\nstruct B { void run() { } };\n");
  const auto funcs = function_bodies(lx);
  ASSERT_EQ(funcs.size(), 2u);
  EXPECT_TRUE(marker_name_matches("A::run", funcs[0]));
  EXPECT_FALSE(marker_name_matches("A::run", funcs[1]));
  EXPECT_TRUE(marker_name_matches("run", funcs[1]));
}

// ---------------------------------------------------------------------------
// The hotpath-allow manifest.
// ---------------------------------------------------------------------------

TEST(ShardManifest, ParsesAllowsAndRejectsRoots) {
  ShardManifest m;
  std::string error;
  ASSERT_TRUE(parse_shard_manifest("# comment\n"
                                   "[allow]\n"
                                   "\"B::guard\" = \"cold error path\"\n",
                                   m, error))
      << error;
  ASSERT_EQ(m.allows.size(), 1u);
  EXPECT_EQ(m.allows[0].first, "B::guard");
  EXPECT_EQ(m.allows[0].second, "cold error path");

  // [allow] is the only section: P2 roots come from hotpath markers alone.
  EXPECT_FALSE(parse_shard_manifest("[roots]\nfunctions = [\"A::run\"]\n", m, error));
  EXPECT_NE(error.find("unknown section 'roots'"), std::string::npos) << error;
}

TEST(ShardManifest, AllowWithoutJustificationIsAParseError) {
  ShardManifest m;
  std::string error;
  EXPECT_FALSE(parse_shard_manifest("[allow]\n\"B::guard\" = \"\"\n", m, error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(ShardManifest, StaleEntriesAreFindingsAgainstTheManifest) {
  Config cfg;
  cfg.shard_manifest = "[allow]\n\"gone_guard\" = \"cold path\"\n";
  cfg.shard_manifest_path = "tools/srds-lint/hotpath_allow.toml";
  const auto fs =
      lint_files({{"src/consensus/cg_cycle.cpp", fixture("cg_cycle.cpp")}}, cfg);
  std::size_t stale = 0;
  for (const Finding& f : fs) {
    if (f.rule != "P2" || f.file != cfg.shard_manifest_path) continue;
    ++stale;
    EXPECT_NE(f.message.find("gone_guard"), std::string::npos) << f.message;
  }
  EXPECT_EQ(stale, 1u);
}

TEST(ShardManifest, AllowedFunctionStopsTheTraversal) {
  Config cfg;
  cfg.shard_manifest = "[allow]\n\"pong\" = \"recursion fixture: deliberately dirty\"\n";
  const auto fs =
      lint_files({{"src/consensus/cg_cycle.cpp", fixture("cg_cycle.cpp")}}, cfg);
  EXPECT_TRUE(rule_hits(fs, "P2").empty());
}

TEST(ShardManifest, ParseFailureIsItselfAFinding) {
  Config cfg;
  cfg.shard_manifest = "[allow]\nB::guard = unquoted\n";
  const auto fs =
      lint_files({{"src/consensus/cg_cycle.cpp", fixture("cg_cycle.cpp")}}, cfg);
  const Finding* f = nullptr;
  for (const Finding& g : fs) {
    if (g.rule == "P2" && g.file == cfg.shard_manifest_path) f = &g;
  }
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("bad hotpath-allow manifest"), std::string::npos) << f->message;
}

// ---------------------------------------------------------------------------
// P2 / T2: interprocedural discipline propagation.
// ---------------------------------------------------------------------------

TEST(LintP2, ThrowInCalleeReportedWithCallPath) {
  const auto fs =
      lint_files({{"src/net/cg_p2_chain.cpp", fixture("cg_p2_chain.cpp")}}, {});
  EXPECT_TRUE(rule_hits(fs, "P1").empty());  // the marked body itself is clean
  const std::set<std::pair<std::string, std::size_t>> expected = {{"P2", 10}};
  EXPECT_EQ(rule_hits(fs, "P2"), expected);
  const Finding* f = find_at(fs, "P2", 10);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("call path: fast_path -> slow_helper"), std::string::npos)
      << f->message;
}

TEST(LintT2, UnvalidatedHandoffReportedWithFlow) {
  const auto fs =
      lint_files({{"src/ba/cg_t2_handoff.cpp", fixture("cg_t2_handoff.cpp")}}, {});
  const std::set<std::pair<std::string, std::size_t>> expected = {{"T2", 15}};
  EXPECT_EQ(rule_hits(fs, "T2"), expected);
  const Finding* f = find_at(fs, "T2", 15);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("consume -> route -> forward"), std::string::npos)
      << f->message;
}

TEST(LintT2, OutOfScopeFilesAreExempt) {
  const auto fs =
      lint_files({{"src/obs/cg_t2_handoff.cpp", fixture("cg_t2_handoff.cpp")}}, {});
  EXPECT_TRUE(rule_hits(fs, "T2").empty());
}

// ---------------------------------------------------------------------------
// Census.
// ---------------------------------------------------------------------------

TEST(CallGraphStatsTest, CensusCountsRootsAndReachability) {
  CallGraphStats stats;
  (void)lint_files(overload_inputs(), {}, &stats);
  EXPECT_EQ(stats.functions, 3u);
  EXPECT_EQ(stats.hotpath_funcs, 1u);
  EXPECT_EQ(stats.hotpath_reachable, 3u);  // the whole closure, root included
  EXPECT_EQ(stats.call_edges, 2u);         // run_round -> both helpers
  EXPECT_EQ(stats.allowed_skips, 0u);
  EXPECT_GT(stats.external_calls, 0u);

  Config cfg;
  cfg.shard_manifest = "[allow]\n\"helper\" = \"census fixture\"\n";
  (void)lint_files(overload_inputs(), cfg, &stats);
  EXPECT_EQ(stats.hotpath_reachable, 1u);
  EXPECT_EQ(stats.allowed_skips, 2u);
}

}  // namespace
}  // namespace srds::lint
