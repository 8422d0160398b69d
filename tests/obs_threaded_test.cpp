// Concurrency stress for the bench Reporter (SRDS_SANITIZE=thread runs
// `ctest -L "chaos|svc"` in CI): worker threads append rows and set params
// at once, TSan checks the Reporter's mutex while the assertions check that
// no row is lost. The prof sites' atomics have their own stress tests,
// ProfConcurrency.* in tests/prof_test.cpp.
//
// Labeled `chaos` (see tests/CMakeLists.txt) alongside the fault-injection
// suite: both probe behavior under hostile scheduling rather than protocol
// logic.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "report.hpp"

namespace srds {
namespace {

constexpr std::size_t kThreads = 8;

TEST(ObsThreaded, ReporterRowsSurviveConcurrentAppends) {
  bench::Reporter rep("obs_threaded");
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&rep, t] {
      for (std::size_t i = 0; i < 200; ++i) {
        obs::Json m = obs::Json::object();
        m.set("thread", static_cast<unsigned long long>(t));
        rep.add_row(static_cast<double>(i), std::move(m));
        rep.set_param("threads", static_cast<unsigned long long>(kThreads));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(rep.rows(), kThreads * 200);
  obs::Json doc = rep.to_json(/*with_timestamp=*/false);
  const obs::Json* series = doc.find("series");
  ASSERT_TRUE(series != nullptr);
  EXPECT_EQ(series->items().size(), kThreads * 200);
}

}  // namespace
}  // namespace srds
