// Concurrency stress for the observability layer. These are the tests the
// TSan leg of the sanitizer matrix exists for (SRDS_SANITIZE=thread runs
// `ctest -L chaos` in CI): worker threads hammer the metrics registry and
// a bench Reporter through every public entry point at once, and TSan
// checks the locking discipline while the assertions check the arithmetic.
//
// Labeled `chaos` (see tests/CMakeLists.txt) alongside the fault-injection
// suite: both probe behavior under hostile scheduling rather than protocol
// logic.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "report.hpp"

namespace srds {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kOpsPerThread = 5000;

TEST(ObsThreaded, SharedCounterCountsEveryIncrement) {
  obs::Registry reg;
  obs::Counter& shared = reg.counter("shared_ops");
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&shared] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) shared.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(shared.value(), kThreads * kOpsPerThread);
}

TEST(ObsThreaded, ConcurrentRegistrationDeduplicates) {
  obs::Registry reg;
  std::vector<std::thread> workers;
  // Every thread registers the *same* labeled metrics; the registry must
  // hand all of them the same storage, never a duplicate entry.
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        reg.counter("msgs", {{"proto", "pi_ba"}}).inc();
        reg.histogram("payload", {{"proto", "pi_ba"}}).record(i);
        reg.gauge("round", {{"proto", "pi_ba"}}).set(static_cast<double>(t));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.counter("msgs", {{"proto", "pi_ba"}}).value(), kThreads * kOpsPerThread);
  EXPECT_EQ(reg.histogram("payload", {{"proto", "pi_ba"}}).count(),
            kThreads * kOpsPerThread);
}

TEST(ObsThreaded, HistogramInvariantsHoldUnderContention) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("latency");
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (std::size_t i = 1; i <= kOpsPerThread; ++i) {
        h.record(t * kOpsPerThread + i);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), kThreads * kOpsPerThread);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), kThreads * kOpsPerThread);
  // Sum of 1..N.
  const std::uint64_t n = kThreads * kOpsPerThread;
  EXPECT_EQ(h.sum(), n * (n + 1) / 2);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) bucket_total += h.bucket(b);
  EXPECT_EQ(bucket_total, h.count());
}

TEST(ObsThreaded, ExportWhileWritingIsConsistent) {
  obs::Registry reg;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads / 2; ++t) {
    workers.emplace_back([&reg] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        reg.counter("ops").inc();
        reg.histogram("sizes").record(i);
      }
    });
  }
  // Readers export concurrently; every snapshot must parse as a complete
  // document (TSan checks the memory side, we check structure).
  for (std::size_t t = 0; t < 2; ++t) {
    workers.emplace_back([&reg] {
      for (std::size_t i = 0; i < 50; ++i) {
        obs::Json doc = reg.to_json();
        ASSERT_TRUE(doc.find("counters") != nullptr);
        ASSERT_TRUE(doc.find("histograms") != nullptr);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter("ops").value(), (kThreads / 2) * kOpsPerThread);
}

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
