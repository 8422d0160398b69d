// Tests for the obs profiling layer (src/obs/prof.hpp): the lock-free
// record path under real concurrency, the tear-tolerant snapshot contract,
// scoped-timer enable/disable semantics, graceful perf_event absence, and
// the alloc-hook linkage model (this binary links the counting OBJECT
// library, so alloc_hooks_active() must be true here — obs_test asserts the
// stub side).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "obs/alloc_hooks.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"

namespace srds::obs {
namespace {

/// Every test leaves the global registry the way it found it: disabled and
/// zeroed. (Tests in one binary run sequentially.)
struct ProfGuard {
  ~ProfGuard() {
    prof_set_enabled(false);
    prof_reset();
  }
};

TEST(ProfSites, NamesAreHierarchical) {
  for (std::size_t i = 0; i < kProfSiteCount; ++i) {
    const char* name = prof_site_name(static_cast<ProfSiteId>(i));
    ASSERT_NE(name, nullptr) << "site " << i;
    EXPECT_NE(std::string(name).find('/'), std::string::npos)
        << "site names are module/phase/site paths: " << name;
  }
  EXPECT_STREQ(prof_site_name(ProfSiteId::kSimRound), "sim/round");
  EXPECT_STREQ(prof_site_name(ProfSiteId::kConsensusCoinDecide), "consensus/coin_toss/decide");
}

TEST(ProfSites, RecordMathAndBuckets) {
  ProfGuard guard;
  prof_reset();
  ProfSite& site = prof_site(ProfSiteId::kCryptoSha256);
  site.record_ns(100);
  site.record_ns(300);
  site.record_ns(7);
  EXPECT_EQ(site.count(), 3u);
  EXPECT_EQ(site.total_ns(), 407u);
  EXPECT_EQ(site.min_ns(), 7u);
  EXPECT_EQ(site.max_ns(), 300u);
  // log2 buckets: 7 -> bucket 2 (2^2..2^3), 100 -> 6, 300 -> 8.
  EXPECT_EQ(site.bucket(2), 1u);
  EXPECT_EQ(site.bucket(6), 1u);
  EXPECT_EQ(site.bucket(8), 1u);

  site.reset();
  EXPECT_EQ(site.count(), 0u);
  EXPECT_EQ(site.total_ns(), 0u);
  EXPECT_EQ(site.min_ns(), 0u) << "min of an empty site reads as 0";
}

TEST(ProfScope, DisabledScopeRecordsNothingAndEnabledRecords) {
  ProfGuard guard;
  prof_reset();
  ASSERT_FALSE(prof_enabled()) << "profiling must default to off";
  {
    PROF_SCOPE(ProfSiteId::kSimDeliver);
  }
  EXPECT_EQ(prof_site(ProfSiteId::kSimDeliver).count(), 0u);

  prof_set_enabled(true);
  {
    PROF_SCOPE(ProfSiteId::kSimDeliver);
  }
  {
    PROF_SCOPE(ProfSiteId::kSimDeliver);
  }
  const ProfSite& site = prof_site(ProfSiteId::kSimDeliver);
  EXPECT_EQ(site.count(), 2u);
  EXPECT_GE(site.max_ns(), site.min_ns());
  EXPECT_GE(site.total_ns(), site.max_ns());
}

TEST(ProfSites, NamedSitesAreStableHandles) {
  ProfGuard guard;
  ProfSite& a = prof_site_named("test/dynamic/site");
  ProfSite& b = prof_site_named("test/dynamic/site");
  EXPECT_EQ(&a, &b) << "same name must return the same site";
  ProfSite& c = prof_site_named("test/dynamic/other");
  EXPECT_NE(&a, &c);
  a.record_ns(5);
  prof_reset();
  EXPECT_EQ(a.count(), 0u) << "prof_reset covers named sites";
}

// The core lock-free claim: concurrent recorders lose no events. Sharded
// relaxed fetch_adds must still sum exactly once the threads join (this is
// the test the chaos/TSan CI job runs under ThreadSanitizer).
TEST(ProfConcurrency, ConcurrentRecordersLoseNothing) {
  ProfGuard guard;
  prof_reset();
  ProfSite& site = prof_site(ProfSiteId::kSrdsVerify);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&site, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        site.record_ns(1 + ((i + static_cast<std::uint64_t>(t)) & 0xFF));
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(site.count(), kThreads * kPerThread);
  // Totals are exact too: every recorded value was in [1, 256].
  EXPECT_GE(site.total_ns(), site.count());
  EXPECT_LE(site.total_ns(), site.count() * 256);
  EXPECT_GE(site.min_ns(), 1u);
  EXPECT_LE(site.max_ns(), 256u);
  // Bucket occupancy sums to the event count (each event lands in exactly
  // one log2 bucket).
  std::uint64_t bucket_sum = 0;
  for (std::size_t b = 0; b < ProfSite::kBuckets; ++b) bucket_sum += site.bucket(b);
  EXPECT_EQ(bucket_sum, site.count());
}

// Snapshots taken while recorders run may tear across fields; the contract
// is "never crash, never invent sites", not cross-field consistency.
TEST(ProfConcurrency, SnapshotUnderFireIsTearTolerant) {
  ProfGuard guard;
  prof_reset();
  prof_set_enabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop] {
      ProfSite& site = prof_site(ProfSiteId::kSrdsSign);
      site.record_ns(42);  // at least one event even if the readers win the race
      while (!stop.load(std::memory_order_relaxed)) site.record_ns(42);
    });
  }
  for (int i = 0; i < 50; ++i) {
    Json snap = prof_to_json();
    const Json* sites = snap.find("sites");
    ASSERT_NE(sites, nullptr);
    for (const Json& s : sites->items()) {
      ASSERT_NE(s.find("name"), nullptr);
      EXPECT_GT(s.find("count")->as_uint(), 0u)
          << "zero-count sites are skipped in the snapshot";
    }
  }
  stop.store(true);
  for (auto& w : writers) w.join();

  // Quiescent snapshot: mean is total/count and round-trips the parser.
  Json snap = prof_to_json();
  std::string err;
  Json back;
  ASSERT_TRUE(Json::parse(snap.dump(2), back, &err)) << err;
  const Json* sites = back.find("sites");
  ASSERT_NE(sites, nullptr);
  ASSERT_FALSE(sites->items().empty());
  const Json& s = sites->items().front();
  EXPECT_EQ(s.find("name")->as_string(), "srds/sign");
  EXPECT_DOUBLE_EQ(s.find("mean_ns")->as_double(0.0), 42.0);
}

TEST(ProfHw, PerfCountersDegradeGracefully) {
  // Containers routinely forbid perf_event_open; either outcome is valid,
  // but the API must never throw or crash and must report honestly.
  ProfHwSession session;
  session.start();
  // Burn a little work so an available session has something to count.
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i * i;
  session.stop();
  ProfHwCounters c = session.read();
  EXPECT_EQ(c.available, session.available());
  if (session.available()) {
    EXPECT_GT(c.cycles + c.instructions, 0u);
    Json j = c.to_json();
    EXPECT_NE(j.find("cycles"), nullptr);
  } else {
    EXPECT_EQ(c.cycles, 0u);
    EXPECT_EQ(c.instructions, 0u);
  }
}

TEST(AllocHooks, ActiveInThisBinaryAndCounting) {
  // This test binary links the srds_alloc_hooks OBJECT library, so the
  // strong replacement operator new/delete must have won the link.
  ASSERT_TRUE(alloc_hooks_active());
  const std::uint64_t before = alloc_ops();
  {
    auto p = std::make_unique<std::uint64_t[]>(64);
    p[0] = 1;
  }
  EXPECT_GT(alloc_ops(), before) << "heap allocation must tick the counter";
}

TEST(ProfJson, DisabledProfilingStillSnapshotsRecordedSites) {
  ProfGuard guard;
  prof_reset();
  // prof_to_json reports whatever was recorded, independent of the enable
  // flag — the flag gates *recording*, not *reading*.
  prof_site(ProfSiteId::kSvcDaemonStep).record_ns(10);
  Json snap = prof_to_json();
  const Json* sites = snap.find("sites");
  ASSERT_NE(sites, nullptr);
  ASSERT_EQ(sites->items().size(), 1u);
  EXPECT_EQ(sites->items().front().find("name")->as_string(), "svc/daemon/step");
}

}  // namespace
}  // namespace srds::obs
