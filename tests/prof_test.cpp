// Tests for the obs profiling layer (src/obs/prof.hpp): the lock-free
// record path under real concurrency, the tear-tolerant snapshot contract,
// scoped-timer enable/disable semantics, the log2 bucket boundaries, and
// the alloc-hook linkage model (this binary links the counting OBJECT
// library, so alloc_hooks_active() must be true here — obs_test asserts the
// stub side).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "consensus/dolev_strong.hpp"
#include "net/parallel.hpp"
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

// Bucket b holds [2^b, 2^(b+1)); bucket 0 also takes 0, and the top bucket
// ends at ~0ull. The snapshot names the bucket "2^b".
TEST(ProfSites, BucketBoundaries) {
  ProfGuard guard;
  const std::pair<std::uint64_t, std::size_t> cases[] = {
      {0, 0}, {1, 0},     {2, 1},     {3, 1},     {4, 2},     {7, 2},
      {8, 3}, {1024, 10}, {1025, 10}, {2047, 10}, {~0ull, 63}};
  ProfSite& site = prof_site(ProfSiteId::kCryptoSha256);
  for (const auto& [ns, b] : cases) {
    prof_reset();
    site.record_ns(ns);
    EXPECT_EQ(site.bucket(b), 1u) << ns;
    const Json snap = prof_to_json();
    ASSERT_EQ(snap.find("sites")->items().size(), 1u);
    const Json* buckets = snap.find("sites")->items().front().find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_EQ(buckets->members().size(), 1u) << ns;
    EXPECT_EQ(buckets->members().front().first, "2^" + std::to_string(b)) << ns;
    EXPECT_DOUBLE_EQ(buckets->members().front().second.as_double(0.0), 1.0) << ns;
  }
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

// The counter is sharded per thread (one cache line each); the sum must
// still be exact once the allocating threads join — including with more
// threads than slots, where threads share a slot. Chaos-labelled, so the
// TSan CI job runs it.
TEST(AllocHooks, ConcurrentAllocationsCountExactly) {
  constexpr int kThreads = 24;  // more than the 16 per-thread slots
  constexpr std::size_t kPerThread = 5000;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::vector<void*>> ptrs(kThreads);
  for (auto& p : ptrs) p.reserve(kPerThread);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (std::size_t i = 0; i < kPerThread; ++i) ptrs[t].push_back(::operator new(24));
    });
  }
  // Start-up (std::thread's own state objects) stays outside the window.
  while (ready.load() < kThreads) std::this_thread::yield();
  const std::uint64_t before = alloc_ops();
  go.store(true);
  for (auto& w : workers) w.join();
  const std::uint64_t after = alloc_ops();
  EXPECT_EQ(after - before, kThreads * kPerThread);
  for (auto& p : ptrs) {
    for (void* q : p) ::operator delete(q);
  }
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

// --- Framing allocations (DESIGN.md, "Message framing") ---

/// Member 0's view of a block of c parallel Dolev-Strong broadcasts, the
/// shape of the coin toss's block B: member 0 broadcasts `input`.
std::unique_ptr<ParallelProto> ds_block(const SimSigRegistryPtr& registry, std::size_t c,
                                        const Bytes& input) {
  std::vector<PartyId> members(c);
  for (PartyId p = 0; p < c; ++p) members[p] = p;
  std::vector<std::unique_ptr<SubProtocol>> children;
  for (std::size_t s = 0; s < c; ++s) {
    std::optional<Bytes> mine;
    if (s == 0) mine = input;
    children.push_back(std::make_unique<DolevStrongProto>(
        registry, members, s, (c - 1) / 3, Bytes{2, static_cast<std::uint8_t>(s)}, 0,
        std::move(mine)));
  }
  return std::make_unique<ParallelProto>(std::move(children));
}

TEST(FramingAllocs, NestedRelayCostsOneAllocationPerFrame) {
  ASSERT_TRUE(alloc_hooks_active());
  constexpr std::size_t c = 7;
  auto registry = std::make_shared<const SimSigRegistry>(c, 1);
  const Bytes reveal(4 + c * 25, 0x5a);  // block B's reveal vector for c = 7
  std::vector<PartyId> members(c);
  for (PartyId p = 0; p < c; ++p) members[p] = p;
  // The leaf alone: the same sender's broadcast without the outer layers.
  DolevStrongProto leaf(registry, members, 0, (c - 1) / 3, Bytes{2, 0}, 0, reveal);
  auto block = ds_block(registry, c, reveal);

  std::uint64_t a0 = alloc_ops();
  const Outbox bare = leaf.step(0, {});
  const std::uint64_t leaf_allocs = alloc_ops() - a0;
  ASSERT_EQ(bare.size(), 1u);
  ASSERT_EQ(bare.messages(), c - 1);

  SendList out;
  a0 = alloc_ops();
  // ParallelProto's child index, then the coin toss's kind byte, then the
  // channel tag: each written once in front of the one body.
  Outbox sends = block->step(0, {});
  sends.frame(std::array<std::uint8_t, 1>{2});
  ASSERT_EQ(sends.size(), 1u);
  const std::uint8_t* storage = sends.body(0).data();
  send_tagged(out, std::move(sends), 2, 0, MsgKind::kCoinToss);
  const std::uint64_t nested_allocs = alloc_ops() - a0;
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out.messages(), c - 1);

  // The leaf's buffers: one body for all c - 1 recipients, plus six that do
  // not scale with them (its signature chain, the signed target, its
  // outbox's two vectors, and its list of extracted values with the kept
  // copy of this one).
  EXPECT_EQ(leaf_allocs, 1 + 6);
  // The outer layers add no allocation per recipient: ParallelProto's
  // per-child demux vector, the send list's two vectors and the shared
  // block.
  EXPECT_EQ(nested_allocs, leaf_allocs + 4);
  EXPECT_EQ(out.body(0).size(), kTagSize + 1 + 4 + bare.body(0).size());
  EXPECT_EQ(out.body(0).data(), storage) << "reallocated on the way out";
}

/// Child that counts the bodies it is handed and remembers where the first
/// one lives; it keeps and sends nothing.
class SinkChild final : public SubProtocol {
 public:
  std::size_t rounds() const override { return 2; }
  Outbox step(std::size_t, const std::vector<TaggedMsg>& inbox) override {
    if (!inbox.empty() && first_ == nullptr) first_ = inbox.front().body.data();
    seen_ += inbox.size();
    return {};
  }
  std::size_t seen() const { return seen_; }
  const std::uint8_t* first() const { return first_; }

 private:
  std::size_t seen_ = 0;
  const std::uint8_t* first_ = nullptr;
};

TEST(FramingAllocs, InboundDemuxBorrowsEveryBody) {
  ASSERT_TRUE(alloc_hooks_active());
  constexpr std::size_t c = 7, per_child = 64, k = c * per_child;
  std::vector<std::unique_ptr<SubProtocol>> children;
  for (std::size_t i = 0; i < c; ++i) children.push_back(std::make_unique<SinkChild>());
  ParallelProto par(std::move(children));

  std::vector<Bytes> frames;  // the round's inbox storage, outliving the step
  for (std::size_t j = 0; j < k; ++j) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(j % c));
    w.raw(Bytes(40, static_cast<std::uint8_t>(j)));
    frames.push_back(tag_body(2, 0, std::move(w).take()));
  }
  std::vector<TaggedMsg> inbox;
  inbox.reserve(k);

  const std::uint64_t a0 = alloc_ops();
  for (const Bytes& f : frames) {
    std::uint32_t phase;
    std::uint64_t instance;
    BytesView body;
    ASSERT_TRUE(untag_body(f, phase, instance, body));
    inbox.emplace_back(1, body, instance);
  }
  (void)par.step(1, inbox);
  const std::uint64_t allocs = alloc_ops() - a0;

  // Only ParallelProto's per-child vectors allocate, growing geometrically
  // to per_child entries each: nothing is allocated per message.
  EXPECT_LE(allocs, 1 + c * std::bit_width(per_child));
  for (std::size_t i = 0; i < c; ++i) {
    const auto* child = static_cast<const SinkChild*>(par.child(i));
    EXPECT_EQ(child->seen(), per_child);
    EXPECT_EQ(child->first(), frames[i].data() + kTagSize + 4) << "child " << i << " got a copy";
  }
}

}  // namespace
}  // namespace srds::obs
