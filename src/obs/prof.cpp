#include "obs/prof.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

namespace srds::obs {

namespace {

// The static site table. File-scope mutable state is confined to this TU:
// everything outside reaches it through prof_site()/prof_enabled().
ProfSite g_prof_sites[kProfSiteCount];

// Default (seq_cst) ordering: read once per PROF_SCOPE, not per event, and
// flipping it wants to be promptly visible to every thread.
std::atomic<bool> g_prof_enabled{false};

constexpr const char* kProfSiteNames[kProfSiteCount] = {
    "sim/round",
    "sim/round/party_step",
    "sim/round/deliver",
    "crypto/sha256",
    "crypto/merkle/build",
    "crypto/merkle/verify",
    "crypto/lamport/sign",
    "crypto/lamport/verify",
    "srds/sign",
    "srds/aggregate1",
    "srds/aggregate2",
    "srds/verify",
    "srds/serialize",
    "srds/deserialize",
    "svc/frame/decode",
    "svc/pipeline/step",
    "svc/daemon/step",
    "consensus/coin_toss/decide",
    "sim/round/step",
};

// Log2 bucketing: bucket b holds [2^b, 2^(b+1)), except bucket 0, which
// also takes 0 (so {0, 1}); the top bucket, 63, ends at ~0ull.
std::size_t bucket_of_ns(std::uint64_t v) {
  std::size_t b = 0;
  while (v > 1) {
    v >>= 1;
    ++b;
  }
  return b;
}

void site_json(Json& arr, const char* name, const ProfSite& s) {
  const std::uint64_t c = s.count();
  if (c == 0) return;
  Json j = Json::object();
  j.set("name", name);
  j.set("count", static_cast<long long>(c));
  j.set("total_ns", static_cast<long long>(s.total_ns()));
  j.set("mean_ns", static_cast<double>(s.total_ns()) / static_cast<double>(c));
  j.set("min_ns", static_cast<long long>(s.min_ns()));
  j.set("max_ns", static_cast<long long>(s.max_ns()));
  Json buckets = Json::object();
  for (std::size_t b = 0; b < ProfSite::kBuckets; ++b) {
    const std::uint64_t n = s.bucket(b);
    if (n) buckets.set("2^" + std::to_string(b), static_cast<long long>(n));
  }
  j.set("buckets", std::move(buckets));
  arr.push_back(std::move(j));
}

}  // namespace

const char* prof_site_name(ProfSiteId id) {
  return kProfSiteNames[static_cast<std::size_t>(id)];
}

// srds-lint: hotpath(ProfSite::record_ns)
void ProfSite::record_ns(std::uint64_t ns) {
  // Shard by thread hash: single-threaded runs always hit one shard,
  // concurrent recorders mostly avoid each other's (and stay exact when
  // they do share one).
  Shard& s = shards_[std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.total_ns.fetch_add(ns, std::memory_order_relaxed);
  s.buckets[bucket_of_ns(ns)].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t cur = s.min_ns.load(std::memory_order_relaxed);
  while (ns < cur && !s.min_ns.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  cur = s.max_ns.load(std::memory_order_relaxed);
  while (ns > cur && !s.max_ns.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

std::uint64_t ProfSite::count() const {
  std::uint64_t c = 0;
  for (const Shard& s : shards_) c += s.count.load(std::memory_order_relaxed);
  return c;
}

std::uint64_t ProfSite::total_ns() const {
  std::uint64_t t = 0;
  for (const Shard& s : shards_) t += s.total_ns.load(std::memory_order_relaxed);
  return t;
}

std::uint64_t ProfSite::min_ns() const {
  std::uint64_t m = ~0ull;
  for (const Shard& s : shards_) m = std::min(m, s.min_ns.load(std::memory_order_relaxed));
  return count() ? m : 0;
}

std::uint64_t ProfSite::max_ns() const {
  std::uint64_t m = 0;
  for (const Shard& s : shards_) m = std::max(m, s.max_ns.load(std::memory_order_relaxed));
  return m;
}

std::uint64_t ProfSite::bucket(std::size_t b) const {
  std::uint64_t c = 0;
  for (const Shard& s : shards_) c += s.buckets[b].load(std::memory_order_relaxed);
  return c;
}

void ProfSite::reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.total_ns.store(0, std::memory_order_relaxed);
    s.min_ns.store(~0ull, std::memory_order_relaxed);
    s.max_ns.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

ProfSite& prof_site(ProfSiteId id) {
  return g_prof_sites[static_cast<std::size_t>(id)];
}

bool prof_enabled() { return g_prof_enabled.load(); }

void prof_set_enabled(bool on) { g_prof_enabled.store(on); }

void prof_reset() {
  for (ProfSite& s : g_prof_sites) s.reset();
}

Json prof_to_json() {
  Json sites = Json::array();
  for (std::size_t i = 0; i < kProfSiteCount; ++i) {
    site_json(sites, kProfSiteNames[i], g_prof_sites[i]);
  }
  Json out = Json::object();
  out.set("sites", std::move(sites));
  return out;
}

// srds-lint: hotpath(ProfTimer::finish)
void ProfTimer::finish() {
  const std::int64_t now =
      std::chrono::steady_clock::now().time_since_epoch().count();
  const std::int64_t delta = now - start_ns_;
  site_->record_ns(delta > 0 ? static_cast<std::uint64_t>(delta) : 0);
}

}  // namespace srds::obs
