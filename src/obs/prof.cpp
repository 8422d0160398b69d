#include "obs/prof.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace srds::obs {

namespace {

// The static site table. File-scope mutable state is confined to this TU:
// everything outside reaches it through prof_site()/prof_enabled(), which
// are the declared traversal boundaries in tools/srds-lint/shard_roots.toml.
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

struct NamedSite {
  std::string name;
  // Heap-allocated so handles stay stable while the deque grows (atomics
  // are not movable anyway); same shape as Registry's metric entries.
  std::unique_ptr<ProfSite> site;
};

std::mutex g_named_mu;
std::deque<NamedSite> g_named_sites;  // every access below holds g_named_mu

// Same bucketing as obs::Histogram::bucket_of — log2, bucket 0 takes {0,1}.
std::size_t bucket_of_ns(std::uint64_t v) {
  std::size_t b = 0;
  while (v > 1) {
    v >>= 1;
    ++b;
  }
  return b;
}

void site_json(Json& arr, const std::string& name, const ProfSite& s) {
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

ProfSite& prof_site_named(const std::string& name) {
  std::lock_guard<std::mutex> lk(g_named_mu);
  for (NamedSite& e : g_named_sites) {
    if (e.name == name) return *e.site;
  }
  g_named_sites.push_back({name, std::make_unique<ProfSite>()});
  return *g_named_sites.back().site;
}

bool prof_enabled() { return g_prof_enabled.load(); }

void prof_set_enabled(bool on) { g_prof_enabled.store(on); }

void prof_reset() {
  for (ProfSite& s : g_prof_sites) s.reset();
  std::lock_guard<std::mutex> lk(g_named_mu);
  for (NamedSite& e : g_named_sites) e.site->reset();
}

Json prof_to_json() {
  Json sites = Json::array();
  for (std::size_t i = 0; i < kProfSiteCount; ++i) {
    site_json(sites, kProfSiteNames[i], g_prof_sites[i]);
  }
  {
    std::lock_guard<std::mutex> lk(g_named_mu);
    for (const NamedSite& e : g_named_sites) site_json(sites, e.name, *e.site);
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

// -- Hardware counters ------------------------------------------------------

Json ProfHwCounters::to_json() const {
  Json j = Json::object();
  j.set("available", available);
  if (available) {
    j.set("cycles", static_cast<long long>(cycles));
    j.set("instructions", static_cast<long long>(instructions));
    j.set("cache_misses", static_cast<long long>(cache_misses));
  }
  return j;
}

#if defined(__linux__)

namespace {

int open_counter(std::uint32_t type, std::uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
                          group_fd, /*flags=*/0UL);
  return static_cast<int>(fd);
}

std::uint64_t read_counter(int fd) {
  if (fd < 0) return 0;
  std::uint64_t v = 0;
  if (::read(fd, &v, sizeof(v)) != static_cast<ssize_t>(sizeof(v))) return 0;
  return v;
}

}  // namespace

ProfHwSession::ProfHwSession() {
  // Cycles is the group leader; if the container forbids perf_event (the
  // common CI case: EACCES/EPERM, or ENOSYS under seccomp) every fd stays
  // -1 and the session reports unavailable instead of failing the run.
  fds_[0] = open_counter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, -1);
  if (fds_[0] >= 0) {
    fds_[1] =
        open_counter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, fds_[0]);
    fds_[2] =
        open_counter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES, fds_[0]);
  }
}

ProfHwSession::~ProfHwSession() {
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

void ProfHwSession::start() {
  for (int fd : fds_) {
    if (fd >= 0) ::ioctl(fd, PERF_EVENT_IOC_RESET, 0);
  }
  for (int fd : fds_) {
    if (fd >= 0) ::ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);
  }
}

void ProfHwSession::stop() {
  for (int fd : fds_) {
    if (fd >= 0) ::ioctl(fd, PERF_EVENT_IOC_DISABLE, 0);
  }
}

ProfHwCounters ProfHwSession::read() const {
  ProfHwCounters c;
  if (!available()) return c;
  c.available = true;
  c.cycles = read_counter(fds_[0]);
  c.instructions = read_counter(fds_[1]);
  c.cache_misses = read_counter(fds_[2]);
  return c;
}

#else  // !__linux__

ProfHwSession::ProfHwSession() {}
ProfHwSession::~ProfHwSession() {}
void ProfHwSession::start() {}
void ProfHwSession::stop() {}
ProfHwCounters ProfHwSession::read() const { return ProfHwCounters{}; }

#endif

}  // namespace srds::obs
