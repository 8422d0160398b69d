// obs profiling layer: lock-free scoped timers.
//
// The Ledger audits the paper's *bit* budgets; this file is the equivalent
// runtime layer for *time*. A `PROF_SCOPE(site)` expands to a RAII timer
// that aggregates into the site's sharded atomics:
//
//   * wait-free and allocation-free on the record path (srds-lint rule P1
//     checks the hotpath markers in prof.cpp): relaxed fetch_add into a
//     per-thread-hashed shard for count/total, relaxed fetch_add into one
//     log2 bucket, CAS loops for min/max;
//   * disabled by default: one seq_cst bool load and no clock read when
//     profiling is off, so instrumented hot paths cost ~nothing in
//     deterministic runs;
//   * hierarchical site names (`module/phase/site`, e.g.
//     "sim/round/deliver") so downstream tooling can roll spans up by
//     prefix.
//
// Determinism contract (docs/observability.md "Profiling"): timing never
// enters deterministic documents. prof output is exported only through
// Reporter::to_json(with_timestamp=true) — the same gate that keeps the
// timestamp out of the determinism guard — and through the chrome trace,
// which is already wall-clock-shaped. Enabling profiling must not change
// any deterministic byte (tests/trace_test.cpp enforces this).
//
// Memory-order policy: prof counters are statistics, not synchronization —
// all site atomics are relaxed (the ProfConcurrency.* tests exercise them
// under TSan); the global enable flag keeps default seq_cst ordering
// because it is read once per scope, not per event. A concurrent snapshot
// can tear across fields (a count without its total); prof_to_json is
// explicitly tear-tolerant reporting, never an invariant.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "obs/json.hpp"

namespace srds::obs {

/// Statically-known profiling sites, one per instrumented hot path. The
/// enum is the allocation-free handle: `prof_site(id)` is an array index.
enum class ProfSiteId : std::uint32_t {
  kSimRound = 0,       // sim/round           — one Simulator::tick
  kSimPartyStep,       // sim/round/party_step — honest parties' on_round
  kSimDeliver,         // sim/round/deliver   — per-message delivery
  kCryptoSha256,       // crypto/sha256       — one-shot sha256()
  kCryptoMerkleBuild,  // crypto/merkle/build
  kCryptoMerkleVerify, // crypto/merkle/verify
  kCryptoLamportSign,  // crypto/lamport/sign
  kCryptoLamportVerify,// crypto/lamport/verify
  kSrdsSign,           // srds/sign
  kSrdsAggregate1,     // srds/aggregate1
  kSrdsAggregate2,     // srds/aggregate2
  kSrdsVerify,         // srds/verify
  kSrdsSerialize,      // srds/serialize      — signature/path encode
  kSrdsDeserialize,    // srds/deserialize    — adversarial decode path
  kSvcFrameDecode,     // svc/frame/decode    — FrameDecoder::next
  kSvcPipelineStep,    // svc/pipeline/step   — InstancePipeline::on_round
  kSvcDaemonStep,      // svc/daemon/step     — BaServiceDaemon::step
  kConsensusCoinDecide,// consensus/coin_toss/decide — CoinTossProto::decide
  kSimStep,            // sim/round/step      — wall clock of a round's
                       //   party steps, once per round (party_step and
                       //   its children sum worker time)
  kCount,
};

inline constexpr std::size_t kProfSiteCount =
    static_cast<std::size_t>(ProfSiteId::kCount);

/// Hierarchical name ("module/phase/site") of a static site.
const char* prof_site_name(ProfSiteId id);

/// One profiling site: count, total, a log2 latency histogram and min/max,
/// all sharded per recording thread, so concurrent recorders (the round
/// loop's pool workers) never share a cache line. All methods are safe from
/// concurrent threads; readers aggregate the shards with relaxed loads and
/// tolerate tearing between fields.
class ProfSite {
 public:
  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kBuckets = 64;

  /// Record one span of `ns` nanoseconds. Wait-free, allocation-free.
  void record_ns(std::uint64_t ns);

  std::uint64_t count() const;
  std::uint64_t total_ns() const;
  std::uint64_t min_ns() const;
  std::uint64_t max_ns() const;
  std::uint64_t bucket(std::size_t b) const;

  /// Zero every field (not atomic as a whole: concurrent recorders may
  /// land between stores; only call quiescent or accept the smear).
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> min_ns{~0ull};
    std::atomic<std::uint64_t> max_ns{0};
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
  };

  Shard shards_[kShards];
};

/// The static site table (array index, wait-free; the table itself lives
/// in prof.cpp).
ProfSite& prof_site(ProfSiteId id);

/// Global enable flag. Off by default: PROF_SCOPE reads it once per scope
/// and skips the clock entirely when off.
bool prof_enabled();
void prof_set_enabled(bool on);

/// Zero every site.
void prof_reset();

/// Tear-tolerant snapshot of every site with count > 0:
///   {"sites":[{"name","count","total_ns","mean_ns","min_ns","max_ns",
///              "buckets":{"2^b":c}}...]}
Json prof_to_json();

/// RAII span timer. Construct with nullptr (profiling off) and it does
/// nothing at all — no clock read.
class ProfTimer {
 public:
  explicit ProfTimer(ProfSite* site)
      : site_(site),
        start_ns_(site ? std::chrono::steady_clock::now().time_since_epoch().count()
                       : 0) {}
  ~ProfTimer() {
    if (site_) finish();
  }

  ProfTimer(const ProfTimer&) = delete;
  ProfTimer& operator=(const ProfTimer&) = delete;

 private:
  void finish();

  ProfSite* site_;
  std::int64_t start_ns_;
};

}  // namespace srds::obs

// PROF_SCOPE(id): time the enclosing scope into the static site `id`.
// One seq_cst bool load when profiling is off; two steady_clock reads and
// one wait-free record when on. Timing never feeds back into protocol
// state, so instrumented code stays deterministic (D1: steady_clock is not
// a banned source; the contract is documented in docs/observability.md).
#define SRDS_PROF_CONCAT2(a, b) a##b
#define SRDS_PROF_CONCAT(a, b) SRDS_PROF_CONCAT2(a, b)
#define PROF_SCOPE(id)                                              \
  ::srds::obs::ProfTimer SRDS_PROF_CONCAT(srds_prof_scope_,         \
                                          __LINE__)(                \
      ::srds::obs::prof_enabled() ? &::srds::obs::prof_site(id)     \
                                  : nullptr)
