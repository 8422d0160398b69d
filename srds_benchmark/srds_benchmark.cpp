// srds_benchmark — the end-to-end benchmark every performance claim in this
// repository is measured with.
//
// Four workloads, each chosen so that one roadmap optimisation has a workload
// that leans on its mechanism and another that barely touches it (README.md in
// this directory gives the reasoning and the layer -> metric table):
//
//   ba_snark     run_ba, pi_ba/snark, fault-free (SRDS and hashing)
//   ba_sampling  run_ba, KS'11 sqrt(n) polling, fault-free (net + accounting)
//   ba_chaos     run_ba, pi_ba/snark under an eclipse campaign plus drops,
//                delays and duplicates (fault path, grace window, retransmits)
//   svc_stream   BaServiceDaemon over loopback, open loop clocked in simulator
//                rounds (staggered multi-instance pipeline, src/svc)
//
// A run measures one workload (or all of them, interleaved) for --seconds: a
// closed loop of samples, each on inputs derived from --seed and the sample
// index. A ba sample is one run_ba call; an svc sample is one stream of
// requests against a fresh daemon. Untraced runs (--trace 0) install only the
// Ledger the audits need and a sink that stamps the run boundaries, and report
// the end-to-end metrics. Traced runs (--trace 1) pair every untraced sample
// with a traced replay of the same inputs and report per-layer metrics, all
// measured from outside the program: calls into public functions are timed
// here, the TraceSink hooks stamp rounds and phases, the Ledger counts bytes,
// and the existing PROF_SCOPE sites are read through obs::prof_site(). Every
// op is checked for agreement, validity, termination and budgets; the last
// stdout line is one JSON object.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ba/runner.hpp"
#include "common/rng.hpp"
#include "obs/alloc_hooks.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "obs/prof.hpp"
#include "svc/service.hpp"
#include "svc/transport.hpp"

#ifndef SRDS_BUILD_TYPE
#define SRDS_BUILD_TYPE "unknown"
#endif

namespace {

using namespace srds;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Quartile q in {1, 2, 3}, computed exactly as Python's
/// statistics.quantiles(v, n=4) does (the "exclusive" method, which
/// extrapolates for tiny samples), so a reader recomputes the same numbers
/// from the per-sample values in the BENCH file.
double quartile(std::vector<double> v, int q) {
  if (v.size() < 2) return v.empty() ? 0 : v[0];
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  const long j = std::clamp<long>(q * m / 4, 1, ld - 1);
  const long delta = q * m - j * 4;
  return (v[j - 1] * static_cast<double>(4 - delta) + v[j] * static_cast<double>(delta)) / 4.0;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// FNV-1a over 64-bit words: the work digest. Only counts go in, never time.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const std::string& s) {
    for (unsigned char c : s) add(c);
  }
};

// ---------------------------------------------------------------------------
// Host speed. A shared cloud host drifts by 20-30% over minutes as its
// neighbours' load changes, and no amount of work inside one run averages
// that out. So every sample is bracketed by two fixed kernels that belong to
// this file, an ALU chain and a DRAM pointer chase, and the end-to-end times
// are reported in reference seconds: measured * kReferenceCalibS / calib.
// The kernels never change with the code under test, so a real speed-up
// moves a reported time by the factor it moves the raw time. Raw times are
// kept in the BENCH file next to the normalised ones.

constexpr std::uint64_t kAluSteps = 30'000'000;
constexpr std::uint32_t kChaseSlots = 1u << 24;  // 64 MiB of uint32
constexpr std::uint32_t kChaseSteps = 750'000;
// Geometric mean of the two kernel times on the host where the benchmark was
// defined (Xeon 4-vCPU VM, quiet period), so reference seconds read like
// that host's seconds.
constexpr double kReferenceCalibS = 0.1;

volatile std::uint64_t g_calib_sink = 0;

double calibrate_once() {
  Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < kAluSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += i;
  }
  const double alu = secs(t0, Clock::now());

  // Successor table of a full-period LCG mod 2^24: one cycle through every
  // slot in an order the prefetchers cannot follow.
  std::unique_ptr<std::uint32_t[]> next(new std::uint32_t[kChaseSlots]);
  for (std::uint32_t j = 0; j < kChaseSlots; ++j) {
    next[j] = (j * 1664525u + 1013904223u) & (kChaseSlots - 1);
  }
  t0 = Clock::now();
  std::uint32_t j = 0;
  for (std::uint32_t i = 0; i < kChaseSteps; ++i) j = next[j];
  const double chase = secs(t0, Clock::now());
  g_calib_sink = x + j;
  return std::sqrt(alu * chase);
}

/// The latest calibration, reused when nothing ran since it was taken.
double host_calib() {
  static double value = 0;
  static Clock::time_point at{};
  if (value > 0 && secs(at, Clock::now()) < 0.01) return value;
  value = calibrate_once();
  at = Clock::now();
  return value;
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kBa, kSvc };

struct Workload {
  const char* name;
  Kind kind;
  BoostProtocol protocol;
  double beta;
  bool chaos;            // eclipse campaign + network faults
  std::size_t n;         // full size
  std::size_t requests;  // svc: requests per stream
};

// On a 4-vCPU x86 host one run_ba call takes 1.2-3.3 s and one svc stream
// about 11 s, so a 25 s run holds 7-20 decisions per ba workload and 24 per
// svc run (README.md, "Sizes").
constexpr Workload kWorkloads[] = {
    {"ba_snark", Kind::kBa, BoostProtocol::kPiBaSnark, 0.2, false, 1024, 0},
    {"ba_sampling", Kind::kBa, BoostProtocol::kSampling, 0.2, false, 1024, 0},
    {"ba_chaos", Kind::kBa, BoostProtocol::kPiBaSnark, 0.0, true, 256, 0},
    {"svc_stream", Kind::kSvc, BoostProtocol::kPiBaSnark, 0.1, false, 256, 12},
};

constexpr std::size_t kSmokeN = 64;
constexpr std::size_t kSmokeRequests = 4;
constexpr std::size_t kWarmupN = 128;
// svc open loop: request i falls due at daemon round kSvcSpacing * i.
constexpr std::size_t kSvcSpacing = 6;
constexpr std::size_t kSvcWindow = 16;  // session window = max in-flight
// Daemon constructions per stream (the last one serves), so set-up time
// has a median within every run.
constexpr std::size_t kSvcSetups = 5;
// Samples every run completes, whatever --seconds is: five run_ba calls, or
// two svc streams (24 decisions). The work digest and the deterministic
// metrics (bytes, counts) come from these alone, so they repeat exactly for
// a seed while the number of timed samples varies.
constexpr std::size_t kFixedBaSamples = 5;
constexpr std::size_t kFixedSvcSamples = 2;

BaRunConfig ba_config(const Workload& w, std::size_t n, std::uint64_t seed) {
  BaRunConfig cfg;
  cfg.n = n;
  cfg.beta = w.beta;
  cfg.seed = seed;
  cfg.protocol = w.protocol;
  cfg.backend = BaseSigBackend::kCompact;
  cfg.input = true;
  if (w.chaos) {
    // Fig R3's chaos cell: eclipse at 5% adaptive corruption over a lossy,
    // laggy, duplicating network.
    cfg.campaign = CampaignKind::kEclipse;
    cfg.corruption_rate = 0.05;
    FaultPlan plan;
    plan.seed = 7;
    plan.drop_prob = 0.02;
    plan.delay_prob = 0.05;
    plan.max_delay = 2;
    plan.duplicate_prob = 0.02;
    cfg.faults = plan;
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json at the repository root lists exactly
// these; --smoke checks that every run reports each with its unit.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_s", "s"},
    {"decisions_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
    {"max_bytes_per_party", "bytes"},
};

struct LayerDef {
  std::string name;
  const char* unit;
  bool per_op;  // divided by the sample's decisions (svc: requests per stream)
};

/// Timings are reduced by a median over every traced sample; everything
/// else repeats exactly for a seed and is the mean over the fixed samples.
bool is_timing(const LayerDef& d) {
  return std::string(d.unit) == "s" || std::string(d.unit) == "ms" ||
         d.name == "trace.overhead_rel";
}

const std::vector<LayerDef>& layer_defs() {
  static const std::vector<LayerDef> defs = [] {
    std::vector<LayerDef> d = {
        {"net.rounds", "count", true},
        {"net.round_s", "s", true},
        {"net.round_max_ms", "ms", false},
        {"net.msgs_sent", "count", true},
        {"net.bytes_sent", "bytes", true},
        {"net.deliver_calls", "count", true},
        {"net.deliver_s", "s", true},
        {"net.coord_s", "s", true},
        {"net.faults_dropped", "count", true},
        {"net.faults_delayed", "count", true},
        {"net.faults_duplicated", "count", true},
        {"ba.party_step_calls", "count", true},
        {"ba.party_step_s", "s", true},
        {"ba.setup_other_s", "s", false},
        {"ba.teardown_s", "s", false},
        {"ba.undecided_frac", "ratio", false},
        {"ba.adaptive_corruptions", "count", false},
        {"ba.budget_findings", "count", false},
    };
    // run_ba's phase schedule. The daemon marks one "service" phase, so
    // these read 0 on svc_stream.
    for (const char* p : {"f_ba", "f_ct", "f_ae-dissem", "boost", "grace"}) {
      const std::string k = std::string("phase.") + p + ".";
      d.push_back({k + "wall_s", "s", true});
      d.push_back({k + "msgs", "count", true});
      d.push_back({k + "bytes", "bytes", true});
      d.push_back({k + "allocs", "count", true});
    }
    d.insert(d.end(), {
        {"tree.build_s", "s", false},
        {"srds.keygen_s", "s", false},
        {"srds.sign.calls", "count", true},
        {"srds.sign.s", "s", true},
        {"srds.aggregate1.calls", "count", true},
        {"srds.aggregate1.s", "s", true},
        {"srds.aggregate2.calls", "count", true},
        {"srds.aggregate2.s", "s", true},
        {"srds.verify.calls", "count", true},
        {"srds.verify.s", "s", true},
        {"srds.deserialize.calls", "count", true},
        {"srds.deserialize.s", "s", true},
        {"crypto.merkle_verify.calls", "count", true},
        {"crypto.merkle_verify.s", "s", true},
        {"crypto.merkle_build_s", "s", true},
        {"crypto.sha256.calls", "count", true},
        {"crypto.sha256.s", "s", true},
        {"svc.poll_s", "s", true},
        {"svc.step_s", "s", true},
        {"svc.client_s", "s", true},
        {"svc.pipeline_step_s", "s", true},
        {"svc.frame_decode_calls", "count", true},
        {"svc.inflight_mean", "count", false},
        {"svc.admission_queue_max", "count", false},
        {"svc.rejects", "count", false},
        {"svc.rounds", "count", false},
        {"svc.round_span_p50", "rounds", false},
        {"svc.submit_lag_s", "s", true},
        {"mem.allocs_per_op", "count", true},
        {"mem.setup_allocs", "count", false},
        {"mem.teardown_allocs", "count", false},
        {"trace.overhead_rel", "ratio", false},
    });
    return d;
  }();
  return defs;
}

// Existing PROF_SCOPE sites read as (calls, seconds) pairs.
struct ProfRead {
  obs::ProfSiteId id;
  const char* calls;  // metric name for the count, or nullptr
  const char* secs;   // metric name for the total, or nullptr
};

constexpr ProfRead kProfReads[] = {
    {obs::ProfSiteId::kSimRound, nullptr, "prof.sim_round_s"},
    {obs::ProfSiteId::kSimPartyStep, "ba.party_step_calls", "ba.party_step_s"},
    {obs::ProfSiteId::kSimDeliver, "net.deliver_calls", "net.deliver_s"},
    {obs::ProfSiteId::kSrdsSign, "srds.sign.calls", "srds.sign.s"},
    {obs::ProfSiteId::kSrdsAggregate1, "srds.aggregate1.calls", "srds.aggregate1.s"},
    {obs::ProfSiteId::kSrdsAggregate2, "srds.aggregate2.calls", "srds.aggregate2.s"},
    {obs::ProfSiteId::kSrdsVerify, "srds.verify.calls", "srds.verify.s"},
    {obs::ProfSiteId::kSrdsDeserialize, "srds.deserialize.calls", "srds.deserialize.s"},
    {obs::ProfSiteId::kCryptoMerkleVerify, "crypto.merkle_verify.calls",
     "crypto.merkle_verify.s"},
    {obs::ProfSiteId::kCryptoMerkleBuild, nullptr, "crypto.merkle_build_s"},
    {obs::ProfSiteId::kCryptoSha256, "crypto.sha256.calls", "crypto.sha256.s"},
    {obs::ProfSiteId::kSvcPipelineStep, nullptr, "svc.pipeline_step_s"},
    {obs::ProfSiteId::kSvcFrameDecode, "svc.frame_decode_calls", nullptr},
};

using Values = std::map<std::string, double>;

/// Snapshot of the static prof sites; the difference of two snapshots is
/// one sample's share.
Values prof_snapshot() {
  Values v;
  for (const ProfRead& r : kProfReads) {
    const obs::ProfSite& s = obs::prof_site(r.id);
    if (r.calls) v[r.calls] = static_cast<double>(s.count());
    if (r.secs) v[r.secs] = 1e-9 * static_cast<double>(s.total_ns());
  }
  return v;
}

// ---------------------------------------------------------------------------
// Chrome trace, kept in memory and written at exit.

class TraceLog {
 public:
  void span(const std::string& name, const char* cat, Clock::time_point b,
            Clock::time_point e, int tid, obs::Json args = obs::Json::object()) {
    obs::Json ev = obs::Json::object();
    ev.set("name", name);
    ev.set("cat", cat);
    ev.set("ph", "X");
    ev.set("ts", 1e6 * secs(origin_, b));
    ev.set("dur", 1e6 * secs(b, e));
    ev.set("pid", 1);
    ev.set("tid", tid);
    ev.set("args", std::move(args));
    events_.push_back(std::move(ev));
  }

  /// Attach the prof snapshot: one counter event per site with calls.
  void prof_counters() {
    const obs::Json snap = obs::prof_to_json();
    const obs::Json* sites = snap.find("sites");
    if (!sites) return;
    const double ts = 1e6 * secs(origin_, Clock::now());
    for (const obs::Json& s : sites->items()) {
      obs::Json args = obs::Json::object();
      args.set("count", s.find("count") ? s.find("count")->as_double() : 0.0);
      args.set("total_ms", s.find("total_ns") ? 1e-6 * s.find("total_ns")->as_double() : 0.0);
      obs::Json ev = obs::Json::object();
      ev.set("name", s.find("name") ? s.find("name")->as_string() : std::string("?"));
      ev.set("cat", "prof");
      ev.set("ph", "C");
      ev.set("ts", ts);
      ev.set("pid", 1);
      ev.set("args", std::move(args));
      events_.push_back(std::move(ev));
    }
  }

  obs::Json to_json() const {
    obs::Json j = obs::Json::object();
    j.set("traceEvents", events_);
    j.set("displayTimeUnit", "ms");
    return j;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  obs::Json events_ = obs::Json::array();
};

TraceLog g_trace;

// ---------------------------------------------------------------------------
// Sinks. The untraced sink stamps only the run boundaries and notes
// adaptive corruptions; the traced one adds round/phase stamps, allocation
// counts and delivery outcomes.

class LayerSink final : public obs::TraceSink {
 public:
  explicit LayerSink(bool traced) : traced_(traced) {}

  void on_run_begin(std::size_t n_parties) override {
    corrupted.assign(n_parties, false);
    begin = Clock::now();
    allocs_begin = obs::alloc_ops();
  }
  void on_corrupt(std::size_t, PartyId party) override {
    if (party < corrupted.size()) corrupted[party] = true;
  }
  void on_run_end(std::size_t) override {
    end = Clock::now();
    allocs_end = obs::alloc_ops();
  }

  void on_phase(std::size_t start_round, const std::string& name) override {
    if (!traced_) return;
    for (const Phase& p : phases_) {
      if (p.start == start_round && p.name == name) return;
    }
    phases_.push_back({name, start_round});
    std::sort(phases_.begin(), phases_.end(),
              [](const Phase& a, const Phase& b) { return a.start < b.start; });
  }

  void on_span(const std::string& name, std::uint64_t wall_ns) override {
    if (traced_) spans[name] += 1e-9 * static_cast<double>(wall_ns);
  }

  void on_round_begin(std::size_t) override {
    if (!traced_) return;
    round_t0_ = Clock::now();
    round_a0_ = obs::alloc_ops();
  }

  void on_round_end(std::size_t round) override {
    if (!traced_) return;
    const Clock::time_point t1 = Clock::now();
    const double dt = secs(round_t0_, t1);
    rounds += 1;
    round_s += dt;
    round_max_s = std::max(round_max_s, dt);
    Phase* p = phase_of(round);
    if (!p) return;
    p->wall_s += dt;
    p->allocs += static_cast<double>(obs::alloc_ops() - round_a0_);
    if (p->rounds++ == 0) p->first = round_t0_;
    p->last = t1;
  }

  void on_delivery(std::size_t, const Message&, obs::Delivery outcome) override {
    if (!traced_) return;
    switch (outcome) {
      case obs::Delivery::kDropped:
        ++dropped;
        break;
      case obs::Delivery::kDelayed:
        ++delayed;
        break;
      case obs::Delivery::kDuplicated:
        ++duplicated;
        break;
      default:
        break;
    }
  }

  struct Phase {
    std::string name;
    std::size_t start = 0;
    std::size_t rounds = 0;
    double wall_s = 0;
    double allocs = 0;
    Clock::time_point first{}, last{};
  };
  const std::vector<Phase>& phases() const { return phases_; }

  Clock::time_point begin{}, end{};
  std::uint64_t allocs_begin = 0, allocs_end = 0;
  std::vector<bool> corrupted;  // adaptively corrupted during the run
  std::map<std::string, double> spans;
  double rounds = 0, round_s = 0, round_max_s = 0;
  double dropped = 0, delayed = 0, duplicated = 0;

 private:
  Phase* phase_of(std::size_t round) {
    Phase* cur = nullptr;
    for (Phase& p : phases_) {
      if (p.start <= round) cur = &p;
    }
    return cur;
  }

  bool traced_;
  std::vector<Phase> phases_;
  Clock::time_point round_t0_{};
  std::uint64_t round_a0_ = 0;
};

// ---------------------------------------------------------------------------
// Peak RSS per sample: reset the high-water mark before, read it after.
// Where /proc/self/clear_refs is not writable the peak is the process's
// (getrusage), and the run stamp says so.

class PeakRss {
 public:
  PeakRss() {
    std::ofstream f("/proc/self/clear_refs");
    op_scope_ = static_cast<bool>(f << "5" << std::flush);
  }

  void reset() const {
    malloc_trim(0);
    if (!op_scope_) return;
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
  }

  double read_mb() const {
    if (op_scope_) {
      std::ifstream f("/proc/self/status");
      std::string line;
      while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
      }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

  const char* scope() const { return op_scope_ ? "op" : "process"; }

 private:
  bool op_scope_ = false;
};

const PeakRss& peak_rss() {
  static const PeakRss rss;
  return rss;
}

// ---------------------------------------------------------------------------
// One sample: one run_ba call, or one svc stream (one daemon, many requests).

struct Sample {
  double wall_s = 0;  // run_ba call / stream from first due to last decision
  std::vector<double> setup_s;
  double elapsed_s = 0;  // everything the sample did, the span cpu_s covers
  double cpu_s = 0;
  double speed = 1;  // kReferenceCalibS / host calibration around the sample
  double rss_mb = 0;
  double max_bytes = 0;      // per honest party (boost phase / per decision)
  double undecided = 0;      // honest parties undecided / honest parties
  std::size_t decisions = 0; // agreements attempted
  std::size_t failed = 0;
  std::vector<double> latencies_s;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;
  Values layer;  // traced samples only: raw sums
};

void fail(Sample& s, std::string why) {
  ++s.failed;
  if (s.failures.size() < 4) s.failures.push_back(std::move(why));
}

/// Per-layer values every sample shares: round/phase stamps, delivery
/// outcomes, set-up spans, allocation boundaries and prof deltas.
void record_layers(Sample& s, const LayerSink& sink, const obs::Ledger& ledger,
                   double setup_s, std::uint64_t a_entry, std::uint64_t a_exit,
                   double teardown_s, const Values& prof0, int tid) {
  Values& v = s.layer;
  v["net.rounds"] = sink.rounds;
  v["net.round_s"] = sink.round_s;
  v["net.round_max_ms"] = 1e3 * sink.round_max_s;
  v["net.faults_dropped"] = sink.dropped;
  v["net.faults_delayed"] = sink.delayed;
  v["net.faults_duplicated"] = sink.duplicated;
  double msgs = 0, bytes = 0;
  for (PartyId i = 0; i < ledger.n_parties(); ++i) {
    msgs += static_cast<double>(ledger.total(i).msgs_sent);
    bytes += static_cast<double>(ledger.total(i).bytes_sent);
  }
  v["net.msgs_sent"] = msgs;
  v["net.bytes_sent"] = bytes;

  auto span = [&](const char* k) {
    auto it = sink.spans.find(k);
    return it == sink.spans.end() ? 0.0 : it->second;
  };
  v["tree.build_s"] = span("tree-build");
  v["srds.keygen_s"] = span("srds-keygen");
  v["ba.setup_other_s"] = setup_s - span("tree-build") - span("srds-keygen");
  v["ba.teardown_s"] = teardown_s;
  v["mem.allocs_per_op"] = static_cast<double>(a_exit - a_entry);
  v["mem.setup_allocs"] = static_cast<double>(sink.allocs_begin - a_entry);
  v["mem.teardown_allocs"] = static_cast<double>(a_exit - sink.allocs_end);

  for (const LayerSink::Phase& p : sink.phases()) {
    const std::size_t idx = ledger.phase_index(p.name);
    double pm = 0, pb = 0;
    for (PartyId i = 0; idx != obs::Ledger::kAllPhases && i < ledger.n_parties(); ++i) {
      pm += static_cast<double>(ledger.phase_total(idx, i).msgs_sent);
      pb += static_cast<double>(ledger.phase_total(idx, i).bytes_sent);
    }
    const std::string k = "phase." + p.name + ".";
    v[k + "wall_s"] += p.wall_s;
    v[k + "msgs"] += pm;
    v[k + "bytes"] += pb;
    v[k + "allocs"] += p.allocs;
    if (p.rounds > 0) g_trace.span(p.name, "phase", p.first, p.last, tid);
  }

  const Values prof1 = prof_snapshot();
  for (const auto& [k, x] : prof1) v[k] = x - prof0.at(k);
  v["net.coord_s"] = v["prof.sim_round_s"] - v["ba.party_step_s"] - v["net.deliver_s"];
  v.erase("prof.sim_round_s");
}

Sample run_ba_sample(const Workload& w, std::size_t n, std::uint64_t seed, bool traced,
                     int tid) {
  Sample s;
  s.decisions = 1;
  obs::Ledger ledger;
  LayerSink sink(traced);
  BaRunConfig cfg = ba_config(w, n, seed);
  cfg.ledger = &ledger;
  cfg.trace = &sink;

  peak_rss().reset();
  const Values prof0 = traced ? prof_snapshot() : Values{};
  obs::prof_set_enabled(traced);
  const std::uint64_t a0 = obs::alloc_ops();
  const double c0 = cpu_now();
  const Clock::time_point t0 = Clock::now();
  const BaRunResult r = run_ba(cfg);
  const Clock::time_point t1 = Clock::now();
  s.cpu_s = cpu_now() - c0;
  const std::uint64_t a1 = obs::alloc_ops();
  obs::prof_set_enabled(false);
  s.rss_mb = peak_rss().read_mb();
  s.wall_s = secs(t0, t1);
  s.elapsed_s = s.wall_s;
  s.setup_s.push_back(secs(t0, sink.begin));
  s.latencies_s.push_back(s.wall_s);

  // Correctness oracle. A chaos run may leave honest parties undecided.
  const std::size_t undecided = r.honest - r.decided;
  s.undecided = r.honest ? static_cast<double>(undecided) / static_cast<double>(r.honest) : 0;
  if (!r.agreement) fail(s, "honest parties disagree");
  if (r.correct != r.decided) fail(s, "an honest output differs from the input");
  const std::size_t boost = ledger.phase_index("boost");
  const std::size_t schedule =
      (boost == obs::Ledger::kAllPhases ? 0 : ledger.phase_start(boost)) + r.boost_rounds;
  if (r.rounds > schedule + 2) fail(s, "ran past the schedule");
  double findings = 0;
  for (const obs::BudgetEval& e : r.budget_evals) {
    if (!e.skipped && !e.ok) ++findings;
  }
  if (!w.chaos && undecided != 0) fail(s, std::to_string(undecided) + " honest undecided");
  // A budget finding means the worst honest party went over the repository's
  // calibrated constant, not that agreement broke. It is counted
  // (ba.budget_findings) rather than failed: at n=1024 the pi_ba/snark boost
  // constant sits within 1% of some seeds' worst party (README.md), so a
  // long benchmark session would hit one.
  if (findings > 0 && !w.chaos) {
    std::fprintf(stderr, "%s: budget finding on seed %llu (counted, not failed)\n", w.name,
                 static_cast<unsigned long long>(seed));
  }

  // Max bytes (sent + received) over honest parties in the boost phase, as
  // the audit saw it. Below the budget's validity floor (ba_chaos, smoke
  // sizes) the audit skips, and the ledger's max over the parties no one
  // corrupted during the run stands in.
  s.max_bytes = static_cast<double>(
      ledger.stat(obs::LedgerField::kBytesTotal, boost, &sink.corrupted).max);
  for (const obs::BudgetEval& e : r.budget_evals) {
    if (e.phase == "boost" && !e.skipped) s.max_bytes = static_cast<double>(e.max_bits / 8);
  }

  Digest d;
  d.add(r.rounds);
  for (std::size_t p = 0; p < ledger.phase_count(); ++p) {
    d.add(ledger.phase_name(p));
    d.add(ledger.stat(obs::LedgerField::kMsgsSent, p).total);
    d.add(ledger.stat(obs::LedgerField::kBytesSent, p).total);
  }
  d.add(r.honest);
  d.add(r.decided);
  d.add(r.agreement);
  d.add(r.value.value_or(false));
  d.add(r.adaptively_corrupted);
  s.digest = d.h;

  if (traced) {
    record_layers(s, sink, ledger, s.setup_s.front(), a0, a1, secs(sink.end, t1), prof0,
                  tid);
    s.layer["ba.undecided_frac"] = s.undecided;
    s.layer["ba.adaptive_corruptions"] = static_cast<double>(r.adaptively_corrupted);
    s.layer["ba.budget_findings"] = findings;
    g_trace.span("setup", "op", t0, sink.begin, tid);
    g_trace.span("teardown", "op", sink.end, t1, tid);
    obs::Json args = obs::Json::object();
    args.set("seed", seed);
    g_trace.span(std::string(w.name) + " op", "op", t0, t1, tid, std::move(args));
  }
  return s;
}

Sample run_svc_sample(const Workload& w, std::size_t n, std::size_t requests,
                      std::uint64_t seed, bool traced, int tid) {
  Sample s;
  s.decisions = requests;
  obs::Ledger ledger;
  LayerSink sink(traced);
  svc::ServiceConfig cfg;
  cfg.n = n;
  cfg.beta = w.beta;
  cfg.seed = seed;
  cfg.protocol = w.protocol;
  cfg.backend = BaseSigBackend::kCompact;
  cfg.session_window = kSvcWindow;
  cfg.max_inflight = kSvcWindow;

  peak_rss().reset();
  const Values prof0 = traced ? prof_snapshot() : Values{};
  obs::prof_set_enabled(traced);
  const double c0 = cpu_now();
  const std::uint64_t a0 = obs::alloc_ops();
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<svc::BaServiceDaemon> daemon;
  Clock::time_point setup_end{};
  for (std::size_t k = 0; k < kSvcSetups; ++k) {
    // Only the serving daemon carries the sinks; the others are built and
    // dropped to time construction alone.
    const bool last = k + 1 == kSvcSetups;
    svc::ServiceConfig c = cfg;
    if (last) {
      c.ledger = &ledger;
      c.trace = &sink;
    }
    daemon.reset();
    const Clock::time_point b = Clock::now();
    daemon = std::make_unique<svc::BaServiceDaemon>(std::move(c));
    setup_end = Clock::now();
    s.setup_s.push_back(secs(b, setup_end));
  }
  const std::uint64_t a_setup = obs::alloc_ops();

  svc::LoopbackTransport transport;
  daemon->add_listener(transport.listener());
  svc::ServiceClient client(transport.connect());
  client.open();
  while (!client.opened()) {
    daemon->poll();
    client.poll();
  }

  // Open loop clocked in daemon rounds: request i falls due at round
  // kSvcSpacing * i whether or not earlier ones finished, and its latency
  // runs from the start of that round. A daemon with nothing to run ticks
  // no rounds, so when it goes idle the next request falls due at once.
  std::vector<Clock::time_point> due(requests);
  std::vector<std::optional<bool>> decided(requests);
  std::vector<std::uint32_t> spans(requests, 0);
  std::size_t n_due = 0, sent = 0, received = 0, steps = 0;
  double poll_s = 0, step_s = 0, client_s = 0, lag_s = 0, inflight_sum = 0, queue_max = 0;
  bool idle = false;
  const std::size_t round_cap = kSvcSpacing * requests + 2000;
  Clock::time_point last_decision = t0;
  while (received < requests && daemon->stats().rounds < round_cap) {
    const Clock::time_point now = Clock::now();
    const std::size_t round = daemon->stats().rounds;
    while (n_due < requests && (kSvcSpacing * n_due <= round || (idle && n_due == sent))) {
      due[n_due++] = now;
      idle = false;
    }
    client.retry();
    while (sent < n_due && client.can_submit()) {
      client.submit(sent % 3 != 0);
      lag_s += secs(due[sent], Clock::now());
      ++sent;
    }
    const Clock::time_point c1 = Clock::now();
    daemon->poll();
    const Clock::time_point p1 = Clock::now();
    queue_max = std::max(queue_max, static_cast<double>(daemon->queued_admissions()));
    idle = !daemon->step();
    const Clock::time_point s1 = Clock::now();
    inflight_sum += static_cast<double>(daemon->active_instances());
    ++steps;
    client.poll();
    const Clock::time_point got = Clock::now();
    for (const svc::ServiceClient::ClientDecision& d : client.take_decisions()) {
      const std::size_t i = d.seq - 1;
      if (i >= requests || decided[i].has_value()) continue;
      decided[i] = d.decision.value;
      spans[i] = d.decision.round_span;
      s.latencies_s.push_back(secs(due[i], got));
      if (!d.decision.agreement) fail(s, "request " + std::to_string(d.seq) + ": no agreement");
      if (d.decision.value != d.bit) {
        fail(s, "request " + std::to_string(d.seq) + ": decided bit differs");
      }
      if (traced) {
        obs::Json args = obs::Json::object();
        args.set("seq", d.seq);
        args.set("round_span", d.decision.round_span);
        g_trace.span("request " + std::to_string(d.seq), "request", due[i], got,
                     100 + tid, std::move(args));
      }
      ++received;
      last_decision = got;
    }
    client_s += secs(now, c1) + secs(s1, Clock::now());
    poll_s += secs(c1, p1);
    step_s += secs(p1, s1);
  }
  for (std::size_t i = 0; i < requests; ++i) {
    if (!decided[i].has_value()) fail(s, "request " + std::to_string(i + 1) + " undecided");
  }
  const std::uint64_t rejects = client.rejects_received();
  client.close();
  daemon->shutdown();
  // Lifetime bytes of the worst honest party, amortized per decision.
  for (const obs::BudgetEval& e : daemon->audit()) {
    if (e.skipped) continue;
    if (!e.ok) {
      for (std::size_t i = 0; i < requests; ++i) fail(s, "amortized budget violated");
    }
    s.max_bytes = static_cast<double>(e.max_bits / 8);
  }
  if (s.max_bytes == 0) {
    s.max_bytes = static_cast<double>(ledger.stat(obs::LedgerField::kBytesTotal).max);
  }
  s.max_bytes /= static_cast<double>(std::max<std::size_t>(received, 1));
  const svc::ServiceStats stats = daemon->stats();
  std::size_t honest_live = 0, honest_decided = 0;
  for (const svc::DecisionRecord& rec : daemon->decisions()) {
    honest_live += rec.honest_live;
    honest_decided += rec.honest_decided;
  }
  s.undecided = honest_live ? 1.0 - static_cast<double>(honest_decided) /
                                        static_cast<double>(honest_live)
                            : 0.0;
  daemon.reset();
  const Clock::time_point t1 = Clock::now();
  const std::uint64_t a1 = obs::alloc_ops();
  s.cpu_s = cpu_now() - c0;
  obs::prof_set_enabled(false);
  s.rss_mb = peak_rss().read_mb();
  s.wall_s = requests ? secs(due.front(), last_decision) : 0;
  s.elapsed_s = secs(t0, t1);

  Digest d;
  d.add(stats.rounds);
  for (std::size_t i = 0; i < requests; ++i) {
    d.add(spans[i]);
    d.add(decided[i].has_value() ? 1 + *decided[i] : 0);
  }
  for (obs::LedgerField f : {obs::LedgerField::kMsgsSent, obs::LedgerField::kBytesSent}) {
    d.add(ledger.stat(f).total);
  }
  d.add(honest_decided);
  s.digest = d.h;

  if (traced) {
    record_layers(s, sink, ledger, median(s.setup_s), a0, a1, secs(sink.end, t1), prof0,
                  tid);
    Values& v = s.layer;
    v["mem.setup_allocs"] = static_cast<double>(a_setup - a0) / kSvcSetups;
    v["svc.poll_s"] = poll_s;
    v["svc.step_s"] = step_s;
    v["svc.client_s"] = client_s;
    v["svc.submit_lag_s"] = lag_s;
    v["svc.inflight_mean"] = steps ? inflight_sum / static_cast<double>(steps) : 0;
    v["svc.admission_queue_max"] = queue_max;
    v["svc.rejects"] = static_cast<double>(rejects);
    v["svc.rounds"] = static_cast<double>(stats.rounds);
    v["svc.round_span_p50"] = median(std::vector<double>(spans.begin(), spans.end()));
    v["ba.undecided_frac"] = s.undecided;
    v["ba.adaptive_corruptions"] = static_cast<double>(stats.adaptively_corrupted);
    g_trace.span("setup", "op", t0, setup_end, tid);
    g_trace.span("teardown", "op", sink.end, t1, tid);
    obs::Json args = obs::Json::object();
    args.set("seed", seed);
    args.set("requests", requests);
    g_trace.span(std::string(w.name) + " stream", "op", t0, t1, tid, std::move(args));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Measurement loop and reduction.

struct Options {
  std::vector<std::size_t> workloads;  // indices into kWorkloads
  std::uint64_t seed = 1;
  double seconds = 25;  // per workload
  bool trace = false;
  std::string json_out;
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  obs::Json detail = obs::Json::object();  // quartiles and per-sample cpu/wall
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double undecided_frac = 0;
  double host_speed = 1;
  std::uint64_t digest = 0;
  bool contended = false;
  bool correct = true;
};

std::uint64_t sample_seed(std::uint64_t seed, std::size_t workload, std::size_t k) {
  std::uint64_t st = seed * 0x9e3779b97f4a7c15ULL + workload * 0x632be59bd9b4e019ULL + k;
  return splitmix64(st);
}

/// One small pi_ba op before anything is timed, so lazy set-up and cold
/// caches are not charged to the first workload.
void warm_up() {
  static bool done = false;
  if (done) return;
  done = true;
  obs::Ledger ledger;
  BaRunConfig cfg = ba_config(kWorkloads[0], kWarmupN, sample_seed(0, 0, 0));
  cfg.ledger = &ledger;
  run_ba(cfg);
}

/// The samples of one workload, taken one at a time so that several
/// workloads can be interleaved and share the host's drift.
class WorkloadRun {
 public:
  WorkloadRun(std::size_t widx, const Options& o)
      : widx_(widx),
        w_(kWorkloads[widx]),
        o_(o),
        n_(o.smoke ? kSmokeN : w_.n),
        requests_(o.smoke ? kSmokeRequests : w_.requests),
        fixed_(o.smoke                 ? 1
               : w_.kind == Kind::kBa ? kFixedBaSamples
                                      : kFixedSvcSamples) {}

  /// Done once the fixed samples are in and another sample of median
  /// length would overrun --seconds.
  bool done() const {
    if (plain_.size() < fixed_) return false;
    std::vector<double> per;
    for (std::size_t k = 0; k < plain_.size(); ++k) {
      per.push_back(plain_[k].elapsed_s + (o_.trace ? traced_[k].elapsed_s : 0));
    }
    return spent_ + median(per) > o_.seconds;
  }

  void step() {
    const std::uint64_t seed = sample_seed(o_.seed, widx_, plain_.size());
    const Clock::time_point b = Clock::now();
    if (plain_.empty()) first_ = b;
    const double calib_before = host_calib();
    plain_.push_back(sample(seed, false));
    plain_.back().speed = kReferenceCalibS / (0.5 * (calib_before + host_calib()));
    if (o_.trace) {
      traced_.push_back(sample(seed, true));
      // A traced replay must do exactly the work of its untraced twin.
      if (traced_.back().digest != plain_.back().digest) {
        mismatch_ = true;
        std::fprintf(stderr, "%s: traced sample %zu did different work than untraced\n",
                     w_.name, plain_.size() - 1);
      }
    }
    last_ = Clock::now();
    spent_ += secs(b, last_);
  }

  /// Median host speed over the untraced samples (1 = the reference host).
  double host_speed() const {
    std::vector<double> v;
    for (const Sample& s : plain_) v.push_back(s.speed);
    return median(v);
  }

  Result result() const {
    Result res;
    res.correct = !mismatch_;
    Digest digest;
    std::vector<double> bytes, undecided;
    for (std::size_t k = 0; k < fixed_; ++k) {
      digest.add(plain_[k].digest);
      bytes.push_back(plain_[k].max_bytes);
      undecided.push_back(plain_[k].undecided);
    }
    res.digest = digest.h;
    res.undecided_frac = mean(undecided);
    res.host_speed = host_speed();

    obs::Json samples = obs::Json::array();
    for (const std::vector<Sample>* set : {&plain_, &traced_}) {
      for (const Sample& s : *set) {
        res.attempted += s.decisions;
        res.failed += s.failed;
        for (const std::string& f : s.failures) {
          std::fprintf(stderr, "%s: FAILED: %s\n", w_.name, f.c_str());
        }
        const double ratio = s.elapsed_s > 0 ? s.cpu_s / s.elapsed_s : 1.0;
        res.contended = res.contended || ratio < 0.9;
        obs::Json j = obs::Json::object();
        j.set("traced", set == &traced_);
        j.set("wall_s", s.wall_s);
        j.set("host_speed", s.speed);
        j.set("cpu_wall_ratio", ratio);
        j.set("rss_mb", s.rss_mb);
        j.set("max_bytes", s.max_bytes);
        samples.push_back(std::move(j));
      }
    }
    res.detail.set("samples", std::move(samples));
    res.correct = res.correct && res.failed == 0;
    if (o_.trace) {
      g_trace.span(w_.name, "workload", first_, last_, static_cast<int>(widx_));
      res.metrics = reduce_layers();
      return res;
    }

    // Times in reference seconds (see "Host speed"); the raw ones go to
    // the BENCH file's quartiles.
    std::vector<double> setup, lat, setup_raw, lat_raw, rss;
    double busy = 0, decisions = 0;
    for (const Sample& s : plain_) {
      for (double x : s.setup_s) {
        setup.push_back(x * s.speed);
        setup_raw.push_back(x);
      }
      for (double x : s.latencies_s) {
        lat.push_back(x * s.speed);
        lat_raw.push_back(x);
      }
      rss.push_back(s.rss_mb);
      busy += s.wall_s * s.speed;
      decisions += static_cast<double>(s.decisions);
    }
    res.metrics = {
        {"setup_s", median(setup), "s"},
        {"latency_p50_s", median(lat), "s"},
        {"decisions_per_s", busy > 0 ? decisions / busy : 0, "1/s"},
        {"peak_rss_mb", median(rss), "MiB"},
        {"max_bytes_per_party", mean(bytes), "bytes"},
    };
    obs::Json q = obs::Json::object();
    for (const auto& [name, v] : {std::pair<const char*, const std::vector<double>*>{
                                      "latency_s", &lat},
                                  {"latency_raw_s", &lat_raw},
                                  {"setup_s", &setup},
                                  {"setup_raw_s", &setup_raw},
                                  {"peak_rss_mb", &rss}}) {
      obs::Json e = obs::Json::object();
      e.set("q1", quartile(*v, 1));
      e.set("median", median(*v));
      e.set("q3", quartile(*v, 3));
      e.set("samples", v->size());
      q.set(name, std::move(e));
    }
    res.detail.set("quartiles", std::move(q));
    return res;
  }

 private:
  Sample sample(std::uint64_t seed, bool traced) const {
    const int tid = static_cast<int>(widx_);
    return w_.kind == Kind::kBa ? run_ba_sample(w_, n_, seed, traced, tid)
                                : run_svc_sample(w_, n_, requests_, seed, traced, tid);
  }

  std::vector<Metric> reduce_layers() const {
    const std::size_t fixed = std::min(fixed_, traced_.size());
    std::vector<Metric> out;
    for (const LayerDef& def : layer_defs()) {
      std::vector<double> v;
      for (std::size_t k = 0; k < traced_.size(); ++k) {
        if (!is_timing(def) && k >= fixed) break;
        const Sample& s = traced_[k];
        auto it = s.layer.find(def.name);
        const double x = it == s.layer.end() ? 0.0 : it->second;
        v.push_back(def.per_op ? x / static_cast<double>(s.decisions) : x);
      }
      out.push_back({def.name, is_timing(def) ? median(v) : mean(v), def.unit});
    }
    // Tracing overhead: traced replays against their untraced twins.
    std::vector<double> pw, tw;
    for (const Sample& s : plain_) pw.push_back(s.elapsed_s);
    for (const Sample& s : traced_) tw.push_back(s.elapsed_s);
    for (Metric& m : out) {
      if (m.name == "trace.overhead_rel") m.value = median(tw) / median(pw) - 1.0;
    }
    return out;
  }

  std::size_t widx_;
  const Workload& w_;
  const Options& o_;
  std::size_t n_, requests_, fixed_;
  std::vector<Sample> plain_, traced_;
  double spent_ = 0;
  bool mismatch_ = false;
  Clock::time_point first_{}, last_{};
};

/// Take samples round-robin over the selected workloads until each has
/// spent its --seconds, so slow drift on the host hits every workload.
std::vector<Result> measure(const Options& o) {
  warm_up();
  std::vector<WorkloadRun> runs;
  runs.reserve(o.workloads.size());
  for (std::size_t widx : o.workloads) runs.emplace_back(widx, o);
  for (bool busy = true; busy;) {
    busy = false;
    for (WorkloadRun& r : runs) {
      if (r.done()) continue;
      r.step();
      busy = true;
    }
  }
  std::vector<Result> out;
  for (const WorkloadRun& r : runs) out.push_back(r.result());
  return out;
}

// ---------------------------------------------------------------------------
// Run stamp, output and the command line.

obs::Json run_stamp() {
  obs::Json j = obs::Json::object();
  j.set("nproc", sysconf(_SC_NPROCESSORS_ONLN));
  std::string cpu = "unknown";
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  j.set("cpu_model", cpu);
#if defined(__clang__)
  j.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  j.set("compiler", std::string("gcc ") + __VERSION__);
#else
  j.set("compiler", "unknown");
#endif
  j.set("build_type", SRDS_BUILD_TYPE);
  j.set("alloc_hooks", obs::alloc_hooks_active());
  j.set("peak_rss_scope", peak_rss().scope());
  return j;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  return static_cast<bool>(f);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "srds_benchmark: %s\n"
               "usage: srds_benchmark [--workload ba_snark|ba_sampling|ba_chaos|svc_stream|all]\n"
               "                      [--seed N] [--seconds S] [--trace 0|1] [--traced]\n"
               "                      [--json-out DIR] [--smoke]\n",
               why);
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  std::string workload = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--traced") {
      o.trace = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(o.seconds >= 0 && o.seconds <= 3600)) return std::nullopt;
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return std::nullopt;
      o.trace = v == "1";
    } else if (a == "--json-out" && has_value) {
      o.json_out = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
    if (workload == "all" || workload == kWorkloads[i].name) o.workloads.push_back(i);
  }
  if (o.workloads.empty()) return std::nullopt;
  return o;
}

/// Every workload tiny, untraced then traced, checking the metric catalogue,
/// correctness and that the digest repeats within the process.
int smoke() {
  Options o;
  o.smoke = true;
  o.seconds = 0;
  for (std::size_t i = 0; i < std::size(kWorkloads); ++i) o.workloads.push_back(i);
  bool ok = true;
  auto check = [&](bool cond, const std::string& what) {
    if (!cond) std::fprintf(stderr, "smoke: %s\n", what.c_str());
    ok = ok && cond;
  };
  const std::vector<Result> plain = measure(o);
  o.trace = true;
  const std::vector<Result> traced = measure(o);
  for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
    const std::string name = kWorkloads[i].name;
    const Result& p = plain[i];
    const Result& t = traced[i];
    check(p.correct && t.correct && p.failed == 0 && t.failed == 0, name + ": an op failed");
    check(p.digest == t.digest, name + ": digest differs across runs");
    check(p.metrics.size() == std::size(kEndToEnd), name + ": e2e count");
    for (std::size_t m = 0; m < std::min(p.metrics.size(), std::size(kEndToEnd)); ++m) {
      const Metric& got = p.metrics[m];
      check(got.name == kEndToEnd[m].name && got.unit == kEndToEnd[m].unit && got.value > 0,
            name + ": bad e2e metric " + got.name);
    }
    check(t.metrics.size() == layer_defs().size(), name + ": layer count");
    for (std::size_t m = 0; m < std::min(t.metrics.size(), layer_defs().size()); ++m) {
      check(t.metrics[m].name == layer_defs()[m].name &&
                t.metrics[m].unit == layer_defs()[m].unit,
            name + ": bad layer metric " + t.metrics[m].name);
    }
    std::printf("smoke %-12s digest=%016llx\n", name.c_str(),
                static_cast<unsigned long long>(p.digest));
  }
  std::printf("smoke: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> parsed = parse(argc, argv);
  if (!parsed) return usage("bad arguments");
  const Options& o = *parsed;
  if (o.smoke) return smoke();

  const obs::Json stamp = run_stamp();
  std::fprintf(stderr, "srds_benchmark: %s\n", stamp.dump().c_str());

  bool correct = true, contended = false;
  std::size_t attempted = 0, failed = 0;
  obs::Json metrics = obs::Json::object();
  obs::Json bench = obs::Json::object();
  bench.set("name", "srds_benchmark");
  bench.set("seed", o.seed);
  bench.set("seconds", o.seconds);
  bench.set("trace", o.trace);
  bench.set("stamp", stamp);
  obs::Json per_workload = obs::Json::object();
  std::vector<Result> results = measure(o);
  for (std::size_t k = 0; k < results.size(); ++k) {
    Result& r = results[k];
    const char* name = kWorkloads[o.workloads[k]].name;
    correct = correct && r.correct;
    contended = contended || r.contended;
    attempted += r.attempted;
    failed += r.failed;
    const double failed_frac =
        static_cast<double>(r.failed) / static_cast<double>(std::max<std::size_t>(r.attempted, 1));
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(r.digest));
    obs::Json wm = obs::Json::object();
    for (const Metric& m : r.metrics) {
      std::printf("%s %s %.9g %s\n", name, m.name.c_str(), m.value, m.unit.c_str());
      obs::Json v = obs::Json::object();
      v.set("value", m.value);
      v.set("unit", m.unit);
      wm.set(m.name, v);
      metrics.set(o.workloads.size() == 1 ? m.name : std::string(name) + "." + m.name,
                  std::move(v));
    }
    std::printf("%s failed_frac %.9g ratio\n", name, failed_frac);
    std::printf("%s undecided_frac %.9g ratio\n", name, r.undecided_frac);
    std::printf("%s host_speed %.9g ratio\n", name, r.host_speed);
    std::printf("%s attempted %zu count\n", name, r.attempted);
    std::printf("%s work_digest %s hex\n", name, digest);
    obs::Json wj = obs::Json::object();
    wj.set("metrics", std::move(wm));
    wj.set("work_digest", std::string(digest));
    wj.set("attempted", r.attempted);
    wj.set("failed", r.failed);
    wj.set("failed_frac", failed_frac);
    wj.set("undecided_frac", r.undecided_frac);
    wj.set("host_speed", r.host_speed);
    wj.set("contended", r.contended);
    wj.set("detail", std::move(r.detail));
    per_workload.set(name, std::move(wj));
  }
  if (contended) {
    std::fprintf(stderr,
                 "srds_benchmark: warning: contended host (a sample got < 0.9 CPU s per "
                 "wall s); timings are unreliable\n");
  }
  bench.set("contended", contended);
  bench.set("workloads", std::move(per_workload));

  if (!o.json_out.empty()) {
    const std::string dir = o.json_out + "/";
    if (!write_file(dir + "BENCH_srds_benchmark.json", bench.dump(2) + "\n")) {
      std::fprintf(stderr, "srds_benchmark: cannot write under %s\n", dir.c_str());
      return 1;
    }
    if (o.trace) {
      g_trace.prof_counters();
      if (!write_file(dir + "TRACE_srds_benchmark.json", g_trace.to_json().dump() + "\n")) {
        std::fprintf(stderr, "srds_benchmark: cannot write under %s\n", dir.c_str());
        return 1;
      }
    }
  }

  obs::Json result = obs::Json::object();
  result.set("correct", correct);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}
