// Micro-benchmarks for the observability plane's hot path: Counter::inc,
// Gauge::set and Histogram::record (lock-free per-bucket atomics since the
// sharded-bucket conversion — the contended variant is the case the old
// per-histogram mutex serialized), registry handle lookup,
// Reporter::add_row, and one simulator round counted into a Ledger. Every
// benchmark reports allocs/op next to ns/op via the counting operator new
// in micro_main.hpp: the record/inc/set paths must stay at 0.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "micro_main.hpp"
#include "net/simulator.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace {

using namespace srds;

void BM_CounterInc(benchmark::State& state) {
  obs::Counter c;
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) c.inc();
  bench::report_allocs(state, a0);
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterInc);

void BM_GaugeSet(benchmark::State& state) {
  obs::Gauge g;
  double v = 0.0;
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) g.set(v += 1.5);
  bench::report_allocs(state, a0);
  benchmark::DoNotOptimize(g.value());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram h;
  std::uint64_t v = 1;
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    h.record(v & 0xffff);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG spread
  }
  bench::report_allocs(state, a0);
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

// The contended case: all benchmark threads hammer one histogram, exactly
// what every per-party record() does in a sharded simulator round.
void BM_HistogramRecordContended(benchmark::State& state) {
  static obs::Histogram h;
  std::uint64_t v = static_cast<std::uint64_t>(state.thread_index()) + 1;
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    h.record(v & 0xffff);
    v = v * 2862933555777941757ULL + 3037000493ULL;
  }
  bench::report_allocs(state, a0);
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecordContended)->Threads(4);

void BM_HistogramQuantile(benchmark::State& state) {
  obs::Histogram h;
  for (std::uint64_t v = 0; v < 4096; ++v) h.record(v);
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) benchmark::DoNotOptimize(h.quantile_bound(0.9));
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_HistogramQuantile);

// Handle lookup pays the registry mutex + key canonicalization; the point
// of stable handles is to pay it once, outside the loop. Measured so the
// cost of doing it wrong is a number, not folklore.
void BM_RegistryLookup(benchmark::State& state) {
  obs::Registry reg;
  reg.counter("msgs_sent", {{"protocol", "pi_ba"}});
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.counter("msgs_sent", {{"protocol", "pi_ba"}}));
  }
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_RegistryLookup);

void BM_ReporterAddRow(benchmark::State& state) {
  bench::Reporter rep("micro_obs_rows");
  double x = 0;
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    obs::Json m = obs::Json::object();
    m.set("v", x);
    rep.add_row(x += 1.0, std::move(m));
  }
  bench::report_allocs(state, a0);
  benchmark::DoNotOptimize(rep.rows());
}
BENCHMARK(BM_ReporterAddRow);

/// Sends an empty message to each of `fanout` fixed peers every round and
/// never finishes, so the simulator can be ticked indefinitely.
class FanoutParty final : public Party {
 public:
  FanoutParty(PartyId me, std::size_t n, std::size_t fanout)
      : me_(me), n_(n), fanout_(fanout) {}

  std::vector<Message> on_round(std::size_t, const std::vector<Message>&) override {
    std::vector<Message> out;
    out.reserve(fanout_);
    for (std::size_t k = 0; k < fanout_; ++k) {
      out.push_back(Message{me_, (me_ + 1 + k * 31) % n_, {}});
    }
    return out;
  }
  bool done() const override { return false; }

 private:
  PartyId me_;
  std::size_t n_, fanout_;
};

// One simulator round at n=1024 with every party sending to 32 peers, all
// of it counted into an installed Ledger (tallies per party, phase and
// kind, plus the per-phase peer lists behind locality). Payloads are empty,
// so the allocations left are the parties' outboxes (one per party per
// round); the accounting itself must add none once the peer lists have
// reached their steady size.
void BM_SimRoundAccounting(benchmark::State& state) {
  constexpr std::size_t kN = 1024, kFanout = 32;
  std::vector<std::unique_ptr<Party>> parties;
  for (PartyId i = 0; i < kN; ++i) parties.push_back(std::make_unique<FanoutParty>(i, kN, kFanout));
  Simulator sim(std::move(parties), std::vector<bool>(kN, false), nullptr);
  obs::Ledger ledger;
  sim.set_ledger(&ledger);
  for (int warm = 0; warm < 3; ++warm) sim.tick();
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) sim.tick();
  bench::report_allocs(state, a0);
  benchmark::DoNotOptimize(ledger.total(0).msgs_sent);
}
BENCHMARK(BM_SimRoundAccounting);

}  // namespace

int main(int argc, char** argv) {
  return srds::bench::run_micro_suite(argc, argv, "micro_obs");
}
