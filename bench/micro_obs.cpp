// Micro-benchmarks for the observability plane's hot path:
// ProfSite::record_ns (the record path under every PROF_SCOPE, alone and
// with four threads on one site), Reporter::add_row, one simulator round
// counted into a Ledger, one locality query over a Ledger, and one nested
// message round trip through the sub-protocol framing layers. Every benchmark reports allocs/op next to
// ns/op via the counting operator new in micro_main.hpp: the record path
// must stay at 0.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "micro_main.hpp"
#include "net/parallel.hpp"
#include "net/simulator.hpp"
#include "net/stats.hpp"
#include "net/subproto.hpp"
#include "obs/ledger.hpp"
#include "obs/prof.hpp"
#include "report.hpp"

namespace {

using namespace srds;

void BM_ProfSiteRecord(benchmark::State& state) {
  obs::ProfSite site;
  std::uint64_t v = 1;
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    site.record_ns(v & 0xffff);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG spread
  }
  bench::report_allocs(state, a0);
  benchmark::DoNotOptimize(site.count());
}
BENCHMARK(BM_ProfSiteRecord);

// The contended case: all benchmark threads record into one site, as the
// round loop's pool workers do into sim/round/party_step and the crypto
// sites beneath it on a traced run.
void BM_ProfSiteRecordContended(benchmark::State& state) {
  static obs::ProfSite site;
  std::uint64_t v = static_cast<std::uint64_t>(state.thread_index()) + 1;
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    site.record_ns(v & 0xffff);
    v = v * 2862933555777941757ULL + 3037000493ULL;
  }
  bench::report_allocs(state, a0);
  benchmark::DoNotOptimize(site.count());
}
BENCHMARK(BM_ProfSiteRecordContended)->Threads(4);

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

/// Sends one empty body to `fanout` fixed peers every round and never
/// finishes, so the simulator can be ticked indefinitely.
class FanoutParty final : public Party {
 public:
  FanoutParty(PartyId me, std::size_t n, std::size_t fanout) {
    for (std::size_t k = 0; k < fanout; ++k) {
      peers_.push_back(static_cast<PartyId>((me + 1 + k * 31) % n));
    }
  }

  SendList on_round(std::size_t, const std::vector<Message>&) override {
    SendList out;
    out.send_all(peers_, Payload(), MsgKind::kUnknown);
    return out;
  }
  bool done() const override { return false; }

 private:
  std::vector<PartyId> peers_;
};

// One simulator round at n=1024 with every party sending to 32 peers, all
// of it counted into an installed Ledger (tallies per party, phase and
// kind, plus the per-phase peer lists behind locality). Payloads are empty,
// so the allocations left are the parties' send lists (two per party per
// round: the body and its recipients); delivery and the accounting must add
// none once the inboxes and the peer lists have reached their steady size.
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

// One whole-run locality query at n = 1024, as every run's end makes it
// through NetworkStats::of. Even parties send to 64 peers in each of two
// phases, so their sets are bitmaps; odd parties send to 4, so theirs stay
// sorted lists, and every fourth party sends only in the first phase, so
// its single list is read without a union. The query allocates its result
// vectors and one union accumulator, none per party: allocs_per_op is
// fixed whatever the mix.
void BM_LedgerLocality(benchmark::State& state) {
  constexpr std::size_t kN = 1024;
  obs::Ledger ledger;
  ledger.on_run_begin(kN);
  ledger.on_phase(0, "a");
  ledger.on_phase(1, "b");
  for (std::size_t r = 0; r < 2; ++r) {
    for (PartyId i = 0; i < kN; ++i) {
      if (r == 1 && i % 4 == 3) continue;
      const std::size_t peers = i % 2 == 0 ? 64 : 4;
      for (std::size_t k = 0; k < peers; ++k) {
        const auto to = static_cast<PartyId>((i + 1 + 7 * k + r) % kN);
        ledger.on_send(r, Message{i, to, Payload(), MsgKind::kUnknown});
      }
    }
    ledger.on_round_end(r);
  }
  ledger.on_run_end(2);
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) benchmark::DoNotOptimize(NetworkStats::of(ledger).max_locality());
  bench::report_allocs(state, a0);
}
BENCHMARK(BM_LedgerLocality);

/// Leaf of the framing round trip: counts the bodies it is handed and, if it
/// has peers, sends them one block-B-sized body every step.
class RelayLeaf final : public SubProtocol {
 public:
  RelayLeaf(std::vector<PartyId> peers, std::size_t body_size)
      : peers_(std::move(peers)), body_(body_size, 0x5a) {}
  std::size_t rounds() const override { return 1; }
  Outbox step(std::size_t, const std::vector<TaggedMsg>& inbox) override {
    received_ += inbox.size();
    Outbox out;
    if (peers_.empty()) return out;
    Bytes body;
    body.reserve(body_.size() + kFrameHeadroom);
    body.assign(body_.begin(), body_.end());
    out.send_all(peers_, std::move(body));
    return out;
  }
  std::size_t received() const { return received_; }

 private:
  std::vector<PartyId> peers_;
  Bytes body_;
  std::size_t received_ = 0;
};

/// A block of c leaves as member 0 (`sender`) or member 1 sees it. Only the
/// sender's leaf 0 sends, to everyone else, as in one Dolev-Strong
/// instance's first relay.
std::unique_ptr<ParallelProto> relay_block(std::size_t c, bool sender) {
  std::vector<PartyId> peers;
  for (PartyId p = 1; sender && p < c; ++p) peers.push_back(p);
  std::vector<std::unique_ptr<SubProtocol>> children;
  for (std::size_t i = 0; i < c; ++i) {
    children.push_back(std::make_unique<RelayLeaf>(i == 0 ? peers : std::vector<PartyId>{},
                                                   4 + c * 25));
  }
  return std::make_unique<ParallelProto>(std::move(children));
}

// One nested message round trip at c = 7, the shape of a coin-toss block-B
// relay: member 0's 179-byte reveal goes out to six peers through
// ParallelProto's child index, the coin toss's kind byte and the channel
// tag, and the six messages come back in through untag_body, the kind byte
// and a receiver's ParallelProto demux. The body is written once, each layer
// writes its header into it once, the six recipients share it and the
// receiving side borrows it: allocs_per_op (10 with libstdc++) is the body,
// its shared block and per-step vectors, none per recipient.
void BM_FrameNestedRoundTrip(benchmark::State& state) {
  constexpr std::size_t kC = 7;
  constexpr std::uint8_t kKind = 2;
  auto sender = relay_block(kC, true);
  auto receiver = relay_block(kC, false);
  const std::vector<TaggedMsg> no_inbox;
  const std::uint64_t a0 = bench::alloc_ops();
  for (auto _ : state) {
    Outbox sends = sender->step(0, no_inbox);
    sends.frame(std::array{kKind});
    SendList out;
    send_tagged(out, std::move(sends), 2, 0, MsgKind::kCoinToss);

    std::vector<TaggedMsg> inbox;
    inbox.reserve(out.messages());
    for (std::size_t k = 0; k < out.size(); ++k) {
      std::uint32_t phase;
      std::uint64_t instance;
      BytesView body;
      if (!untag_body(out.body(k), phase, instance, body)) continue;
      Reader r(body);
      if (r.u8() != kKind) continue;
      for (std::size_t c = 0; c < out.to(k).size(); ++c) {
        inbox.emplace_back(PartyId{0}, r.view(r.remaining()), instance);
      }
    }
    benchmark::DoNotOptimize(receiver->step(0, inbox));
  }
  bench::report_allocs(state, a0);
  benchmark::DoNotOptimize(static_cast<const RelayLeaf*>(receiver->child(0))->received());
}
BENCHMARK(BM_FrameNestedRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  return srds::bench::run_micro_suite(argc, argv, "micro_obs");
}
