#include "obs/tracer.hpp"

#include <algorithm>

#include "obs/prof.hpp"

namespace srds::obs {

void RoundTracer::on_round_begin(std::size_t round) {
  if (rounds_.size() <= round) rounds_.resize(round + 1);
  round_start_ = std::chrono::steady_clock::now();
}

void RoundTracer::on_round_end(std::size_t round) {
  auto now = std::chrono::steady_clock::now();
  if (rounds_.size() <= round) rounds_.resize(round + 1);
  rounds_[round].wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - round_start_).count());
}

void RoundTracer::on_span(const std::string& name, std::uint64_t wall_ns) {
  spans_.push_back(Span{name, wall_ns});
}

void RoundTracer::clear() { *this = RoundTracer{}; }

Json RoundTracer::chrome_trace(const Ledger& ledger) const {
  // Round r spans trace time [r, r+1) ms; ts/dur are microseconds.
  constexpr std::uint64_t kRoundUs = 1000;
  Json events = Json::array();

  auto meta = [&](int tid, const char* what, const char* name) {
    Json e = Json::object();
    e.set("name", what);
    e.set("ph", "M");
    e.set("pid", 1);
    e.set("tid", tid);
    Json args = Json::object();
    args.set("name", name);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  };
  meta(1, "thread_name", "phases");
  meta(2, "thread_name", "rounds");

  auto wall_of = [&](std::size_t r) { return r < rounds_.size() ? rounds_[r].wall_ns : 0; };

  for (std::size_t p = 0; p < ledger.phase_count(); ++p) {
    const std::size_t start = ledger.phase_start(p), rounds = ledger.phase_rounds(p);
    if (rounds == 0) continue;
    std::uint64_t wall_ns = 0;
    for (std::size_t r = start; r < start + rounds; ++r) wall_ns += wall_of(r);
    Json e = Json::object();
    e.set("name", ledger.phase_name(p));
    e.set("cat", "phase");
    e.set("ph", "X");
    e.set("ts", static_cast<std::uint64_t>(start) * kRoundUs);
    e.set("dur", static_cast<std::uint64_t>(rounds) * kRoundUs);
    e.set("pid", 1);
    e.set("tid", 1);
    Json args = Json::object();
    args.set("bytes_sent", ledger.stat(LedgerField::kBytesSent, p).total);
    args.set("msgs_sent", ledger.stat(LedgerField::kMsgsSent, p).total);
    args.set("wall_ns", wall_ns);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }

  for (std::size_t r = 0; r < ledger.rounds_run(); ++r) {
    const PartyTally t = ledger.round_total(r);
    Json e = Json::object();
    e.set("name", "round " + std::to_string(r));
    e.set("cat", "round");
    e.set("ph", "X");
    e.set("ts", static_cast<std::uint64_t>(r) * kRoundUs);
    e.set("dur", kRoundUs);
    e.set("pid", 1);
    e.set("tid", 2);
    Json args = Json::object();
    args.set("wall_ns", wall_of(r));
    args.set("msgs_sent", t.msgs_sent);
    args.set("bytes_sent", t.bytes_sent);
    e.set("args", std::move(args));
    events.push_back(std::move(e));

    Json c = Json::object();
    c.set("name", "bytes_sent");
    c.set("ph", "C");
    c.set("ts", static_cast<std::uint64_t>(r) * kRoundUs);
    c.set("pid", 1);
    Json cargs = Json::object();
    cargs.set("bytes", t.bytes_sent);
    c.set("args", std::move(cargs));
    events.push_back(std::move(c));
  }

  // Off-network spans render before round 0 on their own track.
  if (!spans_.empty()) {
    meta(3, "thread_name", "setup");
    std::uint64_t ts = 0;
    for (const Span& s : spans_) {
      Json e = Json::object();
      e.set("name", s.name);
      e.set("cat", "setup");
      e.set("ph", "X");
      e.set("ts", ts);
      e.set("dur", std::max<std::uint64_t>(s.wall_ns / 1000, 1));
      e.set("pid", 1);
      e.set("tid", 3);
      Json args = Json::object();
      args.set("wall_ns", s.wall_ns);
      e.set("args", std::move(args));
      events.push_back(std::move(e));
      ts += std::max<std::uint64_t>(s.wall_ns / 1000, 1);
    }
  }

  // Profiling flame track: one duration slice per hot prof site, laid out
  // end to end in recorded-time proportion. Only present when profiling is
  // on, so deterministic-trace comparisons (prof off) are unaffected.
  if (prof_enabled()) {
    bool titled = false;
    std::uint64_t ts = 0;
    for (std::size_t i = 0; i < kProfSiteCount; ++i) {
      const ProfSite& site = prof_site(static_cast<ProfSiteId>(i));
      const std::uint64_t count = site.count();
      if (count == 0) continue;
      if (!titled) {
        meta(4, "thread_name", "prof");
        titled = true;
      }
      Json e = Json::object();
      e.set("name", prof_site_name(static_cast<ProfSiteId>(i)));
      e.set("cat", "prof");
      e.set("ph", "X");
      e.set("ts", ts);
      const std::uint64_t dur = std::max<std::uint64_t>(site.total_ns() / 1000, 1);
      e.set("dur", dur);
      e.set("pid", 1);
      e.set("tid", 4);
      Json args = Json::object();
      args.set("count", count);
      args.set("total_ns", site.total_ns());
      args.set("mean_ns", site.total_ns() / count);
      args.set("min_ns", site.min_ns());
      args.set("max_ns", site.max_ns());
      e.set("args", std::move(args));
      events.push_back(std::move(e));
      ts += dur;
    }
  }

  Json out = Json::object();
  out.set("traceEvents", std::move(events));
  out.set("displayTimeUnit", "ms");
  return out;
}

}  // namespace srds::obs
