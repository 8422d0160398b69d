// RoundTracer — the time plane: per-round wall-clock and off-network setup
// spans, plus the Chrome trace_event exporter that lays them out beside the
// traffic the run's obs::Ledger counted (loadable in chrome://tracing or
// https://ui.perfetto.dev). The tracer counts no bytes or messages itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"

namespace srds::obs {

struct RoundRecord {
  std::uint64_t wall_ns = 0;  // party logic + delivery work this round
};

class RoundTracer final : public TraceSink {
 public:
  void on_round_begin(std::size_t round) override;
  void on_round_end(std::size_t round) override;
  void on_span(const std::string& name, std::uint64_t wall_ns) override;

  /// Timed rounds (index = round).
  const std::vector<RoundRecord>& rounds() const { return rounds_; }

  /// Chrome trace_event JSON ({"traceEvents":[...]}) of the run `ledger`
  /// counted. The timeline is the round axis (1 round = 1ms of trace time)
  /// so identical runs line up exactly; measured wall-clock is attached as
  /// event args. The Ledger's phases render as one track, rounds as
  /// another, per-round bytes as a counter series; setup spans and (when
  /// profiling is on) the prof sites get a track each.
  Json chrome_trace(const Ledger& ledger) const;

  /// Reset to a fresh tracer (round times and spans start over).
  void clear();

 private:
  struct Span {
    std::string name;
    std::uint64_t wall_ns;
  };

  // Owned by the simulator loop that drives the sink callbacks; a sharded
  // simulator must keep timing on its coordinator thread.
  std::vector<RoundRecord> rounds_;
  std::vector<Span> spans_;
  std::chrono::steady_clock::time_point round_start_{};
};

}  // namespace srds::obs
