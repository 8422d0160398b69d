// RoundTracer — the standard TraceSink: per-round wall-clock, byte,
// message, fault and message-kind accounting, segmented into protocol
// phases, exportable both as structured JSON and as Chrome trace_event
// JSON loadable in chrome://tracing (or https://ui.perfetto.dev).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace srds::obs {

/// Bytes/message tally for one message kind.
struct KindTally {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

struct RoundRecord {
  std::size_t round = 0;
  std::uint64_t wall_ns = 0;       // party logic + delivery work this round
  std::uint64_t msgs_sent = 0;     // accepted from senders
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_delivered = 0;  // reached a receiver (incl. dup/late)
  std::uint64_t bytes_delivered = 0;
  std::uint64_t dropped = 0;       // drop + partition losses
  std::uint64_t delayed = 0;
  std::uint64_t crashes = 0;
  std::array<KindTally, static_cast<std::size_t>(MsgKind::kCount)> kinds{};
};

/// Totals for one protocol phase (rounds [start, start+rounds)).
struct PhaseTotal {
  std::string name;
  std::size_t start = 0;
  std::size_t rounds = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::array<KindTally, static_cast<std::size_t>(MsgKind::kCount)> kinds{};
};

class RoundTracer final : public TraceSink {
 public:
  void on_run_begin(std::size_t n_parties) override;
  void on_round_begin(std::size_t round) override;
  void on_send(std::size_t round, const Message& m) override;
  void on_delivery(std::size_t round, const Message& m, Delivery outcome) override;
  void on_crash(std::size_t round, PartyId party) override;
  void on_round_end(std::size_t round) override;
  void on_run_end(std::size_t rounds) override;
  void on_phase(std::size_t start_round, const std::string& name) override;
  void on_span(const std::string& name, std::uint64_t wall_ns) override;

  std::size_t n_parties() const { return n_parties_; }
  std::size_t rounds_run() const { return rounds_run_; }
  const std::vector<RoundRecord>& rounds() const { return rounds_; }

  /// Rounds grouped under the phase marks (in mark order; rounds before the
  /// first mark fall into an implicit "pre" phase). Empty phases included.
  std::vector<PhaseTotal> phase_totals() const;

  /// Structured summary: {n, rounds, totals{...}, phases:[...], spans:[...],
  /// per_round:[...]}. Deterministic for a deterministic run *except* the
  /// wall_ns fields.
  Json to_json(bool per_round = true) const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}). The timeline is the
  /// round axis (1 round = 1ms of trace time) so identical runs line up
  /// exactly; measured wall-clock is attached as event args. Phases render
  /// as one track, rounds as another, per-round bytes as counter series.
  Json chrome_trace() const;

  /// Reset to a fresh tracer (run accumulation starts over; phase marks
  /// and spans are cleared too).
  void clear();

 private:
  RoundRecord& at(std::size_t round);

  struct Mark {
    std::size_t round;
    std::string name;
  };
  struct Span {
    std::string name;
    std::uint64_t wall_ns;
  };

  // Trace accumulation is owned by the simulator loop that drives the sink
  // callbacks; a sharded simulator must give each worker its own tracer (or
  // funnel events through a queue) rather than share this one.
  std::size_t n_parties_ = 0;
  std::size_t rounds_run_ = 0;
  std::vector<RoundRecord> rounds_;
  std::vector<Mark> marks_;
  std::vector<Span> spans_;
  std::chrono::steady_clock::time_point round_start_{};
};

/// Write `text` to `path`; false on I/O failure.
bool write_text_file(const std::string& path, const std::string& text);

}  // namespace srds::obs
