// TraceSink — the lightweight hook interface between the network simulator
// and the observability layer.
//
// The Simulator drives one sink (if installed) through the lifecycle of a
// run: round boundaries, every send the network accepted, every delivery
// outcome the fault layer chose, adaptive corruption grants, plus
// out-of-band annotations from the harness (protocol phase marks,
// off-network setup spans such as SRDS key generation). All callbacks
// default to no-ops so sinks implement only what they need; the interface
// is header-only and adds a single pointer test per event on the
// simulator's hot path.
#pragma once

#include <cstdint>
#include <string>

#include "common/message.hpp"

namespace srds::obs {

/// What the network decided to do with a sent message.
enum class Delivery : std::uint8_t {
  kDelivered,    // arrives next round
  kDuplicated,   // extra copy injected by a duplication fault
  kLate,         // a delayed message finally arriving this round
  kDropped,      // lost to a random/link drop fault
  kPartitioned,  // lost crossing an active partition cut
  kDelayed,      // deferred by a delay fault (a kLate event follows, or not)
  kOffline,      // lost because the receiver was churned offline
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void on_run_begin(std::size_t n_parties) { (void)n_parties; }
  virtual void on_round_begin(std::size_t round) { (void)round; }

  /// A message the network accepted from its sender this round (the sender
  /// paid for it whatever happens next).
  virtual void on_send(std::size_t round, const Message& m) {
    (void)round;
    (void)m;
  }

  /// A delivery outcome. kDelivered/kDuplicated/kLate reach the receiver
  /// this round; kDropped/kPartitioned/kDelayed do not.
  virtual void on_delivery(std::size_t round, const Message& m, Delivery outcome) {
    (void)round;
    (void)m;
    (void)outcome;
  }

  /// The adversary's corruption request for `party` was granted from the
  /// simulator's corruption budget at the start of `round`: the party is
  /// adversarial from this round on (docs/fault_model.md, adaptive model).
  virtual void on_corrupt(std::size_t round, PartyId party) {
    (void)round;
    (void)party;
  }

  virtual void on_round_end(std::size_t round) { (void)round; }
  virtual void on_run_end(std::size_t rounds) { (void)rounds; }

  /// Harness annotation: protocol phase `name` starts at `start_round`
  /// (rounds belong to the most recent mark at or before them). May be
  /// called before or during the run.
  virtual void on_phase(std::size_t start_round, const std::string& name) {
    (void)start_round;
    (void)name;
  }

  /// Harness annotation: an off-network span of local work (e.g. SRDS key
  /// generation, tree construction) took `wall_ns`.
  virtual void on_span(const std::string& name, std::uint64_t wall_ns) {
    (void)name;
    (void)wall_ns;
  }
};

}  // namespace srds::obs
