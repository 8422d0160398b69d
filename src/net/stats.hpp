// Per-party communication accounting, as seen by the rest of the system.
//
// Every quantitative claim this repository reproduces (Table 1 and the
// scaling figures) is measured inside the network layer — protocols never
// self-report their costs. The simulator counts every send and delivery
// into one obs::Ledger (obs/ledger.hpp); NetworkStats is the per-party
// snapshot of that Ledger, taken once at the end of a run, next to the
// round count and the fault counters. Per party it holds
//   * bytes/messages sent and received,
//   * the number of distinct peers communicated with (the paper's
//     "communication locality" / communication-graph degree).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/message.hpp"
#include "obs/ledger.hpp"

namespace srds {

struct PartyStats : obs::PartyTally {
  std::size_t peers = 0;  // distinct parties exchanged messages with

  bool operator==(const PartyStats&) const = default;

  /// Locality: number of distinct parties this party exchanged messages
  /// with, in either direction.
  std::size_t locality() const { return peers; }
};

/// Aggregate counts of network misbehavior during a run — populated only
/// when the simulator runs under a FaultPlan (see net/faults.hpp), except
/// `adversary_rejected`, which counts ill-formed adversary messages the
/// network discarded (bad `from`/`to` indices or oversized payloads).
struct FaultCounters {
  std::uint64_t dropped = 0;         // lost to random/link drop faults
  std::uint64_t partitioned = 0;     // lost crossing an active partition cut
  std::uint64_t delayed = 0;         // deliveries deferred by a delay fault
  std::uint64_t late_delivered = 0;  // deferred messages that did arrive
  std::uint64_t duplicated = 0;      // extra copies injected at receivers
  std::uint64_t crashed_parties = 0; // honest parties that crash-stopped
  std::uint64_t adversary_rejected = 0;
  std::uint64_t churn_dropped = 0;   // deliveries lost to an offline receiver
  // Adaptive corruption (docs/fault_model.md): grants consumed from the
  // simulator's corruption budget, and adversary requests that were refused
  // (budget exhausted, or the target was already corrupt/crashed/invalid).
  std::uint64_t adaptive_corruptions = 0;
  std::uint64_t corruptions_denied = 0;
  // Frames a multiplexing protocol layer (ParallelProto, the svc instance
  // pipeline) received but could not parse — truncated child index, index out
  // of range, or a bad instance header. These are accepted by the *network*
  // (channels are authenticated) and rejected by the *protocol framing*, so
  // they are counted here post-run from the honest parties' own tallies;
  // eclipse-style garbage floods become visible instead of vanishing.
  std::uint64_t malformed_frames = 0;

  bool operator==(const FaultCounters&) const = default;
};

struct NetworkStats {
  std::vector<PartyStats> party;
  std::size_t rounds = 0;
  FaultCounters faults;

  explicit NetworkStats(std::size_t n = 0) : party(n) {}

  /// Per-party snapshot of `ledger`'s whole run (accumulated runs
  /// included); `rounds` and `faults` are left for the caller.
  static NetworkStats of(const obs::Ledger& ledger);
  /// Per-party snapshot of phases [first_phase, last_phase) of `ledger`'s
  /// current run; all zero when the range is empty (an absent phase).
  static NetworkStats of(const obs::Ledger& ledger, std::size_t first_phase,
                         std::size_t last_phase);

  bool operator==(const NetworkStats&) const = default;

  std::uint64_t total_bytes() const {
    std::uint64_t t = 0;
    for (const auto& p : party) t += p.bytes_sent;
    return t;
  }

  /// Max of sent+received over parties.
  std::uint64_t max_bytes_total() const {
    std::uint64_t m = 0;
    for (const auto& p : party) m = std::max(m, p.bytes_total());
    return m;
  }

  std::size_t max_locality() const {
    std::size_t m = 0;
    for (const auto& p : party) m = std::max(m, p.locality());
    return m;
  }
};

}  // namespace srds
