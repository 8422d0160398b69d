// Seeded, deterministic fault injection for the synchronous simulator.
//
// The paper's model assumes perfect synchronous delivery; a production
// deployment does not get that luxury. A `FaultPlan` describes how the
// network misbehaves — per-message drop probability (globally or per link),
// bounded delay (messages arrive up to `max_delay` rounds late instead of
// being lost), duplication, crash-stop faults at a scheduled round,
// round-windowed partitions between party sets, and party churn (leave /
// rejoin windows during which a party is offline). The `Simulator` consults
// a `FaultInjector` built from the plan on every delivery.
//
// Determinism: every per-message decision is derived by hashing
// (plan seed, send round, from, to, per-link sequence number) through
// SplitMix64, so a chaos run is a pure function of (protocol, plan) — two
// runs with the same seed produce byte-identical `NetworkStats`, and a
// decision for one link never depends on traffic on another link.
//
// See docs/fault_model.md for the taxonomy and its relation to the paper's
// synchronous model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/message.hpp"

namespace srds {

/// Crash-stop fault: an honest party halts permanently at the start of
/// `round` — it neither executes nor sends from that round on. (Corrupt
/// parties are the adversary's business; crash entries for them are ignored.)
struct CrashFault {
  PartyId party = 0;
  std::size_t round = 0;
};

/// Network partition active during send rounds [from_round, until_round):
/// messages crossing the cut between `group` and its complement are dropped.
/// Traffic within either side is unaffected.
struct PartitionWindow {
  std::size_t from_round = 0;
  std::size_t until_round = 0;
  std::vector<PartyId> group;
};

/// Per-link drop-probability override (applies on top of the global rate).
struct LinkDropOverride {
  PartyId from = 0;
  PartyId to = 0;
  double drop_prob = 0.0;
};

/// Churn: the party is offline during send rounds [from_round, until_round).
/// While offline it neither executes nor sends, and messages that would be
/// delivered to it are lost (counted in FaultCounters::churn_dropped); at
/// `until_round` it rejoins with its protocol state intact — the leave /
/// rejoin model of the long-lived broadcast service (ROADMAP item 2). A
/// crash-stop dominates: a crashed party never rejoins.
struct ChurnWindow {
  PartyId party = 0;
  std::size_t from_round = 0;
  std::size_t until_round = 0;
};

struct FaultPlan {
  /// Seed for all randomized fault decisions (drop/delay/duplicate).
  std::uint64_t seed = 1;

  /// Probability an individual message is silently dropped.
  double drop_prob = 0.0;

  /// Probability an individual message is deferred; a deferred message is
  /// delivered 1..max_delay rounds late (uniform), never lost. Inactive
  /// unless max_delay >= 1.
  double delay_prob = 0.0;
  std::size_t max_delay = 0;

  /// Probability the receiver gets a second copy of a delivered message
  /// (within the same round's inbox).
  double duplicate_prob = 0.0;

  std::vector<LinkDropOverride> link_drops;
  std::vector<CrashFault> crashes;
  std::vector<PartitionWindow> partitions;
  std::vector<ChurnWindow> churn;

  /// True if the plan can affect any delivery at all.
  bool any() const {
    return drop_prob > 0.0 || (delay_prob > 0.0 && max_delay > 0) ||
           duplicate_prob > 0.0 || !link_drops.empty() || !crashes.empty() ||
           !partitions.empty() || !churn.empty();
  }

  /// Extra protocol rounds a harness should budget so that delayed traffic
  /// can still be ingested (see BaRunConfig::grace_rounds).
  std::size_t suggested_grace() const { return max_delay ? max_delay + 1 : 0; }
};

/// One finding from validate_fault_plan. Errors describe plans that are
/// ill-defined (out-of-range PartyIds, invalid probabilities, inverted
/// windows) and make Simulator::set_fault_plan throw; warnings describe
/// plans that are well-defined but probably not what the author meant
/// (crash entries for corrupt parties, overlapping windows on the same
/// cut). Warnings are surfaced — never silently ignored — through
/// Simulator::plan_issues() and BaRunResult::plan_issues.
struct FaultPlanIssue {
  enum class Severity { kWarning, kError };
  Severity severity = Severity::kWarning;
  std::string what;
};

/// Structural validation of a plan against a network of `n` parties.
/// `corrupt` (optional) enables the corrupt-party checks: crash or churn
/// entries naming corrupted parties are operationally inert (the adversary
/// already controls those slots) and come back as warnings.
std::vector<FaultPlanIssue> validate_fault_plan(const FaultPlan& plan, std::size_t n,
                                                const std::vector<bool>* corrupt = nullptr);

/// Per-delivery verdict of the injector.
struct FaultVerdict {
  bool deliver = true;       // false => message is lost
  bool partitioned = false;  // lost specifically to a partition cut
  std::size_t delay = 0;     // extra rounds before delivery (0 = on time)
  bool duplicate = false;    // receiver gets a second copy
};

/// Stateful evaluator of a FaultPlan over one simulation run. Not
/// thread-safe; the simulator drives it from a single thread in
/// deterministic message order.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::size_t n);

  /// Decide the fate of a message sent in `round`. Consumes one per-link
  /// sequence number, so duplicate calls for the same message disagree —
  /// call exactly once per send.
  FaultVerdict on_message(std::size_t round, const Message& m);

  /// Has party `i` crash-stopped at or before `round`?
  bool crashed(PartyId i, std::size_t round) const {
    return i < crash_round_.size() && crash_round_[i].has_value() &&
           *crash_round_[i] <= round;
  }

  // srds-lint: hotpath(FaultInjector::offline) — consulted once per delivery and once per party per
  // round under a churn-bearing plan; must not allocate or unwind (rule P1).
  /// Is party `i` churned offline during round `round`? Offline parties do
  /// not execute, and deliveries to them at that round are lost. A crashed
  /// party is reported through crashed(), not here.
  bool offline(PartyId i, std::size_t round) const {
    for (const ChurnWindow& w : plan_.churn) {
      if (w.party == i && round >= w.from_round && round < w.until_round) return true;
    }
    return false;
  }

  const FaultPlan& plan() const { return plan_; }

 private:
  double link_drop_prob(PartyId from, PartyId to) const;
  bool crosses_partition(std::size_t round, PartyId from, PartyId to) const;

  FaultPlan plan_;
  std::size_t n_;
  std::vector<std::optional<std::size_t>> crash_round_;
  std::unordered_map<std::uint64_t, double> link_override_;
  std::vector<std::vector<bool>> partition_side_;  // per window: membership
  // Per-link sequence numbers within the current round (reset on round
  // change) so that two same-link messages in one round draw independent
  // randomness.
  std::size_t seq_round_ = static_cast<std::size_t>(-1);
  std::unordered_map<std::uint64_t, std::uint32_t> seq_;
};

}  // namespace srds
