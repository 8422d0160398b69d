// Synchronous network simulator.
//
// Executes n parties in lockstep rounds over a complete point-to-point
// network with authenticated channels (the receiver learns the true sender
// identity — the standard model of the paper; cryptographic authentication
// *within* payloads is still needed for transferable authentication, e.g.,
// Dolev-Strong). The adversary statically corrupts a subset of parties and is
// rushing; with `set_corruption_budget` it becomes *adaptive* and may flip
// honest parties mid-run (the seized party's state becomes visible to it,
// future traffic to the slot is rerouted into the adversary's inbox, and
// messages already in flight from earlier rounds still arrive). All
// communication costs are counted in one obs::Ledger per run (the caller's
// via set_ledger, otherwise one the simulator owns); `stats()` is its
// per-party snapshot, taken once at the end of the run.
//
// Optionally the network itself misbehaves: `set_fault_plan` installs a
// seeded, deterministic fault-injection layer (drops, bounded delays,
// duplication, crash-stop faults, partitions, churn — see net/faults.hpp).
// Without a plan, delivery is perfect and behavior is identical to the
// paper's model. Plans are validated on installation: structurally invalid
// plans throw, suspicious-but-legal ones surface findings via plan_issues().
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/faults.hpp"
#include "net/protocol.hpp"
#include "net/stats.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"

namespace srds {

class Simulator {
 public:
  /// `parties[i]` must be non-null exactly for honest parties; corrupted
  /// slots are driven by `adversary` (nullptr = silent).
  Simulator(std::vector<std::unique_ptr<Party>> parties, std::vector<bool> corrupt,
            std::unique_ptr<Adversary> adversary);

  /// Install a fault plan. Call before run(). The plan is validated against
  /// this network first (see validate_fault_plan): a structurally invalid
  /// plan throws std::invalid_argument naming the first error; warnings are
  /// retained and queryable via plan_issues() — never silently ignored.
  void set_fault_plan(const FaultPlan& plan);

  /// Findings from validating the most recently installed fault plan
  /// (warnings only — errors threw out of set_fault_plan).
  const std::vector<FaultPlanIssue>& plan_issues() const { return plan_issues_; }

  /// Enable adaptive corruption: the adversary's corruption_requests() are
  /// consulted at the start of every round and granted — flipping the named
  /// honest party to corrupt for the rest of the run — until `budget` grants
  /// have been spent. 0 (the default) disables adaptive corruption entirely;
  /// requests are then never solicited. Call before run().
  void set_corruption_budget(std::size_t budget) { corruption_budget_ = budget; }
  std::size_t corruption_budget() const { return corruption_budget_; }

  /// Cap on adversary message payloads; larger payloads are rejected (and
  /// counted in stats().faults.adversary_rejected). Honest parties are
  /// trusted code and exempt.
  void set_max_adversary_payload(std::size_t bytes) { max_adv_payload_ = bytes; }

  /// Count this run into `ledger` (non-owning; must outlive run()) instead
  /// of the simulator's own; nullptr restores the owned one. The ledger is
  /// fed every accounting event right after the trace sink sees it — do not
  /// also install it as the trace sink. Call before run().
  void set_ledger(obs::Ledger* ledger) { ledger_ = ledger; }
  /// The ledger this run counts into (register phase marks here).
  obs::Ledger& ledger() { return ledger_ ? *ledger_ : own_ledger_; }
  const obs::Ledger& ledger() const { return ledger_ ? *ledger_ : own_ledger_; }

  /// Install the observability sink (non-owning; must outlive run()),
  /// replacing any previous one. The sink sees round boundaries, every
  /// accepted send and every delivery outcome — nullptr (the default)
  /// costs one pointer test per event. Call before run().
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  /// Run until every live honest party reports done() or `max_rounds`
  /// elapse. Crash-stopped parties count as done. Returns the number of
  /// rounds executed. Implemented on top of the incremental API below;
  /// behavior (stats, trace events, determinism) is identical to the
  /// historical closed loop.
  std::size_t run(std::size_t max_rounds);

  // --- Incremental driving -------------------------------------------------
  //
  // A long-lived caller (the svc daemon) interleaves its own work between
  // rounds: mutate party state via party(i) (e.g. admit a new request into an
  // InstancePipeline), then tick(). The round preamble — crash-stop faults,
  // churn transitions, adaptive corruption grants, expired delayed
  // redeliveries — runs inside tick() exactly as it does inside run().

  /// Execute one round. Returns false — without executing — if every live
  /// honest party is done() (the preamble for the round still runs first,
  /// matching run()'s order); returns true after a round actually executed.
  bool tick();

  /// Stamp stats().rounds with the current round, emit on_run_end and take
  /// the per-party snapshot of the ledger into stats(). Idempotent.
  /// run() == { while tick() under max_rounds; end_run(); }.
  void end_run();

  /// Next round tick() would execute (== rounds executed so far).
  std::size_t current_round() const { return cur_round_; }

  /// Round count, fault counters (live) and the per-party snapshot of the
  /// ledger (filled by end_run; all zero before). With an accumulating
  /// ledger the snapshot spans every run it accumulated.
  const NetworkStats& stats() const { return stats_; }
  std::size_t n() const { return parties_.size(); }
  /// True if party i is adversarial *now* — statically corrupted at
  /// construction, or adaptively corrupted during the run. Query after run()
  /// for the final mask (honest-cost accounting must use this, not the
  /// static mask the run started from).
  bool is_corrupt(PartyId i) const { return corrupt_[i]; }
  /// True if party i crash-stopped during the run (always false without a
  /// fault plan).
  bool is_crashed(PartyId i) const { return crashed_[i]; }

  /// Access a party's logic after the run (to read outputs).
  Party* party(PartyId i) { return parties_[i].get(); }
  const Party* party(PartyId i) const { return parties_[i].get(); }

  static constexpr std::size_t kDefaultMaxAdversaryPayload = 1u << 20;

 private:
  /// Route one accepted outgoing message through the fault layer into
  /// `inboxes` / the delayed queue, with full accounting.
  void deliver(std::size_t round, Message m,
               std::vector<std::vector<Message>>& inboxes);
  /// Report a delivery outcome to the sink and the ledger.
  void emit_delivery(std::size_t round, const Message& m, obs::Delivery outcome);

  /// First-tick setup: size the inboxes and emit on_run_begin (idempotent).
  void begin_run();

  std::vector<std::unique_ptr<Party>> parties_;
  std::vector<bool> corrupt_;
  std::vector<bool> crashed_;
  std::vector<bool> offline_;  // churn state at the current round
  std::unique_ptr<Adversary> adversary_;
  std::unique_ptr<FaultInjector> injector_;
  std::vector<FaultPlanIssue> plan_issues_;
  std::size_t corruption_budget_ = 0;
  obs::TraceSink* trace_ = nullptr;
  std::size_t max_adv_payload_ = kDefaultMaxAdversaryPayload;
  obs::Ledger own_ledger_;
  obs::Ledger* ledger_ = nullptr;  // the caller's; nullptr = own_ledger_
  NetworkStats stats_;

  std::map<std::size_t, std::vector<Message>> delayed_;  // delivery round -> msgs

  // Incremental-driving state. inboxes_[i] = messages to deliver to party i
  // at the start of the next tick.
  std::vector<std::vector<Message>> inboxes_;
  std::size_t cur_round_ = 0;
  bool begun_ = false;
  bool ended_ = false;
};

}  // namespace srds
