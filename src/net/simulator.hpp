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
// Honest parties' round steps run on a worker pool (set_workers; DESIGN.md
// §7). Everything else — the round preamble, the ill-addressed check, the
// rushing adversary, fault injection, delivery, the ledger and the trace
// sink — stays on the calling thread in sequential party order, so every
// byte and event is identical for every worker count.
//
// Optionally the network itself misbehaves: `set_fault_plan` installs a
// seeded, deterministic fault-injection layer (drops, bounded delays,
// duplication, crash-stop faults, partitions, churn — see net/faults.hpp).
// Without a plan, delivery is perfect and behavior is identical to the
// paper's model. Plans are validated on installation: structurally invalid
// plans throw, suspicious-but-legal ones surface findings via plan_issues().
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/faults.hpp"
#include "net/protocol.hpp"
#include "net/stats.hpp"
#include "net/worker_pool.hpp"
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

  /// Worker threads for the honest parties' round steps (DESIGN.md §7).
  /// 0 (the default) = automatic: one per two CPUs in this process's
  /// affinity mask (auto_workers), at most kMaxAutoWorkers, engaged in a
  /// round only once the parties stepped inline project that the pool
  /// pays (pool_pays); k >= 1 = exactly k (1 = sequential, capped at
  /// WorkerPool::kMaxWorkers) on every round with two or more runnable
  /// parties. Every byte, coin,
  /// ledger row and trace event is identical for every value. Threads start
  /// on the first round that uses them, never before on_run_begin. Call
  /// before run().
  void set_workers(std::size_t k) { workers_ = k; }

  /// Run until every live honest party reports done() or `max_rounds`
  /// elapse. Crash-stopped parties count as done. Returns the number of
  /// rounds executed. Implemented on top of the incremental API below.
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

  /// Cap on adversary message payloads; larger payloads are rejected (and
  /// counted in stats().faults.adversary_rejected). Honest parties are
  /// trusted code and exempt.
  static constexpr std::size_t kMaxAdversaryPayload = 1u << 20;
  /// Automatic mode's worker cap: the widest pool its policy and RSS were
  /// measured with (DESIGN.md §7). set_workers(k) may go beyond it.
  static constexpr std::size_t kMaxAutoWorkers = 4;
  /// Automatic mode's worker count on a process with `cpus` CPUs in its
  /// affinity mask: half of them, so that a round, which is only as fast as
  /// its slowest lane, seldom waits on a worker whose CPU another busy
  /// process (or the host of a VM) has taken (DESIGN.md §7). 1 = sequential.
  static std::size_t auto_workers(std::size_t cpus) {
    return std::clamp<std::size_t>(cpus / 2, 1, kMaxAutoWorkers);
  }
  /// Measured costs behind pool_pays (4-vCPU Xeon, DESIGN.md §7): waking
  /// and joining the pool, and handing one message across cores (the
  /// coordinator reading a worker-built outbox and later freeing it into
  /// another thread's arena).
  static constexpr double kDispatchNs = 40e3;
  static constexpr double kHandoffNsPerMsg = 50;
  /// Automatic mode's choice, after `stepped` parties took `stepped_ns` and
  /// sent `msgs` messages inline: whether stepping the `left` remaining
  /// parties on `lanes` threads saves more than it costs.
  static bool pool_pays(std::uint64_t stepped_ns, std::size_t stepped, std::size_t msgs,
                        std::size_t left, std::size_t lanes);

 private:
  /// Route one accepted outgoing message through the fault layer into
  /// `inboxes` / the delayed queue, with full accounting.
  void deliver(std::size_t round, Message m,
               std::vector<std::vector<Message>>& inboxes);
  /// Deliver one accepted message, or hand it straight to the receiver's
  /// inbox when it is loopback.
  void route(std::size_t round, Message m);
  /// Step honest party i: its outbox into outs_[i], a throw into errors_[i].
  /// Runs inline or on a pool worker.
  void step_party(std::size_t round, PartyId i);
  /// Step runnable_ in order on this thread; with lanes >= 2 stop as soon
  /// as pool_pays says the rest should go to the pool. Returns how many
  /// parties were stepped.
  std::size_t step_inline(std::size_t round, std::size_t lanes);
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
  obs::Ledger own_ledger_;
  obs::Ledger* ledger_ = nullptr;  // the caller's; nullptr = own_ledger_
  NetworkStats stats_;

  std::map<std::size_t, std::vector<Message>> delayed_;  // delivery round -> msgs

  // Incremental-driving state. inboxes_[i] = messages to deliver to party i
  // at the start of the next tick; outs_[i] = party i's outbox for the
  // current round, indexed by sender (empty for parties that did not step).
  std::vector<std::vector<Message>> inboxes_;
  std::vector<std::vector<Message>> outs_;
  std::vector<std::exception_ptr> errors_;  // a party step's throw, by party
  std::vector<PartyId> runnable_;           // parties stepping this round
  std::size_t workers_ = 0;                 // set_workers(); 0 = automatic
  std::size_t auto_workers_ = 1;            // automatic mode's lanes, at begin_run
  std::unique_ptr<WorkerPool> pool_;
  std::size_t cur_round_ = 0;
  bool begun_ = false;
  bool ended_ = false;
};

}  // namespace srds
