#include "net/simulator.hpp"

#include <chrono>
#include <span>
#include <stdexcept>
#include <utility>

#include "obs/prof.hpp"

namespace srds {

Simulator::Simulator(std::vector<std::unique_ptr<Party>> parties, std::vector<bool> corrupt,
                     std::unique_ptr<Adversary> adversary)
    : parties_(std::move(parties)),
      corrupt_(std::move(corrupt)),
      crashed_(parties_.size(), false),
      offline_(parties_.size(), false),
      adversary_(std::move(adversary)),
      stats_(parties_.size()),
      pool_(std::make_unique<WorkerPool>()) {
  if (corrupt_.size() != parties_.size()) {
    throw std::invalid_argument("Simulator: corrupt mask size mismatch");
  }
  // Party ids are 32-bit and kNoParty is reserved for "no party".
  if (parties_.size() >= kNoParty) {
    throw std::invalid_argument("Simulator: too many parties for a 32-bit PartyId");
  }
  // Construction-time invariant only: a slot that is *statically* corrupt
  // never holds honest logic. Adaptive corruption later flips corrupt_[i]
  // while parties_[i] keeps the seized logic (never stepped again, but its
  // outputs stay readable through party()).
  for (PartyId i = 0; i < parties_.size(); ++i) {
    if (corrupt_[i] && parties_[i]) {
      throw std::invalid_argument("Simulator: corrupted slot must not hold honest logic");
    }
    if (!corrupt_[i] && !parties_[i]) {
      throw std::invalid_argument("Simulator: honest slot missing party logic");
    }
  }
  if (!adversary_) adversary_ = std::make_unique<SilentAdversary>();
}

void Simulator::set_fault_plan(const FaultPlan& plan) {
  plan_issues_ = validate_fault_plan(plan, parties_.size(), &corrupt_);
  for (const auto& issue : plan_issues_) {
    if (issue.severity == FaultPlanIssue::Severity::kError) {
      throw std::invalid_argument("Simulator::set_fault_plan: " + issue.what);
    }
  }
  injector_ = std::make_unique<FaultInjector>(plan, parties_.size());
}

void Simulator::emit_delivery(std::size_t round, const Message& m, obs::Delivery outcome) {
  if (trace_) trace_->on_delivery(round, m, outcome);
  ledger().on_delivery(round, m, outcome);
}

// srds-lint: hotpath(Simulator::deliver) — runs once per message per round; must not allocate
// control structures, unwind, or type-erase (rule P1).
void Simulator::deliver(std::size_t round, Message m,
                        std::vector<std::vector<Message>>& inboxes) {
  PROF_SCOPE(obs::ProfSiteId::kSimDeliver);
  // The sender paid for the transmission whatever the network then does.
  if (trace_) trace_->on_send(round, m);
  ledger().on_send(round, m);
  if (!injector_) {
    emit_delivery(round, m, obs::Delivery::kDelivered);
    inboxes[m.to].push_back(std::move(m));
    return;
  }

  // A receiver churned offline at the delivery round (round + 1) loses the
  // message outright; this is deterministic, so it consumes no fault
  // randomness. Corrupt slots are exempt — the adversary always receives.
  if (!corrupt_[m.to] && injector_->offline(m.to, round + 1)) {
    stats_.faults.churn_dropped += 1;
    emit_delivery(round, m, obs::Delivery::kOffline);
    return;
  }

  FaultVerdict v = injector_->on_message(round, m);
  if (!v.deliver) {
    if (v.partitioned) {
      stats_.faults.partitioned += 1;
      emit_delivery(round, m, obs::Delivery::kPartitioned);
    } else {
      stats_.faults.dropped += 1;
      emit_delivery(round, m, obs::Delivery::kDropped);
    }
    return;
  }
  if (v.delay > 0) {
    stats_.faults.delayed += 1;
    emit_delivery(round, m, obs::Delivery::kDelayed);
    delayed_[round + 1 + v.delay].push_back(std::move(m));
    return;
  }
  emit_delivery(round, m, obs::Delivery::kDelivered);
  if (v.duplicate) {
    stats_.faults.duplicated += 1;
    emit_delivery(round, m, obs::Delivery::kDuplicated);
    inboxes[m.to].push_back(m);  // the duplicate shares the body
  }
  inboxes[m.to].push_back(std::move(m));
}

void Simulator::route(std::size_t round, Message m) {
  // Loopback is free: a party "sending to itself" is local computation,
  // not network communication (standard accounting convention). It is
  // also exempt from network faults.
  if (m.from == m.to) {
    inboxes_[m.to].push_back(std::move(m));
    return;
  }
  deliver(round, std::move(m), inboxes_);
}

// One honest party's round on a pool worker; writes only slot i of outs_
// and errors_.
void Simulator::step_party(std::size_t round, PartyId i) {
  PROF_SCOPE(obs::ProfSiteId::kSimPartyStep);
  try {
    outs_[i] = parties_[i]->on_round(round, inboxes_[i]);
  } catch (...) {
    errors_[i] = std::current_exception();
  }
}

bool Simulator::pool_pays(std::uint64_t stepped_ns, std::size_t stepped, std::size_t msgs,
                          std::size_t left, std::size_t lanes) {
  // Decide only once the inline steps have run as long as a dispatch costs:
  // one party's time (a cold cache, a page fault) is no projection, and a
  // round that ends sooner was never worth dispatching.
  if (stepped == 0 || left < 2 || lanes < 2 || stepped_ns < kDispatchNs) return false;
  // Projected from the parties stepped so far: the remaining parties' step
  // time W and messages M. k lanes save W (k - 1) / k and cost one dispatch
  // plus a cross-core hand-off per message (DESIGN.md §7).
  const double per_party = static_cast<double>(left) / static_cast<double>(stepped);
  const double work_ns = static_cast<double>(stepped_ns) * per_party;
  const double msgs_left = static_cast<double>(msgs) * per_party;
  const double saved_ns =
      work_ns * static_cast<double>(lanes - 1) / static_cast<double>(lanes);
  return saved_ns > kDispatchNs + msgs_left * kHandoffNsPerMsg;
}

std::size_t Simulator::step_inline(std::size_t round, std::size_t lanes) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  std::size_t msgs = 0;
  const std::size_t count = runnable_.size();
  for (std::size_t k = 0; k < count;) {
    const PartyId i = runnable_[k];
    step_party(round, i);
    msgs += outs_[i].messages();
    ++k;
    if (lanes < 2) continue;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0);
    if (pool_pays(static_cast<std::uint64_t>(ns.count()), k, msgs, count - k, lanes)) {
      return k;
    }
  }
  return count;
}

void Simulator::begin_run() {
  if (begun_) return;
  begun_ = true;
  const std::size_t n = parties_.size();
  inboxes_.resize(n);
  outs_.resize(n);
  errors_.resize(n);
  runnable_.reserve(n);
  auto_workers_ = auto_workers(affinity_cpus());
  if (trace_) trace_->on_run_begin(parties_.size());
  ledger().on_run_begin(parties_.size());
}

bool Simulator::tick() {
  PROF_SCOPE(obs::ProfSiteId::kSimRound);
  begin_run();
  const std::size_t n = parties_.size();
  const std::size_t round = cur_round_;

  // Crash-stop faults trigger at the start of their scheduled round.
  if (injector_) {
    for (PartyId i = 0; i < n; ++i) {
      if (!corrupt_[i] && !crashed_[i] && injector_->crashed(i, round)) {
        crashed_[i] = true;
        stats_.faults.crashed_parties += 1;
      }
    }
  }

  // Churn state (leave/rejoin) observed at round boundaries. A crashed
  // party keeps its last state; a corrupt slot's churn is inert.
  if (injector_ && !injector_->plan().churn.empty()) {
    for (PartyId i = 0; i < n; ++i) {
      if (corrupt_[i] || crashed_[i]) continue;
      offline_[i] = injector_->offline(i, round);
    }
  }

  // Adaptive corruption: grant the adversary's requests, in its priority
  // order, while budget remains. A grant flips the slot for the rest of
  // the run; the seized honest logic is handed to the adversary and never
  // stepped again. Denied requests (budget gone, bad/already-flipped/
  // crashed target) are counted, never retried by us.
  if (corruption_budget_ > 0 && adversary_) {
    for (PartyId p : adversary_->corruption_requests(round)) {
      if (p >= n || corrupt_[p] || crashed_[p] ||
          stats_.faults.adaptive_corruptions >= corruption_budget_) {
        stats_.faults.corruptions_denied += 1;
        continue;
      }
      corrupt_[p] = true;
      stats_.faults.adaptive_corruptions += 1;
      if (trace_) trace_->on_corrupt(round, p);
      adversary_->on_corrupted(round, p, parties_[p].get());
    }
  }

  // Deferred messages whose delay expires this round join the inbox —
  // unless the receiver is churned offline at the (re)delivery round.
  if (auto it = delayed_.find(round); it != delayed_.end()) {
    for (Message& m : it->second) {
      if (injector_ && !corrupt_[m.to] && injector_->offline(m.to, round)) {
        stats_.faults.churn_dropped += 1;
        emit_delivery(round, m, obs::Delivery::kOffline);
        continue;
      }
      stats_.faults.late_delivered += 1;
      emit_delivery(round, m, obs::Delivery::kLate);
      inboxes_[m.to].push_back(std::move(m));
    }
    delayed_.erase(it);
  }

  bool all_done = true;
  for (PartyId i = 0; i < n; ++i) {
    if (!corrupt_[i] && !crashed_[i] && !parties_[i]->done()) {
      all_done = false;
      break;
    }
  }
  if (all_done) return false;
  if (trace_) trace_->on_round_begin(round);

  // Honest parties step, each writing only its own send list and error slot
  // (DESIGN.md §7). An explicit worker count uses the pool on every
  // round; the automatic mode steps inline until the parties stepped so far
  // project that the pool pays for the rest. Churned-offline parties
  // neither execute nor send this round; their protocol state is frozen
  // until they rejoin.
  runnable_.clear();
  for (PartyId i = 0; i < n; ++i) {
    if (!corrupt_[i] && !crashed_[i] && !offline_[i]) runnable_.push_back(i);
  }
  {
    PROF_SCOPE(obs::ProfSiteId::kSimStep);
    const std::size_t count = runnable_.size();
    std::size_t done = 0;
    std::size_t lanes = workers_;
    if (workers_ == 0) {
      lanes = auto_workers_;
      done = step_inline(round, lanes);
    } else if (workers_ == 1 || count < 2) {
      done = step_inline(round, 1);
    }
    if (done < count) {
      auto step = [this, round, done](std::size_t k) { step_party(round, runnable_[done + k]); };
      pool_->for_each(count - done, lanes, step);
    }
  }
  // Back on this thread, in party order: the first failure by party id
  // surfaces, exactly as a sequential loop would have stopped there. The
  // round is discarded, so a later tick sees no stale slot.
  std::exception_ptr failure;
  for (PartyId i : runnable_) {
    if (errors_[i]) {
      failure = errors_[i];
      break;
    }
    const SendList& sends = outs_[i];
    for (std::size_t k = 0; k < sends.size() && !failure; ++k) {
      for (PartyId to : sends.to(k)) {
        if (to >= n) {
          failure = std::make_exception_ptr(
              std::logic_error("Simulator: honest party emitted ill-addressed message"));
          break;
        }
      }
    }
    if (failure) break;
  }
  if (failure) {
    for (PartyId i : runnable_) {
      errors_[i] = nullptr;
      outs_[i] = {};
      inboxes_[i].clear();
    }
    std::rethrow_exception(failure);
  }

  // Rushing adversary: sees all honest traffic of this round, plus the
  // corrupted parties' inboxes, before choosing its own messages.
  std::vector<Message> corrupt_in;
  for (PartyId i = 0; i < n; ++i) {
    if (!corrupt_[i]) continue;
    for (auto& m : inboxes_[i]) corrupt_in.push_back(std::move(m));
  }
  std::vector<Message> adv_out = adversary_->on_round(round, corrupt_in, outs_);

  // Release this round's inbound mail here, on one thread: a payload is
  // freed into the malloc arena of the thread that built it, and workers
  // freeing into one another's arenas while they allocate contend on the
  // arena locks (DESIGN.md §7). Borrowed TaggedMsg bodies died with the
  // steps (§6). An inbox keeps its buffer for the next round unless this
  // round filled less than half of it: a burst's buffers would otherwise
  // sit empty, one per party, for the rest of the run.
  for (auto& ib : inboxes_) {
    if (ib.capacity() > 2 * ib.size()) {
      ib = std::vector<Message>();
    } else {
      ib.clear();
    }
  }
  // Honest traffic in sender order, then the adversary's accepted messages.
  // A message is built only here, as it lands: one per recipient of each
  // body, in send-list order, all sharing the body (the last one takes it).
  for (PartyId i = 0; i < n; ++i) {
    SendList& sends = outs_[i];
    for (std::size_t k = 0; k < sends.size(); ++k) {
      const std::span<const PartyId> to = sends.to(k);
      for (std::size_t j = 0; j + 1 < to.size(); ++j) {
        route(round, make_msg(i, to[j], sends.body(k), sends.kind(k)));
      }
      route(round, make_msg(i, to.back(), std::move(sends.body(k)), sends.kind(k)));
    }
    sends = SendList();
  }
  for (Message& m : adv_out) {
    // The adversary's messages are untrusted input to the network: it
    // cannot spoof honest senders (channels are authenticated), address
    // parties outside [0, n), or exceed the payload cap. Ill-formed
    // messages are dropped and counted — never indexed into stats.
    if (m.from >= n || !corrupt_[m.from] || m.to >= n ||
        m.payload.size() > kMaxAdversaryPayload) {
      stats_.faults.adversary_rejected += 1;
      continue;
    }
    route(round, std::move(m));
  }
  if (trace_) trace_->on_round_end(round);
  ledger().on_round_end(round);
  cur_round_ += 1;
  return true;
}

void Simulator::end_run() {
  if (ended_) return;
  ended_ = true;
  stats_.rounds = cur_round_;
  if (trace_) trace_->on_run_end(cur_round_);
  ledger().on_run_end(cur_round_);
  stats_.party = NetworkStats::of(ledger()).party;
}

std::size_t Simulator::run(std::size_t max_rounds) {
  begin_run();
  while (cur_round_ < max_rounds && tick()) {
  }
  end_run();
  return stats_.rounds;
}

}  // namespace srds
