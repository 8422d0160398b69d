#include "net/simulator.hpp"

#include <stdexcept>

#include "obs/prof.hpp"

namespace srds {

Simulator::Simulator(std::vector<std::unique_ptr<Party>> parties, std::vector<bool> corrupt,
                     std::unique_ptr<Adversary> adversary)
    : parties_(std::move(parties)),
      corrupt_(std::move(corrupt)),
      crashed_(parties_.size(), false),
      offline_(parties_.size(), false),
      adversary_(std::move(adversary)),
      stats_(parties_.size()) {
  if (corrupt_.size() != parties_.size()) {
    throw std::invalid_argument("Simulator: corrupt mask size mismatch");
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
    inboxes[m.to].push_back(m);
  }
  inboxes[m.to].push_back(std::move(m));
}

void Simulator::begin_run() {
  if (begun_) return;
  begun_ = true;
  inboxes_.resize(parties_.size());
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

  std::vector<Message> honest_out;
  for (PartyId i = 0; i < n; ++i) {
    if (corrupt_[i] || crashed_[i]) continue;
    // Churned-offline parties neither execute nor send this round; their
    // protocol state is frozen until they rejoin.
    if (offline_[i]) continue;
    PROF_SCOPE(obs::ProfSiteId::kSimPartyStep);
    auto out = parties_[i]->on_round(round, inboxes_[i]);
    for (auto& m : out) {
      if (m.from != i || m.to >= n) {
        throw std::logic_error("Simulator: honest party emitted ill-addressed message");
      }
      honest_out.push_back(std::move(m));
    }
  }

  // Rushing adversary: sees all honest traffic of this round, plus the
  // corrupted parties' inboxes, before choosing its own messages.
  std::vector<Message> corrupt_in;
  for (PartyId i = 0; i < n; ++i) {
    if (!corrupt_[i]) continue;
    for (auto& m : inboxes_[i]) corrupt_in.push_back(std::move(m));
  }
  std::vector<Message> adv_out =
      adversary_->on_round(round, corrupt_in, honest_out);
  for (auto& m : adv_out) {
    // The adversary's messages are untrusted input to the network: it
    // cannot spoof honest senders (channels are authenticated), address
    // parties outside [0, n), or exceed the payload cap. Ill-formed
    // messages are dropped and counted — never indexed into stats.
    if (m.from >= n || !corrupt_[m.from] || m.to >= n ||
        m.payload.size() > max_adv_payload_) {
      stats_.faults.adversary_rejected += 1;
      continue;
    }
    honest_out.push_back(std::move(m));
  }

  for (auto& ib : inboxes_) ib.clear();
  for (auto& m : honest_out) {
    // Loopback is free: a party "sending to itself" is local computation,
    // not network communication (standard accounting convention). It is
    // also exempt from network faults.
    if (m.from == m.to) {
      inboxes_[m.to].push_back(std::move(m));
      continue;
    }
    deliver(round, std::move(m), inboxes_);
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
