#include "svc/service.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "ba/attack.hpp"
#include "ba/pi_ba.hpp"
#include "obs/alloc_hooks.hpp"
#include "obs/prof.hpp"

namespace srds::svc {

namespace {

/// Leading constant of the amortized per-decision budget, in bits per log⁴(n).
/// Calibrated against seeded service runs at n ∈ {256, 1024} (the worst
/// honest party is a supreme-committee member paying the f_ba/f_ct front end
/// of every instance): measured maxima are ≈8.3k bits/log⁴ per decision at
/// n=256 (8.5k under an eclipse campaign) and ≈7.0k at n=1024, decreasing in
/// n as a polylog claim should. Headroom ≈ 2x over the worst measurement so
/// the bound stays a real asymptotic claim, not a regression snapshot.
constexpr double kAmortizedBitsPerLog4 = 18000.0;

}  // namespace

BaServiceDaemon::BaServiceDaemon(ServiceConfig config)
    : cfg_(std::move(config)),
      rng_(cfg_.seed ^ 0x7376632d6261640dULL),
      env_(make_service_env(cfg_.n, cfg_.beta, cfg_.seed)),
      sessions_(cfg_.session_window),
      router_(this) {
  if (cfg_.protocol != BoostProtocol::kPiBaOwf &&
      cfg_.protocol != BoostProtocol::kPiBaSnark) {
    throw std::invalid_argument("BaServiceDaemon: protocol must be a pi_ba variant");
  }
  if (env_.honest.empty()) {
    throw std::invalid_argument("BaServiceDaemon: no honest parties at beta=" +
                                std::to_string(cfg_.beta));
  }

  // Chaos hardening mirrors run_ba: under faults or a campaign every
  // instance gets a grace window and step-6 retransmits. Both derive from
  // public configuration, so all parties agree on the stretched schedule.
  const bool chaos = (cfg_.faults.has_value() && cfg_.faults->any()) ||
                     cfg_.campaign != CampaignKind::kNone;
  if (chaos) {
    grace_rounds_ = std::max<std::size_t>(
        cfg_.faults ? cfg_.faults->suggested_grace() : 0, 2);
  }
  dissem_retries_ = chaos ? 2 : 0;

  // Every instance shares one schedule (it depends only on the tree and the
  // grace/retry knobs), so probe it once with a throwaway party.
  first_scheme_ = make_instance_scheme(cfg_.protocol, cfg_.backend,
                                       cfg_.expected_signers,
                                       env_.tree->virtual_count(), rng_.next());
  std::size_t boost_start = 0, dissem_start = 0;
  {
    PiBaConfig pc;
    pc.ae.tree = env_.tree;
    pc.ae.registry = env_.registry;
    pc.ae.seed = 0;
    pc.ae.broadcaster = env_.honest.front();
    pc.ae.grace_rounds = grace_rounds_;
    pc.scheme = first_scheme_;
    pc.dissem_retries = dissem_retries_;
    PiBaParty probe(std::move(pc), env_.honest.front(), false);
    instance_rounds_ = probe.total_rounds();
    boost_start = probe.boost_start();
    dissem_start = probe.dissem_start();
  }

  // Campaign against the service: the adversary's schedule anchors are the
  // first instance's (admitted at round 0 in the intended deployments), so
  // its moves land on the early instances while later ones run through the
  // aftermath — partitions, seized committee seats, churned-out parties.
  std::unique_ptr<Adversary> adversary;
  std::vector<PartitionWindow> campaign_partitions;
  std::size_t corruption_budget = 0;
  if (cfg_.campaign != CampaignKind::kNone) {
    corruption_budget = static_cast<std::size_t>(cfg_.corruption_rate *
                                                 static_cast<double>(cfg_.n));
    CampaignConfig cc;
    cc.kind = cfg_.campaign;
    cc.tree = env_.tree;
    cc.registry = env_.registry;
    cc.corrupt = env_.corrupt;
    cc.budget = corruption_budget;
    cc.seed = rng_.next();
    cc.dissem_start = dissem_start;
    cc.boost_start = boost_start;
    cc.total_rounds = instance_rounds_;
    CampaignSetup setup = make_campaign(std::move(cc));
    adversary = std::move(setup.adversary);
    campaign_partitions = std::move(setup.partitions);
  }

  std::optional<FaultPlan> plan = cfg_.faults;
  if (!campaign_partitions.empty()) {
    if (!plan.has_value()) {
      plan.emplace();
      plan->seed = cfg_.seed ^ 0x63616d706169676eULL;
    }
    plan->partitions.insert(plan->partitions.end(), campaign_partitions.begin(),
                            campaign_partitions.end());
  }

  std::vector<std::unique_ptr<Party>> parties(cfg_.n);
  for (PartyId i : env_.honest) parties[i] = std::make_unique<InstancePipeline>(i);
  sim_ = std::make_unique<Simulator>(std::move(parties), env_.corrupt,
                                     std::move(adversary));
  sim_->set_workers(cfg_.workers);
  sim_->set_ledger(cfg_.ledger);
  sim_->set_corruption_budget(corruption_budget);
  if (plan.has_value() && plan->any()) sim_->set_fault_plan(*plan);
  sim_->set_trace_sink(cfg_.trace);
  for (obs::TraceSink* sink : {static_cast<obs::TraceSink*>(cfg_.trace),
                               static_cast<obs::TraceSink*>(&sim_->ledger())}) {
    if (sink) sink->on_phase(0, "service");
  }
  // Accumulate mode: the ledger's per-party totals span the whole service
  // lifetime — exactly the quantity the amortized budget bounds.
  if (cfg_.ledger) cfg_.ledger->set_accumulate(true);
}

BaServiceDaemon::~BaServiceDaemon() {
  // Destruction without shutdown(): stamp the run end for the observability
  // sinks but skip the drain and the audit (a destructor must not throw).
  if (sim_) sim_->end_run();
}

InstancePipeline* BaServiceDaemon::pipeline(PartyId i) {
  return static_cast<InstancePipeline*>(sim_->party(i));
}

void BaServiceDaemon::add_listener(Listener* listener) {
  if (listener) listeners_.push_back(listener);
}

std::size_t BaServiceDaemon::poll() {
  for (Listener* l : listeners_) {
    while (auto conn = l->accept()) {
      conns_[next_conn_].conn = std::move(conn);
      ++next_conn_;
    }
  }
  std::size_t dispatched = 0;
  for (auto& [id, state] : conns_) {
    Bytes chunk = state.conn->recv();
    if (!chunk.empty()) dispatched += router_.on_bytes(id, chunk);
  }
  drop_closed_connections();
  return dispatched;
}

void BaServiceDaemon::drop_closed_connections() {
  std::vector<std::uint64_t> dead;
  for (auto& [id, state] : conns_) {
    if (state.conn->closed() || router_.poisoned(id)) dead.push_back(id);
  }
  for (std::uint64_t id : dead) {
    // A dead connection takes its sessions with it: releases for their
    // in-flight instances are discarded by the session manager.
    std::vector<std::uint64_t> orphaned;
    for (const auto& [session, conn] : session_conn_) {
      if (conn == id) orphaned.push_back(session);
    }
    for (std::uint64_t session : orphaned) {
      sessions_.close(session);
      session_conn_.erase(session);
    }
    conns_[id].conn->close();
    router_.drop_connection(id);
    conns_.erase(id);
  }
}

void BaServiceDaemon::on_hello(std::uint64_t conn, const Frame&) {
  const std::uint64_t session = sessions_.open();
  ++stats_.sessions;
  session_conn_[session] = conn;
  send_to_conn(conn, make_hello_ack(session, static_cast<std::uint32_t>(cfg_.session_window)));
}

void BaServiceDaemon::on_submit(std::uint64_t conn, const Frame& f) {
  auto bound = session_conn_.find(f.session);
  if (bound == session_conn_.end() || bound->second != conn) {
    // Unknown session, or a submit for someone else's session: refuse, and
    // leave the real owner's duplicate watermark untouched.
    router_.unforward(f.session, f.seq);
    send_to_conn(conn, make_error(f.session, f.seq, "unknown session on this connection"));
    return;
  }
  Reader r(f.payload);
  const bool bit = r.u8() != 0;
  if (!r.done()) {
    router_.unforward(f.session, f.seq);
    send_to_conn(conn, make_error(f.session, f.seq, "malformed submit payload"));
    return;
  }

  const SubmitResult res = sessions_.submit(f.session, f.seq, estimate_retry_after());
  switch (res.status) {
    case SubmitStatus::kAccepted:
      admission_queue_.push_back({f.session, f.seq, bit});
      break;
    case SubmitStatus::kRejectedFull:
      // Backpressure: the seq was NOT consumed, so the client retries the
      // same one — roll the router's duplicate watermark back accordingly.
      ++stats_.rejected_backpressure;
      router_.unforward(f.session, f.seq);
      send_frame(f.session, make_reject(f.session, f.seq, res.retry_after));
      break;
    case SubmitStatus::kDuplicateInFlight:
      break;  // the decision is coming; nothing to do
    case SubmitStatus::kDuplicateDecided:
      if (res.cached.has_value()) {
        send_frame(f.session, make_decision(f.session, f.seq, res.cached->value,
                                            res.cached->agreement, res.cached->round_span,
                                            res.cached->instance));
      }
      break;
    case SubmitStatus::kDuplicateEvicted:
      send_frame(f.session, make_error(f.session, f.seq, "decision evicted from cache"));
      break;
    case SubmitStatus::kBadSession:
      send_frame(f.session, make_error(f.session, f.seq, "session closed"));
      break;
    case SubmitStatus::kBadSeq:
      router_.unforward(f.session, f.seq);
      send_frame(f.session, make_error(f.session, f.seq, "out-of-order sequence number"));
      break;
  }
}

void BaServiceDaemon::on_duplicate_submit(std::uint64_t conn, const Frame& f) {
  // The framing layer already counted the duplicate; classify it against the
  // session state to decide between replay and silence.
  on_submit(conn, f);
}

void BaServiceDaemon::on_close(std::uint64_t, const Frame& f) {
  sessions_.close(f.session);
  session_conn_.erase(f.session);
}

std::uint32_t BaServiceDaemon::estimate_retry_after() const {
  // Rounds until the oldest running instance retires; a fresh submission on
  // an idle service would itself take a full schedule, so that is the floor.
  std::size_t best = instance_rounds_;
  const std::size_t now = sim_->current_round();
  for (const auto& [id, meta] : instance_meta_) {
    const std::size_t end = meta.admitted_round + instance_rounds_;
    best = std::min(best, end > now ? end - now : std::size_t{1});
  }
  return static_cast<std::uint32_t>(std::max<std::size_t>(best, 1));
}

std::size_t BaServiceDaemon::active_instances() const { return instance_meta_.size(); }

void BaServiceDaemon::admit_one(const QueuedAdmission& q) {
  const std::uint64_t id = next_instance_++;
  const std::size_t base = sim_->current_round();

  // Rotate the broadcaster over parties that are still honest and alive —
  // the service speaks for its clients, so any live honest party can carry
  // the submitted bit into the supreme committee.
  PartyId broadcaster = env_.honest.front();
  for (std::size_t probe = 0; probe < env_.honest.size(); ++probe) {
    const PartyId cand = env_.honest[broadcaster_rr_ % env_.honest.size()];
    ++broadcaster_rr_;
    if (!sim_->is_corrupt(cand) && !sim_->is_crashed(cand)) {
      broadcaster = cand;
      break;
    }
  }

  PiBaConfig pc;
  pc.ae.tree = env_.tree;
  pc.ae.registry = env_.registry;
  pc.ae.seed = rng_.next();
  pc.ae.broadcaster = broadcaster;
  pc.ae.grace_rounds = grace_rounds_;
  // One-time signatures: a fresh SRDS key set per instance (pre-published on
  // the bulletin board in one setup; generation is local so it costs no
  // communication). The probe's scheme serves the first admission.
  pc.scheme = first_scheme_ ? std::move(first_scheme_)
                            : make_instance_scheme(cfg_.protocol, cfg_.backend,
                                                   cfg_.expected_signers,
                                                   env_.tree->virtual_count(), rng_.next());
  pc.dissem_retries = dissem_retries_;

  for (PartyId i : env_.honest) {
    if (sim_->is_corrupt(i) || sim_->is_crashed(i)) continue;
    pipeline(i)->admit(id, base, pc, q.bit);
  }

  sessions_.track(q.session, q.seq, id);
  instance_meta_[id] = InstanceMeta{q.bit, base, q.session, q.seq};
  ++stats_.accepted;
}

bool BaServiceDaemon::step() {
  PROF_SCOPE(obs::ProfSiteId::kSvcDaemonStep);
  while (!admission_queue_.empty() && active_instances() < cfg_.max_inflight) {
    QueuedAdmission q = admission_queue_.front();
    admission_queue_.pop_front();
    // A session closed while the submission sat queued: drop it unminted.
    if (!sessions_.is_open(q.session)) continue;
    admit_one(q);
  }
  if (instance_meta_.empty()) return false;
  sim_->tick();
  ++stats_.rounds;
  collect_retirements();
  return true;
}

void BaServiceDaemon::collect_retirements() {
  // The schedule is global, so every live honest party retires an instance
  // in the same tick; parties corrupted or crashed mid-instance simply stop
  // reporting (the paper's guarantees quantify over end-honest parties).
  struct Group {
    std::vector<std::optional<bool>> outputs;
    std::size_t retired_round = 0;
  };
  std::map<std::uint64_t, Group> groups;
  for (PartyId i : env_.honest) {
    if (sim_->is_corrupt(i)) continue;
    for (InstancePipeline::Retired& r : pipeline(i)->take_retired()) {
      Group& g = groups[r.id];
      g.outputs.push_back(r.output);
      g.retired_round = r.retired_round;
    }
  }

  for (auto& [id, group] : groups) {
    auto meta_it = instance_meta_.find(id);
    if (meta_it == instance_meta_.end()) continue;
    const InstanceMeta meta = meta_it->second;
    instance_meta_.erase(meta_it);

    DecisionRecord rec;
    rec.instance = id;
    rec.honest_live = group.outputs.size();
    rec.round_span =
        static_cast<std::uint32_t>(group.retired_round - meta.admitted_round + 1);
    std::optional<bool> value;
    for (const std::optional<bool>& out : group.outputs) {
      if (!out.has_value()) continue;
      ++rec.honest_decided;
      if (value.has_value() && *value != *out) rec.agreement = false;
      value = *out;
    }
    rec.value = value.value_or(false);
    rec.delivered = value.has_value() && rec.agreement && *value == meta.bit;

    ++stats_.decisions;
    if (rec.agreement && rec.honest_decided > 0) ++stats_.agreed;
    if (rec.delivered) ++stats_.delivered;
    decisions_.push_back(rec);

    for (const Release& rel : sessions_.complete(id, rec)) {
      send_frame(rel.session, make_decision(rel.session, rel.seq, rel.record.value,
                                            rel.record.agreement, rel.record.round_span,
                                            rel.record.instance));
    }
  }
}

void BaServiceDaemon::drain(std::size_t max_rounds) {
  std::size_t ticks = 0;
  while (max_rounds == 0 || ticks < max_rounds) {
    poll();
    if (step()) {
      ++ticks;
      continue;
    }
    // Idle. One more poll: a frame may have landed since the last one (e.g.
    // a client replying to a decision we just pushed); truly quiet = done.
    if (poll() == 0 && admission_queue_.empty()) break;
  }
}

void BaServiceDaemon::shutdown() {
  if (shut_down_) return;
  drain();
  for (auto& [id, state] : conns_) {
    (void)id;
    state.conn->close();
  }
  // Final tallies over end-honest parties (frame hygiene is party-local; the
  // network cannot read framing, so the parties' own counters are the truth).
  for (PartyId i : env_.honest) {
    if (sim_->is_corrupt(i)) continue;
    stats_.pipeline_malformed += pipeline(i)->malformed_frames();
    stats_.pipeline_stale += pipeline(i)->stale_frames();
    pipeline(i)->close();
  }
  stats_.duplicates = router_.duplicates_rejected();
  stats_.transport_malformed = router_.malformed_frames();
  stats_.adaptively_corrupted = sim_->stats().faults.adaptive_corruptions;
  sim_->end_run();
  shut_down_ = true;
  audit();
}

obs::Budget BaServiceDaemon::amortized_budget(std::size_t ell) {
  obs::Budget b;
  b.c = kAmortizedBitsPerLog4 * static_cast<double>(std::max<std::size_t>(ell, 1));
  b.k = 4;
  b.n_exp = 0;
  b.min_n = 256;
  return b;
}

std::vector<obs::BudgetEval> BaServiceDaemon::audit() {
  if (!cfg_.ledger) return {};
  obs::BudgetAuditor auditor;
  auditor.require(std::string("svc/") + protocol_name(cfg_.protocol), "",
                  amortized_budget(stats_.decisions));
  std::vector<bool> exclude(cfg_.n, false);
  for (PartyId i = 0; i < cfg_.n; ++i) exclude[i] = sim_->is_corrupt(i);
  std::vector<obs::BudgetEval> evals = auditor.evaluate(*cfg_.ledger, &exclude);
  if (cfg_.strict_budgets) {
    for (const obs::BudgetEval& e : evals) {
      if (e.skipped || e.ok) continue;
      throw BudgetViolation(
          "amortized budget violation: " + e.protocol + " at n=" + std::to_string(e.n) +
              " over " + std::to_string(stats_.decisions) + " decisions: party " +
              std::to_string(e.worst_party) + " used " + std::to_string(e.max_bits) +
              " bits > bound " + std::to_string(static_cast<std::uint64_t>(e.bound_bits)),
          {e});
    }
  }
  return evals;
}

obs::Json BaServiceDaemon::stats_json() const {
  obs::Json j = obs::Json::object();
  obs::Json s = obs::Json::object();
  s.set("decisions", static_cast<unsigned long long>(stats_.decisions));
  s.set("accepted", static_cast<unsigned long long>(stats_.accepted));
  s.set("rejected_backpressure",
        static_cast<unsigned long long>(stats_.rejected_backpressure));
  s.set("sessions", static_cast<unsigned long long>(stats_.sessions));
  s.set("rounds", static_cast<unsigned long long>(stats_.rounds));
  s.set("agreed", static_cast<unsigned long long>(stats_.agreed));
  s.set("delivered", static_cast<unsigned long long>(stats_.delivered));
  s.set("duplicates", static_cast<unsigned long long>(stats_.duplicates));
  s.set("transport_malformed",
        static_cast<unsigned long long>(stats_.transport_malformed));
  s.set("pipeline_malformed",
        static_cast<unsigned long long>(stats_.pipeline_malformed));
  s.set("pipeline_stale", static_cast<unsigned long long>(stats_.pipeline_stale));
  s.set("adaptively_corrupted",
        static_cast<unsigned long long>(stats_.adaptively_corrupted));
  j.set("stats", std::move(s));
  j.set("active_instances", static_cast<unsigned long long>(active_instances()));
  j.set("queued_admissions", static_cast<unsigned long long>(queued_admissions()));
  j.set("sessions_opened",
        static_cast<unsigned long long>(sessions_.sessions_opened()));
  j.set("current_round", static_cast<unsigned long long>(sim_->current_round()));
  if (cfg_.ledger) {
    const obs::PartyStat ps = cfg_.ledger->stat(obs::LedgerField::kBytesTotal);
    obs::Json l = obs::Json::object();
    l.set("bytes_total", static_cast<unsigned long long>(ps.total));
    l.set("bytes_max_party", static_cast<unsigned long long>(ps.max));
    l.set("bytes_p90_party", static_cast<unsigned long long>(ps.p90));
    j.set("ledger", std::move(l));
  }
  if (obs::alloc_hooks_active()) {
    j.set("alloc_ops", static_cast<unsigned long long>(obs::alloc_ops()));
  }
  if (obs::prof_enabled()) {
    j.set("prof", obs::prof_to_json());
  }
  return j;
}

void BaServiceDaemon::on_stats(std::uint64_t conn, const Frame& f) {
  // Snapshot requests carry no session requirement: any connection may ask.
  send_to_conn(conn, make_stats_reply(f.session, stats_json().dump()));
}

void BaServiceDaemon::send_frame(std::uint64_t session, const Frame& f) {
  auto it = session_conn_.find(session);
  if (it == session_conn_.end()) return;  // session's connection is gone
  send_to_conn(it->second, f);
}

void BaServiceDaemon::send_to_conn(std::uint64_t conn, const Frame& f) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  const Bytes wire = encode_frame(f);
  it->second.conn->send(wire);
}

// --- ServiceClient ---------------------------------------------------------

ServiceClient::ServiceClient(std::unique_ptr<Connection> conn)
    : conn_(std::move(conn)) {}

void ServiceClient::open() { conn_->send(encode_frame(make_hello())); }

std::uint64_t ServiceClient::submit(bool bit) {
  if (!can_submit()) return 0;
  const std::uint64_t seq = next_seq_++;
  sent_bits_[seq] = bit;
  ++inflight_;
  conn_->send(encode_frame(make_submit(session_, seq, bit)));
  return seq;
}

std::uint64_t ServiceClient::retry() {
  if (retry_queue_.empty()) return 0;
  const std::uint64_t seq = retry_queue_.front();
  retry_queue_.pop_front();
  ++inflight_;
  conn_->send(encode_frame(make_submit(session_, seq, sent_bits_[seq])));
  return seq;
}

std::size_t ServiceClient::poll() {
  decoder_.feed(conn_->recv());
  std::size_t processed = 0;
  while (auto f = decoder_.next()) {
    ++processed;
    switch (f->type) {
      case FrameType::kHelloAck: {
        std::uint32_t window = 0;
        if (parse_hello_ack(f->payload, window)) {
          session_ = f->session;
          window_ = window;
        }
        break;
      }
      case FrameType::kDecision: {
        DecisionPayload d;
        if (!parse_decision(f->payload, d)) break;
        auto it = sent_bits_.find(f->seq);
        ClientDecision cd;
        cd.seq = f->seq;
        cd.bit = it != sent_bits_.end() && it->second;
        cd.decision = d;
        decisions_.push_back(cd);
        ++decisions_received_;
        if (it != sent_bits_.end() && inflight_ > 0) --inflight_;
        break;
      }
      case FrameType::kReject: {
        ++rejects_;
        if (inflight_ > 0) --inflight_;
        // Keep the retry queue in seq order: the server consumes sequence
        // numbers contiguously, so retries must go out lowest-first.
        auto pos = std::lower_bound(retry_queue_.begin(), retry_queue_.end(), f->seq);
        if (pos == retry_queue_.end() || *pos != f->seq) retry_queue_.insert(pos, f->seq);
        break;
      }
      case FrameType::kError: {
        Reader r(f->payload);
        last_error_ = r.str();
        if (sent_bits_.count(f->seq) != 0) {
          if (inflight_ > 0) --inflight_;
          auto pos = std::lower_bound(retry_queue_.begin(), retry_queue_.end(), f->seq);
          if (pos == retry_queue_.end() || *pos != f->seq) retry_queue_.insert(pos, f->seq);
        }
        break;
      }
      case FrameType::kStatsReply: {
        std::string json;
        if (parse_stats_reply(f->payload, json)) {
          last_stats_ = std::move(json);
          ++stats_received_;
        }
        break;
      }
      case FrameType::kHello:
      case FrameType::kSubmit:
      case FrameType::kClose:
      case FrameType::kStats:
        break;  // client-bound stream should not carry these; ignore
    }
  }
  return processed;
}

void ServiceClient::request_stats() {
  conn_->send(encode_frame(make_stats(session_)));
}

std::vector<ServiceClient::ClientDecision> ServiceClient::take_decisions() {
  std::vector<ClientDecision> out;
  out.swap(decisions_);
  return out;
}

void ServiceClient::close() {
  if (session_ != 0) conn_->send(encode_frame(make_close(session_)));
  conn_->close();
}

}  // namespace srds::svc
