// BaServiceDaemon — the long-lived BA service (ROADMAP item 2, Cor. 1.2).
//
// One daemon owns one comm tree + supreme committee + signature registry and
// serves a *stream* of 1-bit agreement requests over its lifetime: clients
// connect over a Transport (deterministic loopback or TCP), open sessions,
// and submit bits; each accepted submission becomes a π_ba broadcast
// instance admitted into every honest party's InstancePipeline, so many
// instances run *staggered* — at different protocol rounds — over the same
// simulated network. Decisions flow back per session in submission order.
//
// The daemon drives the Simulator incrementally (Simulator::tick), which
// means every fault/campaign capability of the chaos engine applies to the
// service unchanged: fault plans, churn, adaptive corruption budgets and the
// campaign library can all attack the daemon mid-stream (docs/service.md
// describes what an eclipse looks like against a service).
//
// Cost accounting: an obs::Ledger in accumulate mode observes the whole
// service lifetime; amortized_budget() turns Corollary 1.2's ℓ·polylog(n)
// bits-per-party claim into a runtime assertion via obs::BudgetAuditor
// (audit() / --strict-budgets).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ba/runner.hpp"
#include "common/rng.hpp"
#include "net/simulator.hpp"
#include "obs/json.hpp"
#include "svc/frame.hpp"
#include "svc/pipeline.hpp"
#include "svc/session.hpp"
#include "svc/transport.hpp"

namespace srds::svc {

struct ServiceConfig {
  std::size_t n = 256;
  double beta = 0.0;          // static fail-silent corruption fraction
  std::uint64_t seed = 1;
  BoostProtocol protocol = BoostProtocol::kPiBaSnark;  // must be a π_ba variant
  BaseSigBackend backend = BaseSigBackend::kCompact;
  std::size_t expected_signers = 48;

  /// Backpressure: max in-flight submissions per session, and the global cap
  /// on concurrently running BA instances across all sessions. Submissions
  /// beyond the session window are rejected with a retry-after hint;
  /// accepted submissions beyond max_inflight queue until a slot retires.
  std::size_t session_window = 8;
  std::size_t max_inflight = 16;

  /// Chaos: attack campaign against the service (net/campaign.hpp), its
  /// adaptive corruption budget as a fraction of n, and a network fault
  /// plan. The campaign's schedule anchors are the first instance's.
  CampaignKind campaign = CampaignKind::kNone;
  double corruption_rate = 0.0;
  std::optional<FaultPlan> faults;

  /// Observability (non-owning; must outlive the daemon). The ledger is
  /// switched to accumulate mode and observes the entire service lifetime.
  obs::Ledger* ledger = nullptr;
  obs::TraceSink* trace = nullptr;
  /// Throw BudgetViolation from shutdown()/audit() when the amortized
  /// per-party budget fails (requires `ledger`).
  bool strict_budgets = false;

  /// Worker threads for the simulator backend's round steps
  /// (Simulator::set_workers): 0 = automatic, k = exactly k. Outputs and
  /// the Ledger are identical for every value.
  std::size_t workers = 0;
};

struct ServiceStats {
  std::size_t decisions = 0;          // instances retired and released
  std::size_t accepted = 0;           // submissions admitted to the pipeline
  std::size_t rejected_backpressure = 0;
  std::size_t sessions = 0;
  std::size_t rounds = 0;             // simulator rounds actually ticked
  std::size_t agreed = 0;             // decisions with full honest agreement
  std::size_t delivered = 0;          // decisions matching the submitted bit
  std::uint64_t duplicates = 0;       // framing-layer duplicate rejections
  std::uint64_t transport_malformed = 0;  // malformed frames off the wire
  std::uint64_t pipeline_malformed = 0;   // malformed instance/phase frames
  std::uint64_t pipeline_stale = 0;   // well-formed frames for dead instances
  std::size_t adaptively_corrupted = 0;
};

class BaServiceDaemon final : public FrameHandler {
 public:
  explicit BaServiceDaemon(ServiceConfig config);
  ~BaServiceDaemon() override;

  BaServiceDaemon(const BaServiceDaemon&) = delete;
  BaServiceDaemon& operator=(const BaServiceDaemon&) = delete;

  /// Attach a front door (non-owning; must outlive the daemon). Several may
  /// be attached (e.g. loopback for a local client plus TCP).
  void add_listener(Listener* listener);

  /// Accept pending connections and process every frame that has arrived.
  /// Returns the number of frames dispatched (0 = nothing new).
  std::size_t poll();

  /// Admit queued submissions (up to max_inflight) and execute one simulator
  /// round if any instance is running. Returns false when idle (nothing
  /// admitted or active — no round is consumed).
  bool step();

  /// poll() + step() until the service is idle and no frames arrive:
  /// everything submitted so far is decided and delivered. `max_rounds`
  /// bounds the ticks (0 = no bound).
  void drain(std::size_t max_rounds = 0);

  /// Close every session, drain in-flight work, stamp the run end on the
  /// observability sinks, and (with a ledger) audit the amortized budget —
  /// throwing BudgetViolation under strict_budgets. Idempotent.
  void shutdown();

  const ServiceConfig& config() const { return cfg_; }
  const ServiceStats& stats() const { return stats_; }
  /// Every decision released so far, in release order (diagnostics).
  const std::vector<DecisionRecord>& decisions() const { return decisions_; }

  /// The amortized per-party claim of Corollary 1.2 for `ell` decisions:
  /// bits per honest party across the whole service lifetime is at most
  /// ell · c · log⁴(n). The constant is calibrated against seeded runs
  /// (tests/svc_test.cpp, bench/fig_service.cpp); log⁴ because the f_ct
  /// front end dominates supreme-committee members (obs/budget.hpp).
  static obs::Budget amortized_budget(std::size_t ell);

  /// Evaluate the amortized budget over the final honest mask (empty
  /// without a ledger). Throws BudgetViolation under strict_budgets.
  std::vector<obs::BudgetEval> audit();

  /// Instances currently running (across all parties — they stay in
  /// lockstep, so this is the per-party active count).
  std::size_t active_instances() const;
  /// Submissions accepted but not yet admitted into the pipelines.
  std::size_t queued_admissions() const { return admission_queue_.size(); }

  /// Rounds until the oldest running instance retires (the retry-after hint
  /// attached to backpressure rejections; total schedule length when idle).
  std::uint32_t estimate_retry_after() const;

  /// The kStatsReply document (also served to on_stats requests): daemon
  /// counters, session/instance occupancy, ledger totals when a ledger is
  /// attached, live allocation count when the alloc hooks are linked, and
  /// the prof sites when profiling is enabled.
  obs::Json stats_json() const;

  // FrameHandler (the router calls these from poll()):
  void on_hello(std::uint64_t conn, const Frame& f) override;
  void on_submit(std::uint64_t conn, const Frame& f) override;
  void on_duplicate_submit(std::uint64_t conn, const Frame& f) override;
  void on_close(std::uint64_t conn, const Frame& f) override;
  void on_stats(std::uint64_t conn, const Frame& f) override;

 private:
  struct ConnState {
    std::unique_ptr<Connection> conn;
  };
  struct QueuedAdmission {
    std::uint64_t session = 0;
    std::uint64_t seq = 0;
    bool bit = false;
  };
  struct InstanceMeta {
    bool bit = false;
    std::size_t admitted_round = 0;
    std::uint64_t session = 0;
    std::uint64_t seq = 0;
  };

  InstancePipeline* pipeline(PartyId i);
  void admit_one(const QueuedAdmission& q);
  void collect_retirements();
  void send_frame(std::uint64_t session, const Frame& f);
  void send_to_conn(std::uint64_t conn, const Frame& f);
  void drop_closed_connections();

  ServiceConfig cfg_;
  Rng rng_;
  ServiceEnv env_;
  std::unique_ptr<Simulator> sim_;
  SessionManager sessions_;
  FrameRouter router_;

  // One schedule for every instance (derived from public parameters only).
  std::size_t instance_rounds_ = 0;  // total_rounds() incl. grace
  std::size_t grace_rounds_ = 0;     // per-instance grace window (chaos runs)
  std::size_t dissem_retries_ = 0;   // step-6 retransmits (chaos runs)
  SrdsSchemePtr first_scheme_;       // probe's scheme, reused by admission #1

  std::vector<Listener*> listeners_;
  std::unordered_map<std::uint64_t, ConnState> conns_;
  std::unordered_map<std::uint64_t, std::uint64_t> session_conn_;  // session -> conn
  std::uint64_t next_conn_ = 1;

  std::deque<QueuedAdmission> admission_queue_;
  std::unordered_map<std::uint64_t, InstanceMeta> instance_meta_;
  std::uint64_t next_instance_ = 1;
  std::size_t broadcaster_rr_ = 0;  // rotating broadcaster cursor

  ServiceStats stats_;
  std::vector<DecisionRecord> decisions_;
  bool shut_down_ = false;
};

/// Client-side protocol state over one Transport connection. Fully
/// non-blocking: every method returns immediately; call poll() to ingest
/// whatever the server has sent (drive the daemon/pump between polls when
/// running single-threaded over the loopback transport).
class ServiceClient {
 public:
  explicit ServiceClient(std::unique_ptr<Connection> conn);

  /// Send the session hello. opened() turns true once the ack arrives.
  void open();
  bool opened() const { return session_ != 0; }
  std::uint64_t session() const { return session_; }
  /// Server-granted submission window (0 until opened).
  std::uint32_t window() const { return window_; }

  /// Run ahead of the granted window: an optimistic client may keep up to
  /// `w` submissions in flight and absorb the resulting kReject/kError
  /// responses through retry(). This is how the backpressure protocol is
  /// exercised deliberately (tests, benches); well-behaved clients stay at
  /// the granted window.
  void override_window(std::uint32_t w) { window_ = w; }

  /// Submit a bit; returns the assigned seq, or 0 when not opened or a
  /// rejected submission is awaiting retry() (the server consumes sequence
  /// numbers in order, so the retry must go out first).
  std::uint64_t submit(bool bit);

  /// Re-send the oldest rejected submission; returns its seq (0 = none).
  std::uint64_t retry();
  bool needs_retry() const { return !retry_queue_.empty(); }

  /// Submissions sent and not yet answered (decision or reject).
  std::size_t inflight() const { return inflight_; }
  bool can_submit() const {
    return opened() && retry_queue_.empty() && inflight_ < window_;
  }

  /// Ingest server frames. Returns the number of frames processed.
  std::size_t poll();

  /// Request a stats snapshot from the daemon (kStats). The reply lands in
  /// last_stats() after a later poll().
  void request_stats();
  /// The most recent kStatsReply JSON text ("" until one arrives).
  const std::string& last_stats() const { return last_stats_; }
  std::size_t stats_received() const { return stats_received_; }

  struct ClientDecision {
    std::uint64_t seq = 0;
    bool bit = false;  // what was submitted
    DecisionPayload decision;
  };
  /// Decisions received since the last call (seq order per session).
  std::vector<ClientDecision> take_decisions();

  std::size_t decisions_received() const { return decisions_received_; }
  std::uint64_t rejects_received() const { return rejects_; }
  const std::string& last_error() const { return last_error_; }

  void close();

 private:
  std::unique_ptr<Connection> conn_;
  FrameDecoder decoder_;
  std::uint64_t session_ = 0;
  std::uint32_t window_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t inflight_ = 0;
  std::unordered_map<std::uint64_t, bool> sent_bits_;  // seq -> submitted bit
  std::deque<std::uint64_t> retry_queue_;              // rejected seqs, oldest first
  std::vector<ClientDecision> decisions_;
  std::size_t decisions_received_ = 0;
  std::uint64_t rejects_ = 0;
  std::string last_error_;
  std::string last_stats_;
  std::size_t stats_received_ = 0;
};

}  // namespace srds::svc
