// Per-client session state for the BA service daemon (docs/service.md).
//
// A session is one client's ordered stream of agreement submissions. The
// manager enforces the service's backpressure contract:
//   * each session has a bounded in-flight window; a submission beyond it is
//     rejected with a retry-after hint instead of queueing unboundedly;
//   * sequence numbers are strictly increasing from 1; duplicates replay the
//     cached decision (bounded cache) rather than re-running agreement;
//   * decisions are released strictly in submission (seq) order per session,
//     even when the underlying staggered BA instances finish out of order.
//
// The manager is transport- and protocol-agnostic: it maps (session, seq)
// submissions to instance ids and instance completions back to ordered
// (session, seq, record) releases. The daemon owns actually minting the BA
// instance and producing the DecisionRecord.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

namespace srds::svc {

/// Outcome of one retired BA instance, as released to a session.
struct DecisionRecord {
  std::uint64_t instance = 0;
  bool value = false;       // the agreed bit
  bool agreement = true;    // all honest deciders agreed
  bool delivered = false;   // value == the submitted bit (broadcast validity)
  std::uint32_t round_span = 0;  // rounds from admission to retirement
  std::size_t honest_decided = 0;
  std::size_t honest_live = 0;
};

enum class SubmitStatus : std::uint8_t {
  kAccepted,         // tracked; daemon must mint an instance
  kRejectedFull,     // window full — client should retry after `retry_after`
  kDuplicateInFlight,  // seq already tracked, still undecided
  kDuplicateDecided,   // seq already decided — cached record returned
  kDuplicateEvicted,   // seq decided long ago, record evicted from the cache
  kBadSession,       // unknown or closed session
  kBadSeq,           // not the next expected sequence number
};

struct SubmitResult {
  SubmitStatus status = SubmitStatus::kBadSession;
  std::uint32_t retry_after = 0;              // rounds, for kRejectedFull
  std::optional<DecisionRecord> cached;       // for kDuplicateDecided
};

/// A decision ready to be sent to a client, in submission order.
struct Release {
  std::uint64_t session = 0;
  std::uint64_t seq = 0;
  DecisionRecord record;
};

class SessionManager {
 public:
  /// Decided records retained per session for duplicate replay.
  static constexpr std::size_t kCompletedCache = 64;

  /// `window` = max in-flight submissions per session.
  explicit SessionManager(std::size_t window) : window_(window) {}

  /// Open a new session; returns its id (sequential from 1).
  std::uint64_t open();

  /// Close a session (idempotent). In-flight instances keep running; their
  /// releases are discarded.
  void close(std::uint64_t session);

  bool is_open(std::uint64_t session) const;

  /// Record a submission. On kAccepted the caller must mint a BA instance
  /// and then call track(). `retry_after_hint` is embedded in window
  /// rejections.
  SubmitResult submit(std::uint64_t session, std::uint64_t seq,
                      std::uint32_t retry_after_hint);

  /// Bind the accepted (session, seq) to the BA instance the daemon minted.
  void track(std::uint64_t session, std::uint64_t seq, std::uint64_t instance);

  /// An instance retired: attach its record and return every decision that
  /// is now releasable in submission order (possibly none, if an earlier
  /// seq of the same session is still in flight; possibly several, if this
  /// completion unblocks queued later ones).
  std::vector<Release> complete(std::uint64_t instance, const DecisionRecord& record);

  /// In-flight submissions of one session (0 for unknown sessions).
  std::size_t inflight(std::uint64_t session) const;
  /// Total in-flight submissions across all sessions.
  std::size_t total_inflight() const { return instance_index_.size(); }

  std::size_t sessions_opened() const { return next_session_ - 1; }
  std::uint64_t rejected_full() const { return rejected_full_; }
  std::size_t window() const { return window_; }

 private:
  struct Pending {
    std::uint64_t instance = 0;
    bool tracked = false;  // instance id assigned by the daemon
    std::optional<DecisionRecord> record;
  };

  struct Session {
    bool open = true;
    std::uint64_t next_seq = 1;      // next acceptable submission seq
    std::uint64_t next_release = 1;  // next seq to release a decision for
    std::map<std::uint64_t, Pending> pending;  // seq -> in-flight state
    // Decided records kept for duplicate replay, oldest first.
    std::deque<std::pair<std::uint64_t, DecisionRecord>> completed;
  };

  std::size_t window_;
  // Session state is owned by the daemon's accept/dispatch loop; nothing
  // else may touch it until it moves behind a mutex or the frames are
  // funneled through a queue.
  std::uint64_t next_session_ = 1;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      instance_index_;
  std::uint64_t rejected_full_ = 0;
};

}  // namespace srds::svc
