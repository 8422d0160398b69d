// obs::Ledger — the accounting plane.
//
// The paper's headline claim is a *per-party* bound (every honest party
// sends/receives only polylog(n) bits, talking to only polylog(n) peers).
// The Ledger is the single place bytes and messages are counted: the
// Simulator feeds exactly one Ledger per run (the caller's, or one it owns)
// with every accepted send and every actual delivery, and NetworkStats is a
// snapshot derived from it at the end of the run. It splits every charge by
// party, by protocol phase (the harness's on_phase marks), by MsgKind and
// by round, so the paper's Theorem-level claims can be audited on any run
// (see obs/budget.hpp), every bench binary reports per-party distribution
// statistics and per-phase rows from one shared implementation, and the
// RoundTracer's Chrome export reads its traffic from here.
//
// Accounting conventions:
//   * on_send charges the sender — whatever the network does next, the
//     sender paid for the transmission;
//   * kDelivered / kDuplicated / kLate charge the receiver at actual
//     delivery; kDropped / kPartitioned / kDelayed / kOffline charge nobody.
// Phase and round attribution is by the round the event was observed in,
// so a delayed message's late receive is charged to its arrival round.
//
// Locality (the number of distinct peers a party exchanged messages with,
// either direction) is kept as one peer set per party per phase, in the
// smaller of two forms. A set starts as a sparse list: on_send appends the
// receiver to the sender's list, a charged delivery appends the sender to
// the receiver's list unless a binary search finds it already there, and
// each round's additions are sorted, deduplicated and merged in at
// on_round_end. The moment a list would hold more ids than an n-bit bitmap
// has 32-bit words (k > ceil(n/32), where the bitmap becomes the smaller
// form), the addition rewrites it in place as that bitmap; from then on an
// event sets one bit and the round-end merge skips the set. The rule depends
// on n alone. Whole-run locality is the union over phases, computed at query
// time by OR-ing a party's sets into one n-bit accumulator and counting its
// bits; a party with a single sealed sparse list reports its length.
//
// The per-event paths are allocation-free apart from amortized vector
// growth: tallies are sized at on_run_begin / on_phase / the first event of
// a round, and on_send / on_delivery only index into them and append to
// the peer lists; the switch to a bitmap reuses the list's own buffer
// (srds-lint rule P1 checks the markers in ledger.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace srds::obs {

/// Per-party byte/message tally (one protocol phase, or the whole run).
struct PartyTally {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_recv = 0;

  std::uint64_t bytes_total() const { return bytes_sent + bytes_recv; }

  PartyTally& operator+=(const PartyTally& o) {
    bytes_sent += o.bytes_sent;
    bytes_recv += o.bytes_recv;
    msgs_sent += o.msgs_sent;
    msgs_recv += o.msgs_recv;
    return *this;
  }

  bool operator==(const PartyTally&) const = default;
};

/// Distribution of one per-party quantity over the (optionally masked)
/// party set: the paper's "max com. per party" plus median/p90 context.
struct PartyStat {
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t total = 0;
  std::size_t parties = 0;  // parties the stat ranges over
  PartyId argmax = 0;       // a party attaining max
};

/// Which per-party quantity a PartyStat summarizes.
enum class LedgerField : std::uint8_t {
  kBytesSent,
  kBytesRecv,
  kBytesTotal,
  kMsgsSent,
  kMsgsRecv,
};

class Ledger final : public TraceSink {
 public:
  /// Sentinel phase index: the whole-run totals rather than one phase.
  static constexpr std::size_t kAllPhases = static_cast<std::size_t>(-1);

  /// Accumulate across simulator runs instead of resetting at each
  /// on_run_begin (same n required): per-party totals and peers carry over
  /// from run to run, so the interactive committee election (one simulator
  /// run per tree level, tree/election.cpp) sums its levels. Phase tallies
  /// still reset per run. Default off.
  void set_accumulate(bool on) { accumulate_ = on; }

  void on_run_begin(std::size_t n_parties) override;
  void on_send(std::size_t round, const Message& m) override;
  void on_delivery(std::size_t round, const Message& m, Delivery outcome) override;
  void on_round_end(std::size_t round) override;
  void on_run_end(std::size_t rounds) override;
  void on_phase(std::size_t start_round, const std::string& name) override;

  std::size_t n_parties() const { return n_; }
  std::size_t rounds_run() const { return rounds_run_; }

  /// Phase names in start-round order (an implicit "pre" phase covers
  /// rounds before the first registered mark).
  std::size_t phase_count() const { return phases_.size(); }
  const std::string& phase_name(std::size_t p) const { return phases_[p].name; }
  std::size_t phase_start(std::size_t p) const { return phases_[p].start; }
  /// Rounds of phase p the run executed: [start, next phase's start)
  /// clipped to rounds_run() (0 for a phase that never began).
  std::size_t phase_rounds(std::size_t p) const;
  /// Index of the named phase, or kAllPhases when absent.
  std::size_t phase_index(const std::string& name) const;

  /// Whole-run tally for one party.
  const PartyTally& total(PartyId i) const { return totals_[i]; }
  /// One phase's tally for one party.
  const PartyTally& phase_total(std::size_t phase, PartyId i) const {
    return phases_[phase].parties[i];
  }
  /// Sent/received tally of one MsgKind for one party (whole run).
  const PartyTally& kind_total(MsgKind k, PartyId i) const {
    return kinds_[static_cast<std::size_t>(k)][i];
  }
  /// Network-wide tally of round r of the current run, summed over parties
  /// (zero for a round that carried no traffic). Not part of to_json().
  PartyTally round_total(std::size_t r) const {
    return r < round_totals_.size() ? round_totals_[r] : PartyTally{};
  }

  /// Communication locality of every party (index = party): the number of
  /// distinct peers it sent to or received a charged delivery from. The
  /// whole run, accumulated runs included...
  std::vector<std::size_t> locality() const;
  /// ...or the union over phases [first_phase, last_phase) of the current
  /// run (all zero when the range is empty).
  std::vector<std::size_t> locality(std::size_t first_phase, std::size_t last_phase) const;

  /// Distribution of `field` over parties, for one phase (kAllPhases = the
  /// whole run). `exclude` masks parties out (e.g., corrupted parties —
  /// the paper's bounds quantify over honest parties); nullptr = everyone.
  PartyStat stat(LedgerField field, std::size_t phase = kAllPhases,
                 const std::vector<bool>* exclude = nullptr) const;

  /// Structured summary:
  ///   {n, rounds,
  ///    totals:  {bytes_sent/bytes_recv/bytes_total/msgs_sent: stat...},
  ///    phases:  [{name, start, bytes_total: stat, bytes_sent: stat, ...}],
  ///    kinds:   {kind: {bytes_sent: stat, msgs_sent: stat}},
  ///    per_party: [{bytes_sent, bytes_recv, msgs_sent, msgs_recv}...]}
  /// where stat = {max, argmax, p50, p90, total}. per_party only with
  /// `per_party=true` (it is O(n) artifact bytes). Deterministic for a
  /// deterministic run — the ledger records no wall-clock at all.
  Json to_json(bool per_party = false) const;

  /// Reset to a fresh ledger (phase marks cleared too).
  void clear() { *this = Ledger{}; }

 private:
  /// One party's peers in one phase (or, in carried_peers_, earlier runs).
  /// Sparse: ids[0, sealed) is sorted and duplicate-free; ids[sealed, end)
  /// are this round's unsorted additions, none of them in the sorted prefix.
  /// Dense: ids holds bitmap_words() words, bit (p % 32) of word p / 32 set
  /// for each peer p, and sealed is unused.
  struct PeerList {
    std::vector<PartyId> ids;
    std::uint32_t sealed = 0;
    bool dense = false;
  };
  static_assert(sizeof(PeerList) <= sizeof(std::vector<PartyId>) + sizeof(std::size_t));

  struct Phase {
    std::string name;
    std::size_t start = 0;
    std::vector<PartyTally> parties;
    std::vector<PeerList> peers;
  };

  void advance_phase(std::size_t round);
  /// Words of an n-bit bitmap: the most ids a sparse list holds.
  std::size_t bitmap_words() const { return (n_ + 31) / 32; }
  void add_peer(PartyId self, PartyId peer);
  /// Rewrite a full sparse list as a bitmap, in its own buffer.
  void make_dense(PeerList& list);
  /// Fold the current phase's unsealed peer additions into the sorted
  /// prefixes (the round-end step; also run before the phase changes).
  void seal_peers();
  void seal(PeerList& list);
  /// Calls fn on party i's peer sets over phases [first_phase, last_phase),
  /// preceded by its carried set from earlier runs with `with_carried`.
  template <typename Fn>
  void for_each_set(PartyId i, std::size_t first_phase, std::size_t last_phase,
                    bool with_carried, Fn&& fn) const;
  /// OR one peer set into a bitmap of bitmap_words() words.
  static void or_into(std::vector<PartyId>& acc, const PeerList& list);
  std::vector<std::size_t> union_sizes(std::size_t first_phase, std::size_t last_phase,
                                       bool with_carried) const;
  PartyStat stat_of(const std::vector<PartyTally>& tallies, LedgerField field,
                    const std::vector<bool>* exclude) const;

  std::size_t n_ = 0;
  std::size_t rounds_run_ = 0;
  bool accumulate_ = false;
  // Everything below (accumulate mode included) is written only by the
  // simulator's coordinator thread, which delivers every message into this
  // one Ledger; the workers that step parties never reach it.
  std::vector<PartyTally> totals_;
  // Sorted by start round.
  std::vector<Phase> phases_;
  std::size_t cur_phase_ = 0;       // phase of the last observed round
  std::size_t cur_round_ = 0;
  // kinds_[kind][party]: sent/recv tallies per message kind.
  std::vector<std::vector<PartyTally>> kinds_;
  // round_totals_[round]: the current run's network-wide tally; grows in
  // advance_phase, so cur_round_ always indexes a row.
  std::vector<PartyTally> round_totals_;
  // Parties whose current-phase peer list has unsealed additions.
  std::vector<PartyId> dirty_;
  // Accumulate mode: each party's sealed peer set from earlier runs.
  std::vector<PeerList> carried_peers_;
  // Scratch for seal's merge and make_dense's copy.
  std::vector<PartyId> merge_buf_;
};

}  // namespace srds::obs
