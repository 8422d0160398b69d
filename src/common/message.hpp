// Message and party-identity vocabulary for the synchronous network.
//
// This lives in common/ (not net/) because it is pure vocabulary — no
// delivery semantics — and both the network simulator and the obs tracing
// sinks consume it; keeping it in net/ made obs <-> net a module cycle
// under the L1 layering rule.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/payload.hpp"

namespace srds {

/// Index of a party in [0, n). 32 bits: ids fill every Message, send list
/// and peer list, and a network holds fewer than kNoParty parties (the
/// Simulator rejects more).
using PartyId = std::uint32_t;

/// Coarse classification of what a message carries, tagged by the sender's
/// protocol logic for observability (the Ledger's per-kind byte and message
/// breakdowns). The kind is metadata only: it never influences
/// delivery, accounting of bytes, or protocol behavior, and receivers must
/// not trust it (the adversary may label its traffic arbitrarily).
enum class MsgKind : std::uint8_t {
  kUnknown = 0,     // untagged (e.g., raw adversary traffic)
  kInject,          // broadcast-mode sender -> supreme committee injection
  kCommitteeBa,     // f_ba: committee Byzantine agreement
  kCoinToss,        // f_ct: committee coin toss
  kDissem,          // f_ae-comm: tree dissemination of (y, s)
  kBoostSign,       // boost: base signatures to leaf committees (step 4)
  kBoostAggregate,  // boost: level-by-level aggregation (step 5)
  kBoostCert,       // boost: certified dissemination of (y, s, sigma) (step 6)
  kBoostPrf,        // boost: PRF-subset certificate pushes (steps 7/8)
  kBoostQuery,      // boost: sampling poll request
  kBoostResponse,   // boost: sampling poll response
  kBoostFlood,      // boost: direct value pushes (naive all-to-all / star)
  kMpc,             // scalable MPC phases (input/aggregate/decrypt/deliver)
  kCount,           // number of kinds (array sizing; not a real kind)
};

/// Short stable name for a kind (used as JSON keys in trace artifacts).
inline const char* msg_kind_name(MsgKind k) {
  switch (k) {
    case MsgKind::kUnknown: return "unknown";
    case MsgKind::kInject: return "inject";
    case MsgKind::kCommitteeBa: return "f_ba";
    case MsgKind::kCoinToss: return "f_ct";
    case MsgKind::kDissem: return "f_ae-dissem";
    case MsgKind::kBoostSign: return "boost-sign";
    case MsgKind::kBoostAggregate: return "boost-aggregate";
    case MsgKind::kBoostCert: return "boost-cert";
    case MsgKind::kBoostPrf: return "boost-prf";
    case MsgKind::kBoostQuery: return "boost-query";
    case MsgKind::kBoostResponse: return "boost-response";
    case MsgKind::kBoostFlood: return "boost-flood";
    case MsgKind::kMpc: return "mpc";
    case MsgKind::kCount: break;
  }
  return "?";
}

/// A point-to-point message. Delivery is synchronous: a message sent in
/// round r is delivered at the beginning of round r+1. The simulator builds
/// one per recipient of a send list as it lands; the messages of one body
/// share its payload.
struct Message {
  PartyId from = 0;
  PartyId to = 0;
  Payload payload;
  MsgKind kind = MsgKind::kUnknown;
};

/// No party: the default `except` of BasicOutbox::send_all.
inline constexpr PartyId kNoParty = static_cast<PartyId>(-1);

/// The sanctioned way for adversary code to build a message. srds-lint rule
/// B1 forbids raw `Message{...}` construction outside src/net: this factory
/// makes the MsgKind tag an explicit, reviewed decision at every send site,
/// so the per-kind byte breakdowns behind the Table 1 comparison never
/// silently lose traffic to the untagged bucket.
inline Message make_msg(PartyId from, PartyId to, Payload payload, MsgKind kind) {
  Message m;
  m.from = from;
  m.to = to;
  m.payload = std::move(payload);
  m.kind = kind;
  return m;
}

/// What one step sends: each body once, with its kind and the parties it
/// goes to. It stands for the messages body 0 -> each of its recipients in
/// order, then body 1 -> each of its recipients, and so on; a recipient
/// costs one PartyId. A party's SendList holds the Payload that its
/// recipients share once delivered, and names every body's kind: the
/// per-kind byte breakdowns behind the Table 1 comparison must never
/// silently lose traffic to the untagged bucket. A sub-protocol's Outbox
/// (net/subproto.hpp) holds Bytes, so that outer layers write their
/// headers in place, and leaves the kind to the party boundary.
template <typename Body>
class BasicOutbox {
 public:
  /// Send `body` to `to`.
  void send(PartyId to, Body body, MsgKind kind) {
    to_.push_back(to);
    bodies_.push_back(Entry{std::move(body), to_.size(), kind});
  }
  void send(PartyId to, Bytes body)
    requires std::same_as<Body, Bytes>
  {
    send(to, std::move(body), MsgKind::kUnknown);
  }

  /// Send one body to every party in `to` but `except`, in order; nothing
  /// when no party is left (the body is then never built).
  template <typename Range, typename B>
    requires std::constructible_from<Body, B&&>
  void send_all(const Range& to, B&& body, MsgKind kind, PartyId except = kNoParty) {
    const std::size_t first = to_.size();
    if constexpr (std::ranges::sized_range<Range>) {
      const std::size_t need = first + std::ranges::size(to);
      if (need > to_.capacity()) to_.reserve(std::max(need, 2 * to_.capacity()));
    }
    for (PartyId p : to) {
      if (p != except) to_.push_back(p);
    }
    if (to_.size() > first) {
      bodies_.push_back(Entry{Body(std::forward<B>(body)), to_.size(), kind});
    }
  }
  template <typename Range>
    requires std::same_as<Body, Bytes>
  void send_all(const Range& to, Bytes body, PartyId except = kNoParty) {
    send_all(to, std::move(body), MsgKind::kUnknown, except);
  }

  /// Distinct bodies.
  std::size_t size() const { return bodies_.size(); }
  /// Messages: one per (body, recipient).
  std::size_t messages() const { return to_.size(); }
  /// Body k, its kind and its recipients, in send order.
  Body& body(std::size_t k) { return bodies_[k].body; }
  const Body& body(std::size_t k) const { return bodies_[k].body; }
  MsgKind kind(std::size_t k) const { return bodies_[k].kind; }
  std::span<const PartyId> to(std::size_t k) const {
    const std::size_t first = k == 0 ? 0 : bodies_[k - 1].end;
    return {to_.data() + first, bodies_[k].end - first};
  }

  /// Write `header` in front of every body, once per body (in place when
  /// the body has spare capacity).
  void frame(BytesView header)
    requires std::same_as<Body, Bytes>
  {
    for (Entry& e : bodies_) prepend(e.body, header);
  }

  /// Move `other`'s sends onto the end of this one.
  void append(BasicOutbox&& other) {
    if (bodies_.empty()) {
      *this = std::move(other);
      return;
    }
    const std::size_t offset = to_.size();
    to_.insert(to_.end(), other.to_.begin(), other.to_.end());
    bodies_.reserve(bodies_.size() + other.bodies_.size());
    for (Entry& e : other.bodies_) {
      bodies_.push_back(Entry{std::move(e.body), e.end + offset, e.kind});
    }
  }

 private:
  struct Entry {
    Body body;
    std::size_t end;  // one past its last recipient in to_
    MsgKind kind;
  };
  std::vector<Entry> bodies_;
  std::vector<PartyId> to_;  // every body's recipients, concatenated
};

/// What a party sends in one round (Party::on_round): each payload once,
/// with its kind and recipients.
using SendList = BasicOutbox<Payload>;

}  // namespace srds
