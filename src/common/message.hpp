// Message and party-identity vocabulary for the synchronous network.
//
// This lives in common/ (not net/) because it is pure vocabulary — no
// delivery semantics — and both the network simulator and the obs tracing
// sinks consume it; keeping it in net/ made obs <-> net a module cycle
// under the L1 layering rule.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/payload.hpp"

namespace srds {

/// Index of a party in [0, n).
using PartyId = std::size_t;

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
/// round r is delivered at the beginning of round r+1. The messages of one
/// multicast share their payload (make_msgs).
struct Message {
  PartyId from = 0;
  PartyId to = 0;
  Payload payload;
  MsgKind kind = MsgKind::kUnknown;
};

/// No party: the default `except` of make_msgs and Outbox::send_all.
inline constexpr PartyId kNoParty = static_cast<PartyId>(-1);

/// The sanctioned way for protocol code to build an outbox message.
/// srds-lint rule B1 forbids raw `Message{...}` construction outside
/// src/net: this factory makes the MsgKind tag an explicit, reviewed
/// decision at every send site, so the per-kind byte breakdowns behind the
/// Table 1 comparison never silently lose traffic to the untagged bucket.
inline Message make_msg(PartyId from, PartyId to, Payload payload, MsgKind kind) {
  Message m;
  m.from = from;
  m.to = to;
  m.payload = std::move(payload);
  m.kind = kind;
  return m;
}

/// One multicast: append a message from `from` to every party in `to` but
/// `except`, in order, all sharing one `payload`.
template <typename Range>
void make_msgs(std::vector<Message>& out, PartyId from, const Range& to, Bytes payload,
               MsgKind kind, PartyId except = kNoParty) {
  std::optional<Payload> body;
  for (PartyId p : to) {
    if (p == except) continue;
    if (!body) body.emplace(std::move(payload));
    out.push_back(make_msg(from, p, *body, kind));
  }
}

}  // namespace srds
