// Sub-protocol composition framework.
//
// The full BA protocol (paper Fig. 3) is a sequence of phases, several of
// which are themselves multi-round protocols run inside polylog-size
// committees (f_ba, f_ct, f_aggr-sig, Dolev-Strong broadcast, ...). Because
// the network is synchronous and every sub-protocol here has a *statically
// known* round count, all parties can compute the same global schedule:
// phase p occupies global rounds [start_p, start_p + duration_p).
//
// A `SubProtocol` is the per-party logic of one such embedded protocol.
// Its messages are bodies; the host party wraps them with a (phase, instance)
// tag so concurrent sub-protocols multiplex over the same channels. Inbound
// bodies are views into the round's inbox; outbound bodies are moved outward
// and each layer writes its header in front (DESIGN.md, "Message framing").
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/serial.hpp"
#include "common/message.hpp"

namespace srds {

/// A body received by a sub-protocol instance, with its authenticated sender.
///
/// `body` borrows the simulator's inbox, which stays untouched for the whole
/// `on_round` call: it is valid only during the `step` it is handed to. A
/// protocol that keeps a body after `step` returns must copy it. Building a
/// TaggedMsg from a temporary `Bytes` would dangle, so it does not compile.
struct TaggedMsg {
  TaggedMsg(PartyId from_, BytesView body_, std::uint64_t instance_ = 0)
      : from(from_), body(body_), instance(instance_) {}
  TaggedMsg(PartyId, Bytes&&, std::uint64_t = 0) = delete;

  PartyId from;
  BytesView body;
  /// The channel tag's instance (boost and MPC demultiplex on it).
  std::uint64_t instance;
};

/// Spare capacity a body reserves so the outer layers of a committee frame
/// write their headers in place: tag_body (12 bytes), ParallelProto's child
/// index (4) and the coin toss's kind byte (1). Each layer writes its header
/// once per body, however many recipients share it.
inline constexpr std::size_t kFrameHeadroom = 17;

/// What one `step` sends: each body once, with the parties it goes to
/// (common/message.hpp). The party boundary (send_tagged) frames every body
/// once and labels it; a sub-protocol leaves the kind unset.
using Outbox = BasicOutbox<Bytes>;

/// Per-party logic of an embedded synchronous sub-protocol with a fixed
/// round schedule. `step` is called once per round while the instance is
/// active; call k (0-based) receives the bodies sent in call k-1.
class SubProtocol {
 public:
  virtual ~SubProtocol() = default;

  /// Number of `step` calls this protocol needs. Must be identical across
  /// all participants (it is derived from public parameters only).
  virtual std::size_t rounds() const = 0;

  /// Advance one round; returns each body to send once, with its
  /// recipients.
  virtual Outbox step(std::size_t subround, const std::vector<TaggedMsg>& inbox) = 0;

  /// Frames this protocol (or any protocol it composes) received but could
  /// not parse — e.g. a multiplexer's child-index header was truncated or out
  /// of range. Leaf protocols that do their own body validation may leave the
  /// default; composites must aggregate their children so the count surfaces
  /// in NetworkStats::faults.malformed_frames after the run.
  virtual std::uint64_t malformed_frames() const { return 0; }
};

/// Size of the channel tag: u32 phase || u64 instance.
inline constexpr std::size_t kTagSize = 12;

/// Wrap a borrowed sub-protocol body with a channel tag (one allocation).
inline Bytes tag_body(std::uint32_t phase, std::uint64_t instance, BytesView body) {
  Writer w;
  w.reserve(kTagSize + body.size());
  w.u32(phase);
  w.u64(instance);
  w.raw(body);
  return std::move(w).take();
}

/// Wrap an owned body with a channel tag, written in place in front of it.
inline Bytes tag_body(std::uint32_t phase, std::uint64_t instance, Bytes&& body) {
  std::array<std::uint8_t, kTagSize> tag;
  const auto p = le_bytes(phase);
  const auto i = le_bytes(instance);
  std::copy(p.begin(), p.end(), tag.begin());
  std::copy(i.begin(), i.end(), tag.begin() + p.size());
  prepend(body, tag);
  return std::move(body);
}

/// The party boundary: append `sends` to `out`, each body framed once with
/// the channel tag (phase, instance) and labelled `kind`.
inline void send_tagged(SendList& out, Outbox sends, std::uint32_t phase,
                        std::uint64_t instance, MsgKind kind) {
  for (std::size_t k = 0; k < sends.size(); ++k) {
    out.send_all(sends.to(k), tag_body(phase, instance, std::move(sends.body(k))), kind);
  }
}

/// Parse a tagged body; `body` views `payload`. Returns false on malformed
/// input.
inline bool untag_body(BytesView payload, std::uint32_t& phase, std::uint64_t& instance,
                       BytesView& body) {
  Reader r(payload);
  phase = r.u32();
  instance = r.u64();
  if (!r.ok()) return false;
  body = r.view(r.remaining());
  return r.ok();
}

}  // namespace srds
