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
// tag so concurrent sub-protocols multiplex over the same channels.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/serial.hpp"
#include "common/message.hpp"

namespace srds {

/// A body received by a sub-protocol instance, with its authenticated sender.
struct TaggedMsg {
  PartyId from = 0;
  Bytes body;
};

/// Per-party logic of an embedded synchronous sub-protocol with a fixed
/// round schedule. `step` is called once per round while the instance is
/// active; call k (0-based) receives the bodies sent in call k-1.
class SubProtocol {
 public:
  virtual ~SubProtocol() = default;

  /// Number of `step` calls this protocol needs. Must be identical across
  /// all participants (it is derived from public parameters only).
  virtual std::size_t rounds() const = 0;

  /// Advance one round; returns (recipient, body) pairs.
  virtual std::vector<std::pair<PartyId, Bytes>> step(
      std::size_t subround, const std::vector<TaggedMsg>& inbox) = 0;

  /// Frames this protocol (or any protocol it composes) received but could
  /// not parse — e.g. a multiplexer's child-index header was truncated or out
  /// of range. Leaf protocols that do their own body validation may leave the
  /// default; composites must aggregate their children so the count surfaces
  /// in NetworkStats::faults.malformed_frames after the run.
  virtual std::uint64_t malformed_frames() const { return 0; }
};

/// Wrap a sub-protocol body with a channel tag.
inline Bytes tag_body(std::uint32_t phase, std::uint64_t instance, BytesView body) {
  Writer w;
  w.u32(phase);
  w.u64(instance);
  w.raw(body);
  return std::move(w).take();
}

/// Parse a tagged body. Returns false on malformed input.
inline bool untag_body(BytesView payload, std::uint32_t& phase, std::uint64_t& instance,
                       Bytes& body) {
  Reader r(payload);
  phase = r.u32();
  instance = r.u64();
  if (!r.ok()) return false;
  body = r.raw(r.remaining());
  return r.ok();
}

}  // namespace srds
