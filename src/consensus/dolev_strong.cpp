#include "consensus/dolev_strong.hpp"

#include <algorithm>
#include <set>

#include "common/serial.hpp"
#include "crypto/sha256.hpp"

namespace srds {

namespace {

/// Encoded once per relay, with kFrameHeadroom spare so the outer layers'
/// headers go in place.
Bytes encode(BytesView value, const std::vector<std::pair<PartyId, SimSig>>& chain) {
  Writer w;
  w.reserve(4 + value.size() + 4 + chain.size() * (8 + 32) + kFrameHeadroom);
  w.bytes(value);
  w.u32(static_cast<std::uint32_t>(chain.size()));
  for (const auto& [party, sig] : chain) {
    w.u64(party);
    w.raw(sig.view());
  }
  return std::move(w).take();
}

/// `value` views `body`.
bool decode(BytesView body, BytesView& value,
            std::vector<std::pair<PartyId, SimSig>>& chain) {
  Reader r(body);
  value = r.bytes_view();
  std::uint32_t n = r.u32();
  if (!r.ok() || n > 4096) return false;
  chain.clear();
  chain.reserve(n + 1);  // room for a relayer's own signature
  for (std::uint32_t i = 0; i < n; ++i) {
    PartyId p = r.u64();
    BytesView sig_raw = r.view(32);
    if (!r.ok()) return false;
    chain.emplace_back(p, Digest::from(sig_raw));
  }
  return r.done();
}

}  // namespace

DolevStrongProto::DolevStrongProto(SimSigRegistryPtr registry, std::vector<PartyId> members,
                                   std::size_t sender_idx, std::size_t t, Bytes domain,
                                   PartyId me, std::optional<Bytes> input)
    : registry_(std::move(registry)),
      members_(std::move(members)),
      sender_idx_(sender_idx),
      t_(t),
      domain_(std::move(domain)),
      me_(me),
      input_(std::move(input)) {}

Digest DolevStrongProto::sign_target(BytesView value) const {
  Writer w;
  w.reserve(4 + domain_.size() + 8 + 4 + value.size());
  w.bytes(domain_);
  w.u64(sender_idx_);
  w.bytes(value);
  return sha256_tagged("ds-sign", w.data());
}

void DolevStrongProto::relay(BytesView value, std::vector<std::pair<PartyId, SimSig>> chain,
                             Outbox& out) {
  chain.emplace_back(me_, registry_->sign(me_, sign_target(value).view()));
  // One body for every other member.
  out.send_all(members_, encode(value, chain), me_);
}

Outbox DolevStrongProto::step(std::size_t subround, const std::vector<TaggedMsg>& inbox) {
  Outbox out;

  if (subround == 0) {
    if (input_.has_value() && members_[sender_idx_] == me_) {
      extracted_.push_back(*input_);
      relay(*input_, {}, out);
    }
    return out;
  }

  // Process arrivals: accept values carrying >= subround distinct valid
  // member signatures, the sender's among them.
  std::vector<std::pair<PartyId, SimSig>> chain;  // reused across arrivals
  for (const auto& msg : inbox) {
    if (extracted_.size() >= 2) break;
    BytesView value;
    if (!decode(msg.body, value, chain)) continue;
    if (chain.size() < subround) continue;
    if (std::any_of(extracted_.begin(), extracted_.end(), [&](const Bytes& e) {
          return std::equal(e.begin(), e.end(), value.begin(), value.end());
        })) {
      continue;
    }

    Digest target = sign_target(value);
    std::set<PartyId> signers;
    bool ok = true, sender_signed = false;
    for (const auto& [party, sig] : chain) {
      if (std::find(members_.begin(), members_.end(), party) == members_.end() ||
          !signers.insert(party).second || !registry_->verify(party, target.view(), sig)) {
        ok = false;
        break;
      }
      if (party == members_[sender_idx_]) sender_signed = true;
    }
    if (!ok || !sender_signed || signers.size() < subround) continue;
    // Do not extend chains I already signed (I relayed this value before).
    if (signers.count(me_)) continue;

    extracted_.emplace_back(value.begin(), value.end());
    if (subround <= t_) relay(value, std::move(chain), out);
  }

  if (subround == t_ + 1) {
    output_ = (extracted_.size() == 1) ? std::optional<Bytes>(extracted_[0]) : std::nullopt;
  }
  return out;
}

}  // namespace srds
