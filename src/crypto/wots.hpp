// Winternitz one-time signatures (WOTS) over SHA-256, with oblivious key
// generation (paper §2.2, OWF-based SRDS).
//
// The paper instantiates the OWF-based SRDS with Lamport signatures; WOTS
// is the same kind of scheme (one-time, from a one-way function, with
// oblivious keygen) but ~8x smaller: with w = 16 a signature is
// 67 x 32 B ≈ 2.1 KiB against Lamport's 16 KiB. The SRDS constructions use
// WOTS for base signatures — in the OWF-based SRDS all base signatures
// travel to the root by concatenation, so base-signature size directly
// multiplies per-party communication (a poly(κ) factor the Õ(·) notation
// hides, but which simulation wall-clock does not).
//
// Oblivious key generation (`wots_oblivious_keygen`) outputs a uniformly
// random 32-byte verification key with no corresponding signing key.
// Against the hash modeled as a random function, such a key is
// indistinguishable from an honestly generated one — exactly the property
// the OWF-based SRDS sortition needs: an adversary inspecting the trusted
// PKI cannot tell which parties hold signing ability.
//
// Layout: the message digest is split into 64 hex digits d_0..d_63; two
// checksum digits... (standard WOTS checksum over 4-bit digits needs
// ceil(log_16(64*15)) = 3 digits). Secret chain seeds derive from a 32-byte
// seed via the PRG; vk = SHA-256 over all 67 chain tops.
#pragma once

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/digest.hpp"

namespace srds {

struct WotsKeyPair {
  Digest verification_key;
  Bytes seed;  // 32 bytes
};

struct WotsSignature {
  std::vector<Digest> chain_values;  // 67 digests

  Bytes serialize() const;
  static bool deserialize(BytesView data, WotsSignature& out);

  static constexpr std::size_t kChains = 67;
  static constexpr std::size_t kSerializedSize = 4 + kChains * 32;
};

WotsKeyPair wots_keygen(BytesView seed32);

/// Uniformly random verification key with no signing key (see the file
/// comment for why this gives sortition-compatible indistinguishability).
Digest wots_oblivious_keygen(Rng& rng);

WotsSignature wots_sign(const WotsKeyPair& kp, BytesView message);

bool wots_verify(const Digest& vk, BytesView message, const WotsSignature& sig);

}  // namespace srds
