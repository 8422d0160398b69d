// HMAC-SHA256 (RFC 2104). Backbone of the PRF/PRG and of the simulated
// SNARK oracle's authentication tags.
#pragma once

#include "common/bytes.hpp"
#include "crypto/digest.hpp"
#include "crypto/sha256.hpp"

namespace srds {

/// HMAC-SHA256 under one fixed key. The key's ipad and opad blocks are
/// compressed once, at construction; each mac() then starts from those two
/// midstates, saving two of the four compressions a short message costs.
/// Immutable after construction.
class HmacSha256 {
 public:
  explicit HmacSha256(BytesView key);

  /// HMAC-SHA256(key, data).
  Digest mac(BytesView data) const;

 private:
  Sha256 inner_;  // after absorbing key ^ ipad
  Sha256 outer_;  // after absorbing key ^ opad
};

/// HMAC-SHA256(key, data).
Digest hmac_sha256(BytesView key, BytesView data);

}  // namespace srds
