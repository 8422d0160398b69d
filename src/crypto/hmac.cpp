#include "crypto/hmac.hpp"

#include <cstring>

namespace srds {

HmacSha256::HmacSha256(BytesView key) {
  std::uint8_t k[64] = {0};
  if (key.size() > 64) {
    Digest kd = sha256(key);
    std::memcpy(k, kd.v.data(), 32);
  } else {
    std::memcpy(k, key.data(), key.size());
  }

  std::uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  inner_.update(BytesView{ipad, 64});
  outer_.update(BytesView{opad, 64});
}

Digest HmacSha256::mac(BytesView data) const {
  Digest inner_d = Sha256(inner_).update(data).finish();
  return Sha256(outer_).update(inner_d.view()).finish();
}

Digest hmac_sha256(BytesView key, BytesView data) { return HmacSha256(key).mac(data); }

}  // namespace srds
