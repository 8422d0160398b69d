// Counter-mode PRG from HMAC-SHA256. Used to expand short seeds into
// key material (e.g., the 67 WOTS chain seeds of one key pair).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"

namespace srds {

class Prg {
 public:
  explicit Prg(BytesView seed) : seed_(seed.begin(), seed.end()) {}

  /// The `idx`-th 32-byte block of the stream (random access).
  Digest block(std::uint64_t idx) const;

  /// Next `n` bytes of the sequential stream.
  Bytes next(std::size_t n);

 private:
  Bytes seed_;
  std::uint64_t counter_ = 0;
  Bytes pending_;
};

}  // namespace srds
