// SHA-256 (FIPS 180-4), implemented from scratch — this project has no
// external crypto dependencies. Serves as the collision-resistant hash (CRH)
// assumed by the SNARK-based SRDS construction, and as the base primitive for
// HMAC, the PRF/PRG, Merkle trees and Lamport signatures.
//
// The block compression is chosen once per process: the x86 SHA extensions
// (SHA-NI) when the CPU has them, otherwise the portable scalar kernel, which
// is also the reference the SHA-NI kernel is tested against
// (crypto/sha256_kernels.hpp). Both produce the same digests; there is no
// switch to pick one.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"

namespace srds {

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  Sha256& update(BytesView data);
  Sha256& update(const char* s);  // convenience for domain-separation tags

  /// Finalize and return the digest. The context must not be reused after.
  Digest finish();

 protected:
  /// Compresses `n_blocks` consecutive 64-byte blocks into `state`.
  using Compress = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t n_blocks);
  /// A context pinned to one kernel (see crypto/sha256_kernels.hpp).
  explicit Sha256(Compress compress);

 private:
  Compress compress_;
  std::uint32_t h_[8];
  std::uint8_t buf_[64];
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot SHA-256.
Digest sha256(BytesView data);

/// Domain-separated hash: SHA-256(tag-length || tag || data).
Digest sha256_tagged(const char* tag, BytesView data);

/// Hash of the concatenation of two digests (Merkle interior node style).
Digest sha256_pair(const Digest& a, const Digest& b);

}  // namespace srds
