// Internal: the SHA-256 block-compression kernels behind crypto/sha256.hpp.
//
// Protocol code never includes this header; it calls sha256() & co., which
// use the kernel chosen once per process. It exists so the differential
// tests can run the scalar reference and the SHA-NI kernel side by side.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/sha256.hpp"

namespace srds::sha256_kernels {

/// Portable FIPS 180-4 compression: the reference, and the fallback on
/// CPUs without the SHA extensions.
void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n_blocks);

/// Compression with the x86 SHA extensions. Only call it when
/// shani_available() is true.
void compress_shani(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n_blocks);

/// True iff this CPU has SHA-NI (and SSE4.1), i.e. sha256() runs on it.
bool shani_available();

/// An incremental context that always uses the given kernel.
class PinnedSha256 : public Sha256 {
 public:
  explicit PinnedSha256(Compress compress) : Sha256(compress) {}
};

}  // namespace srds::sha256_kernels
