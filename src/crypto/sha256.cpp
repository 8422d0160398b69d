#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "crypto/sha256_kernels.hpp"
#include "obs/prof.hpp"

namespace srds {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

/// Big-endian 32-bit store: one byte swap and one store. A byte-at-a-time
/// loop over the digest gets vectorized by GCC into a long shuffle sequence
/// costing about a third of a one-block hash.
inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap32(v);
  std::memcpy(p, &v, 4);
}

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace sha256_kernels {

void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n_blocks) {
  for (; n_blocks > 0; --n_blocks, blocks += 64) {
    std::uint32_t w[64];
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)

// The SHA extensions keep the eight state words as two vectors, ABEF and
// CDGH; each _mm_sha256rnds2_epu32 runs two rounds, and msg1/msg2 compute the
// message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void compress_shani(std::uint32_t* state,
                                                          const std::uint8_t* blocks,
                                                          std::size_t n_blocks) {
  // Big-endian word loads: byte-reverse each 32-bit lane.
  const __m128i kBswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const auto* k = reinterpret_cast<const __m128i*>(kK);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n_blocks > 0; --n_blocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[q % 4] holds schedule words 4q..4q+3 for the current quad-round q.
    __m128i msg[4];
    for (std::size_t q = 0; q < 4; ++q) {
      msg[q] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * q)), kBswap);
    }
#pragma GCC unroll 16
    for (std::size_t q = 0; q < 16; ++q) {
      if (q >= 4) {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at a time.
        __m128i w = _mm_sha256msg1_epu32(msg[q % 4], msg[(q + 1) % 4]);
        w = _mm_add_epi32(w, _mm_alignr_epi8(msg[(q + 3) % 4], msg[(q + 2) % 4], 4));
        msg[q % 4] = _mm_sha256msg2_epu32(w, msg[(q + 3) % 4]);
      }
      __m128i wk = _mm_add_epi32(msg[q % 4], _mm_loadu_si128(k + q));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

// CPUID directly rather than __builtin_cpu_supports("sha"): older Clang
// front ends (clang-tidy included) reject that feature name.
bool shani_available() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & bit_SSE4_1) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_SHA) != 0;
}

#else  // no SHA extensions on this architecture

void compress_shani(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n_blocks) {
  compress_scalar(state, blocks, n_blocks);
}

bool shani_available() { return false; }

#endif

}  // namespace sha256_kernels

namespace {

// Chosen on first use and immutable afterwards, so concurrent hashing from
// any thread reads one constant.
auto dispatched_compress() {
  static const auto kCompress = sha256_kernels::shani_available()
                                    ? &sha256_kernels::compress_shani
                                    : &sha256_kernels::compress_scalar;
  return kCompress;
}

}  // namespace

Sha256::Sha256() : Sha256(dispatched_compress()) {}

Sha256::Sha256(Compress compress) : compress_(compress) {
  static constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::memcpy(h_, kInit, sizeof h_);
}

Sha256& Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    std::size_t need = 64 - buf_len_;
    std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ < 64) return *this;
    compress_(h_, buf_, 1);
    buf_len_ = 0;
  }
  const std::size_t n_blocks = (data.size() - off) / 64;
  if (n_blocks > 0) {
    compress_(h_, data.data() + off, n_blocks);
    off += 64 * n_blocks;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
  return *this;
}

Sha256& Sha256::update(const char* s) {
  return update(BytesView{reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)});
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  // 0x80, zeros up to byte 56 of the last block, then the 64-bit length;
  // when the 0x80 lands past byte 55 the length spills into one more block.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, 64 - buf_len_);
    compress_(h_, buf_, 1);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  store_be32(buf_ + 56, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(buf_ + 60, static_cast<std::uint32_t>(bit_len));
  compress_(h_, buf_, 1);

  Digest d;
  for (std::size_t i = 0; i < 8; ++i) store_be32(d.v.data() + 4 * i, h_[i]);
  return d;
}

Digest sha256(BytesView data) {
  PROF_SCOPE(obs::ProfSiteId::kCryptoSha256);
  return Sha256().update(data).finish();
}

Digest sha256_tagged(const char* tag, BytesView data) {
  Sha256 ctx;
  std::uint8_t tag_len = static_cast<std::uint8_t>(std::strlen(tag));
  ctx.update(BytesView{&tag_len, 1});
  ctx.update(tag);
  ctx.update(data);
  return ctx.finish();
}

Digest sha256_pair(const Digest& a, const Digest& b) {
  Sha256 ctx;
  ctx.update(a.view());
  ctx.update(b.view());
  return ctx.finish();
}

}  // namespace srds
