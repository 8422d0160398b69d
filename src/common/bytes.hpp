// Basic byte-buffer vocabulary types shared by every module.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace srds {

/// Owning byte buffer. All wire formats in this project are `Bytes`.
using Bytes = std::vector<std::uint8_t>;

/// Non-owning read-only view over bytes.
using BytesView = std::span<const std::uint8_t>;

/// Append `src` to `dst`.
inline void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Insert `header` in front of `frame`. An outer framing layer writes its
/// header this way into the body it was handed; no allocation happens when
/// `frame` has the spare capacity. Without it, the frame moves to a buffer of
/// exactly the new size (vector::insert would double it, and frames in
/// flight dominate the simulator's memory).
inline void prepend(Bytes& frame, BytesView header) {
  if (frame.capacity() - frame.size() >= header.size()) {
    frame.insert(frame.begin(), header.begin(), header.end());
    return;
  }
  Bytes grown;
  grown.reserve(header.size() + frame.size());
  grown.insert(grown.end(), header.begin(), header.end());
  grown.insert(grown.end(), frame.begin(), frame.end());
  frame.swap(grown);
}

/// Concatenate any number of byte views into a fresh buffer.
template <typename... Views>
Bytes concat(const Views&... views) {
  Bytes out;
  std::size_t total = (std::size_t{0} + ... + views.size());
  out.reserve(total);
  (append(out, BytesView{views.data(), views.size()}), ...);
  return out;
}

/// Bytes of an ASCII string (no terminator).
inline Bytes to_bytes(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

inline std::string to_string(BytesView b) {
  return std::string(b.begin(), b.end());
}

}  // namespace srds
