// Minimal deterministic binary serialization.
//
// Wire format conventions used across the project:
//   - fixed-width integers are little-endian
//   - variable-length payloads are prefixed with a u32 length
//   - containers are prefixed with a u32 element count
//
// Reading is bounds-checked: a truncated or malformed buffer results in
// `Reader::ok() == false` (and zero/empty values), never UB. Protocol code
// must check `ok()` after parsing an untrusted (possibly Byzantine) message.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace srds {

/// Append-only binary writer.
class Writer {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Length-prefixed byte string.
  void bytes(BytesView b);
  /// Raw bytes, no length prefix (fixed-size fields).
  void raw(BytesView b);
  void str(const std::string& s);

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Bounds-checked binary reader over a borrowed buffer.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Length-prefixed byte string.
  Bytes bytes();
  /// Exactly `n` raw bytes.
  Bytes raw(std::size_t n);
  std::string str();

  /// Borrowed reads: like raw()/bytes() but pointing into the reader's
  /// buffer, so they stay valid only as long as that buffer does. Same
  /// bounds checks; a short buffer yields an empty view and ok() == false.
  BytesView view(std::size_t n);
  BytesView bytes_view();

  /// True iff no read so far has run past the end of the buffer.
  bool ok() const { return ok_; }
  /// True iff the whole buffer was consumed and all reads succeeded.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  bool take(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace srds
