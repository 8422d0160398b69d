// Immutable, shareable message body.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/bytes.hpp"

namespace srds {

/// The body of a Message: immutable bytes in a reference-counted block that
/// copies share, so a body sent to many recipients is stored once however
/// many messages carry it (DESIGN.md §6, "Message framing").
///
/// Building a payload from `Bytes` moves them into a new block: one
/// allocation, no byte copy. A copy only bumps the count, atomically, so
/// copies may live and die on different threads. `suffix(k)` shares the
/// block minus its first k bytes, so a layer that strips a header hands the
/// rest on without copying it.
///
/// `size()` is the wire size, and the payload converts to `BytesView`, so a
/// `Reader` or `untag_body` reads it like any other buffer.
class Payload {
 public:
  Payload() = default;
  // Implicit: a Bytes body becomes a payload wherever a Message is built.
  Payload(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : block_(new Block(std::move(bytes))) {}

  Payload(const Payload& other) noexcept : block_(other.block_), offset_(other.offset_) {
    if (block_) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Payload(Payload&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)), offset_(std::exchange(other.offset_, 0)) {}
  Payload& operator=(Payload other) noexcept {
    std::swap(block_, other.block_);
    std::swap(offset_, other.offset_);
    return *this;
  }
  ~Payload() {
    if (block_ && block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete block_;
  }

  /// The bytes after the first `k` (none if `k` >= size()), sharing this
  /// payload's block.
  Payload suffix(std::size_t k) const {
    Payload p = *this;
    p.offset_ += static_cast<std::uint32_t>(std::min(k, size()));
    return p;
  }

  BytesView view() const {
    return block_ ? BytesView(block_->bytes).subspan(offset_) : BytesView();
  }
  operator BytesView() const { return view(); }  // NOLINT(google-explicit-constructor)

  std::size_t size() const { return view().size(); }
  const std::uint8_t* data() const { return view().data(); }
  std::uint8_t operator[](std::size_t i) const { return view()[i]; }
  BytesView::iterator begin() const { return view().begin(); }
  BytesView::iterator end() const { return view().end(); }

  friend bool operator==(const Payload& a, const Payload& b) {
    const BytesView x = a.view(), y = b.view();
    return x.size() == y.size() && std::equal(x.begin(), x.end(), y.begin());
  }

 private:
  struct Block {
    explicit Block(Bytes b) : bytes(std::move(b)) {}
    std::atomic<std::size_t> refs{1};
    Bytes bytes;
  };

  Block* block_ = nullptr;
  std::uint32_t offset_ = 0;  // bytes of the block before this payload's first
};

}  // namespace srds
