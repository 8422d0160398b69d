// Immutable, shareable message body.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/bytes.hpp"

namespace srds {

/// The body of a Message: immutable bytes that copies share, so a body sent
/// to many recipients is stored once however many messages carry it
/// (DESIGN.md §6, "Message framing").
///
/// A payload built from `Bytes` owns them outright: a body with one
/// recipient pays no reference count and no allocation. `shared()` moves
/// the bytes into a reference-counted block, one allocation and no byte
/// copy; a copy of that payload only bumps the count, atomically, so copies
/// may live and die on different threads. Copying a payload that is not
/// shared copies its bytes, as copying `Bytes` does.
///
/// `size()` is the wire size, and the payload converts to `BytesView`, so a
/// `Reader` or `untag_body` reads it like any other buffer.
class Payload {
 public:
  Payload() = default;
  // Implicit: a Bytes body becomes a payload wherever a Message is built.
  Payload(Bytes bytes) noexcept : own_(std::move(bytes)) {}  // NOLINT(google-explicit-constructor)

  /// A payload whose copies share `bytes`.
  static Payload shared(Bytes bytes) {
    Payload p;
    p.shared_ = new Block(std::move(bytes));
    return p;
  }

  Payload(const Payload& other) : shared_(other.shared_) {
    if (shared_) {
      shared_->refs.fetch_add(1, std::memory_order_relaxed);
    } else {
      own_ = other.own_;
    }
  }
  Payload(Payload&& other) noexcept
      : own_(std::move(other.own_)), shared_(std::exchange(other.shared_, nullptr)) {}
  Payload& operator=(Payload other) noexcept {
    std::swap(own_, other.own_);
    std::swap(shared_, other.shared_);
    return *this;
  }
  ~Payload() { release(); }

  bool is_shared() const { return shared_ != nullptr; }
  /// True if this payload and `other` share one buffer.
  bool shares(const Payload& other) const { return shared_ && shared_ == other.shared_; }

  /// The bytes: moved out of a payload that is not shared, copied out of
  /// one that is. Leaves the payload empty.
  Bytes take() && {
    Bytes out = shared_ ? shared_->bytes : std::move(own_);
    release();
    return out;
  }

  BytesView view() const { return shared_ ? BytesView(shared_->bytes) : BytesView(own_); }
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

  void release() noexcept {
    if (shared_ && shared_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete shared_;
    shared_ = nullptr;
  }

  Bytes own_;               // the bytes while this payload is their sole owner
  Block* shared_ = nullptr;  // the bytes once shared (own_ is then empty)
};

}  // namespace srds
