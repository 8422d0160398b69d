#include "common/serial.hpp"

namespace srds {

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::bytes(BytesView b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void Writer::raw(BytesView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

void Writer::str(const std::string& s) {
  bytes(BytesView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

std::uint8_t Reader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!take(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Bytes Reader::bytes() {
  std::uint32_t n = u32();
  return raw(n);
}

Bytes Reader::raw(std::size_t n) {
  BytesView v = view(n);
  return Bytes(v.begin(), v.end());
}

BytesView Reader::view(std::size_t n) {
  if (!take(n)) return {};
  BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

BytesView Reader::bytes_view() {
  std::uint32_t n = u32();
  return view(n);
}

std::string Reader::str() {
  Bytes b = bytes();
  return std::string(b.begin(), b.end());
}

}  // namespace srds
