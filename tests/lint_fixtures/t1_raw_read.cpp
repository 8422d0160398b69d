// T1 fixture: raw payload-byte reads with no prior validation, in every
// shape the rule recognizes. Presented as src/ba/t1_raw_read.cpp.
#include <cstring>

#include "common/message.hpp"

namespace srds {

std::size_t t1_index_read(const Message& m) {
  return static_cast<std::size_t>(m.payload[0]);  // expect: T1 (line 10)
}

std::size_t t1_pointer_read(const Message& m) {
  const unsigned char* p = m.payload.data();  // expect: T1 (line 14)
  return static_cast<std::size_t>(p[3]);
}

void t1_memcpy_read(const Message& m, unsigned char* out) {
  std::memcpy(out, m.payload.data(), 4);  // expect: T1 (line 19)
}

std::size_t t1_late_validation(const Message& m) {
  std::size_t first = m.payload[0];  // expect: T1 (line 23) — read precedes the check
  if (!validate_frame(m.payload)) return 0;
  return first;
}

std::size_t t1_view_read(const Message& m) {
  return static_cast<std::size_t>(m.payload.view()[1]);  // expect: T1 (line 29)
}

}  // namespace srds
