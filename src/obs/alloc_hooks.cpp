// Counting replacement operator new/delete (see alloc_hooks.hpp for the
// linkage model). This TU is the OBJECT library `srds_alloc_hooks`: its
// definitions are strong and always reach the link, overriding the weak
// fallbacks in alloc_hooks_stub.cpp.
#include "obs/alloc_hooks.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace srds::obs {

namespace {

/// Allocations observed process-wide since startup, in per-thread slots on
/// their own cache lines: with the simulator's workers allocating at once, a
/// single shared counter's line would bounce between cores on every
/// operator new. Threads beyond kAllocSlots share slots; every slot is an
/// atomic, so counts stay exact either way.
constexpr std::size_t kAllocSlots = 16;

struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> ops{0};
};

AllocSlot g_alloc_slots[kAllocSlots];
std::atomic<std::size_t> g_next_slot{0};
// Constant-initialized (no TLS guard, no allocation): kAllocSlots means
// "not assigned yet".
thread_local std::size_t t_alloc_slot = kAllocSlots;

AllocSlot& my_slot() {
  if (t_alloc_slot == kAllocSlots) {
    t_alloc_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kAllocSlots;
  }
  return g_alloc_slots[t_alloc_slot];
}

void count_alloc() { my_slot().ops.fetch_add(1, std::memory_order_relaxed); }

}  // namespace

// Relaxed throughout: the counter is bookkeeping, not synchronization. A
// reader that has synchronized with an allocating thread (joined it, or
// waited on it) sees all of that thread's increments by coherence, so the
// sum is exact for every allocation that happened before the call.
std::uint64_t alloc_ops() {
  std::uint64_t total = 0;
  for (const AllocSlot& s : g_alloc_slots) total += s.ops.load(std::memory_order_relaxed);
  return total;
}

bool alloc_hooks_active() { return true; }

}  // namespace srds::obs

// Counting replacements. The nothrow variants count too: libstdc++'s own
// nothrow new forwards to the replaceable plain new, so they always did.
// They are replaced so that they pair with the replaced delete —
// std::stable_sort takes its temporary buffer from nothrow new and returns
// it through plain delete, which AddressSanitizer reports as a new/free
// mismatch when only the delete side is ours. The aligned variants are not
// replaced (new and delete both stay the runtime's) and go uncounted.
// noinline keeps the malloc/free internals opaque at call sites: inlined,
// GCC's -Wmismatched-new-delete heuristic pairs the caller's `new` with
// the exposed `free` and misfires (and replacement allocation functions
// are not meant to inline in the first place).
#if defined(__GNUC__) || defined(__clang__)
#define SRDS_ALLOC_NOINLINE __attribute__((noinline))
#else
#define SRDS_ALLOC_NOINLINE
#endif

SRDS_ALLOC_NOINLINE void* operator new(std::size_t sz) {
  srds::obs::count_alloc();
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
SRDS_ALLOC_NOINLINE void* operator new[](std::size_t sz) { return operator new(sz); }
SRDS_ALLOC_NOINLINE void* operator new(std::size_t sz, const std::nothrow_t&) noexcept {
  srds::obs::count_alloc();
  return std::malloc(sz ? sz : 1);
}
SRDS_ALLOC_NOINLINE void* operator new[](std::size_t sz, const std::nothrow_t& t) noexcept {
  return operator new(sz, t);
}
SRDS_ALLOC_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
SRDS_ALLOC_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
SRDS_ALLOC_NOINLINE void operator delete(void* p, std::size_t) noexcept { std::free(p); }
SRDS_ALLOC_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
SRDS_ALLOC_NOINLINE void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
SRDS_ALLOC_NOINLINE void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
