// Persistent worker pool for the simulator's sharded round loop.
//
// `for_each(count, workers, body)` runs body(0) .. body(count - 1) on the
// calling thread plus up to `workers - 1` pool threads, in dynamic chunks
// claimed from one atomic cursor, and returns once every call has finished
// (DESIGN.md §7). Threads start lazily on the first call that wants them and
// live until the pool is destroyed, so a run pays for thread start-up once.
//
// Completion is counted in calls, not in threads: the caller waits only for
// chunks that some thread has claimed, never for a pool thread to wake up.
// A thread the OS schedules late (a busy or shared host) finds the cursor
// spent and goes back to sleep, so it cannot hold up a round; the cursor
// carries the job's generation, so a late thread cannot claim a later job's
// chunk either.
//
// Thread start-up goes through pthread_create, not std::thread: std::thread
// allocates its state object with operator new, which the counting
// allocation hooks (obs/alloc_hooks.hpp) would charge to whichever run first
// asked for workers — and `allocs_per_op` must not depend on the worker
// count. The pool's own storage is fixed-size for the same reason.
#pragma once

#include <pthread.h>

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace srds {

/// CPUs in this process's affinity mask (so `taskset -c 0` reads 1); at
/// least 1.
std::size_t affinity_cpus();

class WorkerPool {
 public:
  /// Upper bound on workers, counting the calling thread.
  static constexpr std::size_t kMaxWorkers = 64;

  WorkerPool() = default;
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Call body(i) for every i in [0, count), on this thread plus up to
  /// min(workers, kMaxWorkers) - 1 pool threads. `body` must not throw;
  /// calls for distinct i may run concurrently; count < 2^31. Not
  /// reentrant.
  template <class F>
  void for_each(std::size_t count, std::size_t workers, F& body) {
    run(count, workers, [](void* ctx, std::size_t i) { (*static_cast<F*>(ctx))(i); },
        &body);
  }

 private:
  using Fn = void (*)(void*, std::size_t);

  /// One for_each call. Workers copy it under mu_ when they wake.
  struct Job {
    Fn fn = nullptr;
    void* ctx = nullptr;
    std::size_t count = 0;
    std::size_t chunk = 1;
    std::uint32_t gen = 0;
  };

  void run(std::size_t count, std::size_t workers, Fn fn, void* ctx);
  void start_threads(std::size_t want);
  void drain(const Job& job);
  void work_loop();
  static void* thread_main(void* self);

  Job job_;                 // the current job; written under mu_
  std::uint32_t born_ = 0;  // job_.gen when the newest threads started; under mu_
  // (job generation << 32) | next unclaimed index.
  alignas(64) std::atomic<std::uint64_t> cursor_{0};
  alignas(64) std::atomic<std::size_t> done_{0};  // calls finished in this job

  std::mutex mu_;
  std::condition_variable wake_;  // workers: a new job or stop
  std::condition_variable idle_;  // caller: done_ reached job_.count
  bool stop_ = false;

  pthread_t handles_[kMaxWorkers - 1] = {};
  std::size_t started_ = 0;
};

}  // namespace srds
