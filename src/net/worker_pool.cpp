#include "net/worker_pool.hpp"

#include <sched.h>

#include <algorithm>

namespace srds {

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::size_t t = 0; t < started_; ++t) pthread_join(handles_[t], nullptr);
}

void* WorkerPool::thread_main(void* self) {
  static_cast<WorkerPool*>(self)->work_loop();
  return nullptr;
}

void WorkerPool::start_threads(std::size_t want) {
  want = std::min(want, kMaxWorkers - 1);
  if (started_ >= want) return;
  {
    // New threads join at the next job: the generation only moves in
    // run(), after this returns.
    std::lock_guard<std::mutex> lk(mu_);
    born_ = job_.gen;
  }
  while (started_ < want) {
    // A refused thread (EAGAIN under a process limit) leaves the pool
    // smaller; the chunk cursor hands its share to the others.
    if (pthread_create(&handles_[started_], nullptr, &WorkerPool::thread_main, this) != 0) {
      break;
    }
    ++started_;
  }
}

void WorkerPool::drain(const Job& job) {
  constexpr std::uint64_t kIndex = 0xffffffffu;
  std::uint64_t c = cursor_.load(std::memory_order_relaxed);
  for (;;) {
    // Claim [b, b + chunk) of this job, or stop: the job is spent or a
    // later one has replaced it.
    if ((c >> 32) != job.gen || (c & kIndex) >= job.count) return;
    if (!cursor_.compare_exchange_weak(c, c + job.chunk, std::memory_order_relaxed)) continue;
    const std::size_t b = static_cast<std::size_t>(c & kIndex);
    const std::size_t e = std::min(b + job.chunk, job.count);
    for (std::size_t i = b; i < e; ++i) job.fn(job.ctx, i);
    // acq_rel chains every thread's writes (its parties' send lists) into
    // the caller's acquire of the final count.
    if (done_.fetch_add(e - b, std::memory_order_acq_rel) + (e - b) == job.count) {
      std::lock_guard<std::mutex> lk(mu_);
      idle_.notify_one();
    }
    c = cursor_.load(std::memory_order_relaxed);
  }
}

void WorkerPool::work_loop() {
  std::uint32_t seen = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    seen = born_;
  }
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      wake_.wait(lk, [&] { return stop_ || job_.gen != seen; });
      if (stop_) return;
      job = job_;
      seen = job.gen;
    }
    drain(job);
  }
}

void WorkerPool::run(std::size_t count, std::size_t workers, Fn fn, void* ctx) {
  if (count == 0) return;
  start_threads(std::min(workers, count) - (workers > 0 ? 1 : 0));
  const std::size_t lanes = started_ + 1;
  Job job;
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_.fn = fn;
    job_.ctx = ctx;
    job_.count = count;
    // Small dynamic chunks, ~32 per lane: one slow party (a committee
    // member doing a boost aggregation) does not stall a whole static
    // range, and a thread the OS preempts holds up at most one chunk.
    job_.chunk = std::max<std::size_t>(1, count / (32 * lanes));
    job_.gen += 1;
    done_.store(0, std::memory_order_relaxed);
    cursor_.store(static_cast<std::uint64_t>(job_.gen) << 32, std::memory_order_relaxed);
    job = job_;
  }
  wake_.notify_all();
  drain(job);
  if (done_.load(std::memory_order_acquire) == count) return;
  std::unique_lock<std::mutex> lk(mu_);
  idle_.wait(lk, [&] { return done_.load(std::memory_order_acquire) == count; });
}

}  // namespace srds
