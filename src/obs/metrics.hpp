// Structured metrics: a registry of named counters, gauges and log-scale
// histograms with labeled dimensions.
//
// The registry gives every quantitative signal in the repo a stable,
// machine-readable home: a metric is (name, sorted label set) -> storage,
// and the whole registry exports as one JSON document. Labels carry the
// experiment dimensions the paper's artifacts compare across — protocol,
// n, seed, fault plan — so downstream tooling can pivot without parsing
// fixed-width text tables.
//
// Handles returned by the registry are stable for the registry's lifetime
// (metrics are heap-allocated; nothing moves a live metric).
//
// Thread safety: registration, updates and export are safe to call from
// concurrent threads (the TSan leg of the sanitizer matrix runs
// tests/obs_threaded_test.cpp against exactly this). Counters, gauges and
// histograms are relaxed atomics — they are statistics, not
// synchronization; nothing may be ordered against them (the policy is
// docs/observability.md "memory-order policy"). Histogram::record
// is lock-free: each log2 bucket is its own atomic and min/max are CAS
// loops, so the per-message hot path never serializes through a mutex. The
// price is that a concurrent reader can observe a sum whose count has not
// landed yet — fine for statistics, which is all a histogram is. The
// registry's entry lists keep a mutex (registration + export only, never
// the record path).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace srds::obs {

/// Label dimensions, e.g. {{"protocol","pi_ba"},{"n","512"}}. Order given
/// by the caller is irrelevant: the registry canonicalizes by sorting.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Log2-bucketed histogram for long-tailed size/latency distributions.
/// Bucket b counts samples v with 2^b <= v < 2^(b+1); bucket 0 also takes
/// v in {0, 1}. Exact count/sum/min/max are kept alongside the buckets.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const {
    return count() ? min_.load(std::memory_order_relaxed) : 0;
  }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t c = count();
    return c ? static_cast<double>(sum()) / static_cast<double>(c) : 0.0;
  }
  /// Index of the bucket `v` falls into.
  static std::size_t bucket_of(std::uint64_t v);
  std::uint64_t bucket(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Upper bound (exclusive) of a quantile q in [0, 1]: the smallest bucket
  /// boundary 2^(b+1) such that at least q*count samples fall at or below
  /// it. Log-scale resolution only — intended for reporting, not math.
  std::uint64_t quantile_bound(double q) const;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

class Registry {
 public:
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels = {});

  /// Export every metric:
  ///   {"counters":[{name,labels{},value}...],
  ///    "gauges":[...],
  ///    "histograms":[{name,labels{},count,sum,min,max,mean,buckets{"2^b":c}}...]}
  /// Metrics appear in registration order; labels in sorted order.
  Json to_json() const;

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  struct Key {
    std::string name;
    Labels labels;  // sorted
    bool operator==(const Key&) const = default;
  };

  // Metrics live behind unique_ptr so they can hold atomics/mutexes (non-
  // movable) while entries are still appendable; handle stability follows
  // from the heap allocation rather than from deque semantics.
  template <typename T>
  struct Entry {
    Key key;
    std::unique_ptr<T> metric;
  };

  static Key make_key(const std::string& name, Labels labels);
  static Json labels_json(const Labels& labels);

  // Guards the entry lists (registration + export); the metrics themselves
  // synchronize their own updates.
  mutable std::mutex mu_;
  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<Histogram>> histograms_;
};

}  // namespace srds::obs
