// Runtime metrics — low-overhead counters, gauges and latency histograms.
//
// The paper's deployment story (Section V-E) is an always-on monitoring
// loop: a node that scores every drive each SMART interval, journals the
// telemetry, and periodically retrains. Operating such a loop requires
// observing it — alarm rates drifting is how model staleness is caught
// before FAR degrades. This registry is the substrate: named instruments,
// cheap enough to leave in the hot scoring/append paths.
//
// Design constraints (and how they are met):
//  * Hot-path cost: an enabled counter increment is one relaxed flag load
//    plus one relaxed fetch_add on a thread-affine shard (~a few ns); a
//    disabled instrument is the flag load alone. No locks, no allocation
//    after registration.
//  * TSan-clean: every mutable word is a std::atomic; shards are
//    cache-line aligned so concurrent increments never false-share.
//  * Stable identity: Registry::counter()/gauge()/histogram() return the
//    same instrument for the same (name, labels) pair, so independently
//    constructed subsystems (two stores over one directory, a scorer per
//    thread) aggregate naturally. Instruments live as long as their
//    Registry; holders keep raw pointers.
//
// Metric naming follows hdd_<subsystem>_<name>_<unit> (DESIGN.md §7), with
// Prometheus-compatible names validated at registration time. Snapshots
// are rendered by obs/exposition.h.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace hdd::obs {

// Label set of one instrument: ordered (key, value) pairs. Keys must be
// valid Prometheus label names; values are arbitrary UTF-8 (escaped at
// exposition time).
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

// "counter" / "gauge" / "histogram".
const char* metric_type_name(MetricType t);

namespace detail {

inline constexpr std::size_t kShards = 8;  // power of two

struct alignas(64) Shard {
  std::atomic<std::uint64_t> v{0};
};

// Thread-affine shard index in [0, kShards): threads are numbered in
// first-use order, so a fixed worker pool spreads evenly.
std::size_t shard_index();

}  // namespace detail

// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class Registry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  const std::atomic<bool>* enabled_;
  detail::Shard shards_[detail::kShards];
};

// Instantaneous level (queue depth, open segments). set() is a plain
// store; add()/sub() are atomic, so concurrent deltas never lose updates.
class Gauge {
 public:
  void set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(double d) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  void sub(double d) { add(-d); }

  double value() const { return v_.load(std::memory_order_relaxed); }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class Registry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  const std::atomic<bool>* enabled_;
  std::atomic<double> v_{0.0};
};

// Fixed log2-bucket histogram for latencies (nanoseconds by convention;
// any nonnegative quantity works). obs::ScopedSpan (obs/trace.h) times a
// scope into one.
//
// Bucket layout (documented contract, pinned by obs_test):
//   bucket 0              holds v <= 1 — including 0, negatives and NaN;
//   bucket b (0 < b < 47) holds 2^(b-1) < v <= 2^b, so an exact power of
//                         two 2^k lands in bucket k;
//   bucket 47             holds v > 2^46 (~20 h in ns), including +inf.
// Exposition renders bucket b's inclusive upper bound as le="2^b".
// sum() accumulates finite recorded values only, so one +inf (or NaN)
// sample cannot poison the mean.
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  // Bucket index for a value, per the layout above.
  static int bucket_of(double v);
  // Inclusive upper bound of bucket b (+inf for the last bucket).
  static double bucket_le(int b);

  void record(double v);

  bool enabled() const { return enabled_->load(std::memory_order_relaxed); }
  std::uint64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class Registry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  const std::atomic<bool>* enabled_;
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<double> sum_{0.0};
};

// Point-in-time copy of one instrument, decoupled from the live atomics.
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  Labels labels;
  double value = 0.0;                   // counter / gauge
  std::uint64_t count = 0;              // histogram: total observations
  double sum = 0.0;                     // histogram: sum of finite values
  std::vector<std::uint64_t> buckets;   // histogram: per-bucket (not cum.)
};

struct Snapshot {
  std::vector<MetricSnapshot> metrics;  // sorted by (name, labels)
};

// Instrument registry. Registration takes a mutex (do it once, at
// subsystem construction); reads and increments are lock-free.
class Registry {
 public:
  explicit Registry(bool enabled = true) : enabled_(enabled) {}

  // The process-wide registry every subsystem defaults to. Enabled at
  // startup; the CLI disables it unless --metrics-out asks for a dump.
  static Registry& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Returns the instrument registered under (name, labels), creating it on
  // first use. `name` must match [a-zA-Z_:][a-zA-Z0-9_:]* and label keys
  // [a-zA-Z_][a-zA-Z0-9_]*; re-registering a name as a different type
  // throws ConfigError. The returned reference stays valid for the
  // registry's lifetime.
  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       Labels labels = {});

  std::size_t size() const;

  // Deterministically ordered copy of every instrument's current state.
  Snapshot snapshot() const;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct Entry {
    MetricType type;
    std::string name;
    std::string help;
    Labels labels;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };

  Entry& find_or_create(MetricType type, const std::string& name,
                        const std::string& help, Labels labels);

  std::atomic<bool> enabled_;
  mutable Mutex mutex_{lock_order::Rank::kObsRegistry, "obs-registry"};
  // Entry pointers are stable: instruments hand out raw references that
  // outlive the lock, so entries_ only ever grows.
  std::vector<std::unique_ptr<Entry>> entries_ HDD_GUARDED_BY(mutex_);
};

}  // namespace hdd::obs
