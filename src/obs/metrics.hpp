// Central metrics registry: the one shared truth about runtime behaviour.
//
// Three instrument kinds, all safe to touch from any thread with no lock
// on the hot path:
//
//   Counter       monotonic; relaxed fetch_add.
//   Gauge         last-written double; relaxed store (plus CAS add()).
//   LogHistogram  fixed-bucket log2-scale histogram.  The bucket index is
//                 computed from the IEEE-754 exponent and the top mantissa
//                 bits of the sample — no libm call, one relaxed
//                 fetch_add per observation.  Quantiles are answered from
//                 the bucket counts with geometric interpolation, so the
//                 relative error is bounded by the bucket width
//                 (2^(1/4) ≈ 19 %, see kSubBits).
//
// The Registry owns instruments for the life of the process.  Lookup /
// registration takes a RankedMutex (band kObsRegistry — above the pool
// shards, below the log sink, so any subsystem may register while holding
// its own locks); callers cache the returned reference and never pay that
// lock again.  Handles are stable: instruments live in deques and are
// never destroyed or moved.
//
// snapshot() reads every instrument into plain structs *before* any
// rendering happens — exporters format from the snapshot, never from live
// atomics, which is the "single consistent cut" guarantee
// hotc::export_prometheus documents.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "core/ranked_mutex.hpp"

namespace hotc::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Read-side copy of a histogram (see LogHistogram::snapshot()).
struct HistogramSnapshot {
  std::vector<std::uint64_t> counts;  // one per bucket, LogHistogram order
  /// Last exemplar (trace id) observed into each bucket; 0 = none.
  /// Aligned with `counts`; empty when the histogram never saw one.
  std::vector<std::uint64_t> exemplars;
  std::uint64_t underflow = 0;        // samples <= 0 or below the domain
  std::uint64_t overflow = 0;
  std::uint64_t total = 0;            // including under/overflow
  double sum = 0.0;

  /// q in [0,1]; geometric interpolation inside the winning bucket.
  /// Relative error <= the bucket width factor (LogHistogram::kWidth).
  [[nodiscard]] double quantile(double q) const;
  /// Index into `counts` of the bucket holding quantile q, or -1 when it
  /// falls among under/overflow samples — the key to cross-linking a p99
  /// outlier to its exemplar span.
  [[nodiscard]] int quantile_bucket(double q) const;
  [[nodiscard]] double mean() const {
    return total ? sum / static_cast<double>(total) : 0.0;
  }
};

/// Lock-free log2-scale histogram over (0, 2^kMaxExp).
///
/// Buckets split each octave into kSub sub-buckets using the top mantissa
/// bits, so bucket b covers [lower_bound(b), lower_bound(b+1)) with
/// lower_bound(b) = 2^(kMinExp + b/kSub) * (1 + (b%kSub)/kSub).
class LogHistogram {
 public:
  static constexpr int kSubBits = 2;        // 4 sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMinExp = -20;       // ~9.5e-7: below any real sample
  static constexpr int kMaxExp = 40;        // ~1.1e12: above any real sample
  static constexpr int kBuckets = (kMaxExp - kMinExp) * kSub;
  /// Worst-case quantile relative error: one bucket's width.
  static constexpr double kWidth = 1.25;    // >= 2^(1/kSub) ≈ 1.189

  void observe(double v) {
    counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }

  /// As observe(), plus an exemplar (trace / request id) remembered for
  /// the sample's bucket.  Lets hotc_top resolve "what request sat in the
  /// p99 bucket?" to a concrete span in OBS_spans.jsonl.  The exemplar is
  /// refreshed only when the bucket's count crosses a power of two —
  /// amortized O(log n) stores, so the steady-state hot-path cost over
  /// plain observe() is two ALU ops and a predicted-not-taken branch, not
  /// a second dirtied cache line per sample.
  void observe(double v, std::uint64_t exemplar) {
    const int b = bucket_index(v);
    const std::uint64_t n =
        counts_[b].fetch_add(1, std::memory_order_relaxed);
    if (exemplar != 0 && (n & (n - 1)) == 0) {
      exemplars_[b].store(exemplar, std::memory_order_relaxed);
      if (!has_exemplars_.load(std::memory_order_relaxed)) {
        has_exemplars_.store(true, std::memory_order_relaxed);
      }
    }
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Inclusive lower edge of bucket b (b in [0, kBuckets)).
  [[nodiscard]] static double lower_bound(int b);

  /// Bucket for a sample; 0 is the underflow bucket, kBuckets + 1 the
  /// overflow bucket (the counts_ array is [under, kBuckets..., over]).
  [[nodiscard]] static int bucket_index(double v) {
    if (!(v > 0.0)) return 0;
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const int exp = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
    if (exp < kMinExp) return 0;
    if (exp >= kMaxExp) return kBuckets + 1;
    const int sub = static_cast<int>((bits >> (52 - kSubBits)) & (kSub - 1));
    return 1 + (exp - kMinExp) * kSub + sub;
  }

 private:
  std::atomic<std::uint64_t> counts_[kBuckets + 2]{};
  std::atomic<std::uint64_t> exemplars_[kBuckets + 2]{};
  std::atomic<bool> has_exemplars_{false};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One instrument's identity + value, captured at snapshot time.
struct MetricSample {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  /// Prometheus-style label pairs, pre-rendered ("shard=\"3\"");
  /// empty for unlabelled instruments.
  std::string labels;
  double value = 0.0;            // counter / gauge
  HistogramSnapshot histogram;   // kHistogram only
  /// The instrument's registration index in its Registry: dense from 0,
  /// fixed for the Registry's lifetime, so consumers that sample every
  /// tick resolve an instrument once and key their state on this.
  std::uint32_t index = 0;
};

/// Point-in-time copy of every instrument in a Registry, ordered by
/// (name, labels).  Everything an exporter needs; no atomics inside.
/// Instruments are never removed, so a later snapshot of the same
/// Registry holds every index an earlier one held; new ones may sort
/// anywhere.
using RegistrySnapshot = std::vector<MetricSample>;

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create.  The returned reference is valid for the Registry's
  /// lifetime; callers cache it and increment without further lookups.
  /// Help text is taken from the first registration of a name.
  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& help,
               const std::string& labels = "");
  LogHistogram& histogram(const std::string& name, const std::string& help,
                          const std::string& labels = "");

  /// Read every instrument once, before any formatting: the consistent
  /// cut that exporters render from.
  [[nodiscard]] RegistrySnapshot snapshot() const;
  /// As snapshot(), refreshing `cut` in place.  `cut` must be empty or an
  /// earlier snapshot of this Registry: instruments it already holds keep
  /// their strings and only their values are re-read, so a caller that
  /// takes a cut every tick copies the identity of new instruments only.
  void snapshot(RegistrySnapshot& cut) const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::string labels;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    LogHistogram* histogram = nullptr;
  };

  template <typename T>
  T& find_or_create(std::deque<T>& store, MetricKind kind,
                    const std::string& name, const std::string& help,
                    const std::string& labels) HOTC_REQUIRES(mu_);

  /// Guards the index only — never held while a caller increments.
  mutable RankedMutex mu_{LockRank::kObsRegistry, 0, "obs.registry"};
  /// (name, labels) -> registration index; snapshot() walks it, so its
  /// order is the snapshot's order.
  std::map<std::pair<std::string, std::string>, std::size_t> index_
      HOTC_GUARDED_BY(mu_);
  std::vector<Entry> entries_ HOTC_GUARDED_BY(mu_);
  // Deques: stable addresses as instruments are added.  Registration is
  // guarded; the instruments themselves are atomics callers touch lock-free.
  std::deque<Counter> counters_ HOTC_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ HOTC_GUARDED_BY(mu_);
  std::deque<LogHistogram> histograms_ HOTC_GUARDED_BY(mu_);
};

}  // namespace hotc::obs
