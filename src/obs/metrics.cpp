#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <type_traits>

#include "core/assert.hpp"

namespace hotc::obs {

double HistogramSnapshot::quantile(double q) const {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = underflow;
  if (rank <= static_cast<double>(cumulative)) {
    return 0.0;  // the quantile falls among sub-domain samples
  }
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t in_bucket = counts[b];
    if (in_bucket == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (rank > static_cast<double>(cumulative)) continue;
    // Geometric interpolation between the bucket edges: samples are
    // treated as log-uniform within the bucket, matching the log-scale
    // bucketing itself.
    const double lo = LogHistogram::lower_bound(static_cast<int>(b));
    const double hi =
        static_cast<int>(b) + 1 < LogHistogram::kBuckets
            ? LogHistogram::lower_bound(static_cast<int>(b) + 1)
            : lo * LogHistogram::kWidth;
    const double frac = (rank - before) / static_cast<double>(in_bucket);
    return lo * std::pow(hi / lo, frac);
  }
  // Only overflow samples remain above the rank.
  return LogHistogram::lower_bound(LogHistogram::kBuckets - 1) *
         LogHistogram::kWidth;
}

int HistogramSnapshot::quantile_bucket(double q) const {
  if (total == 0) return -1;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = underflow;
  if (rank <= static_cast<double>(cumulative)) return -1;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    cumulative += counts[b];
    if (rank <= static_cast<double>(cumulative)) {
      return static_cast<int>(b);
    }
  }
  return -1;  // the quantile falls among overflow samples
}

HistogramSnapshot LogHistogram::snapshot() const {
  HistogramSnapshot out;
  out.counts.resize(kBuckets);
  out.underflow = counts_[0].load(std::memory_order_relaxed);
  out.total = out.underflow;
  for (int b = 0; b < kBuckets; ++b) {
    out.counts[static_cast<std::size_t>(b)] =
        counts_[b + 1].load(std::memory_order_relaxed);
    out.total += out.counts[static_cast<std::size_t>(b)];
  }
  out.overflow = counts_[kBuckets + 1].load(std::memory_order_relaxed);
  out.total += out.overflow;
  if (has_exemplars_.load(std::memory_order_relaxed)) {
    out.exemplars.resize(kBuckets);
    for (int b = 0; b < kBuckets; ++b) {
      out.exemplars[static_cast<std::size_t>(b)] =
          exemplars_[b + 1].load(std::memory_order_relaxed);
    }
  }
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

double LogHistogram::lower_bound(int b) {
  const int exp = kMinExp + b / kSub;
  const int sub = b % kSub;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSub, exp);
}

template <typename T>
T& Registry::find_or_create(std::deque<T>& store, MetricKind kind,
                            const std::string& name, const std::string& help,
                            const std::string& labels) {
  const auto key = std::make_pair(name, labels);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    HOTC_ASSERT_MSG(e.kind == kind,
                    "metric re-registered with a different kind");
    if constexpr (std::is_same_v<T, Counter>) return *e.counter;
    if constexpr (std::is_same_v<T, Gauge>) return *e.gauge;
    if constexpr (std::is_same_v<T, LogHistogram>) return *e.histogram;
  }
  store.emplace_back();
  Entry e;
  e.name = name;
  // First registration of a name wins the help text, so families stay
  // coherent across differently-labelled instances.  Every instance of a
  // name carries that text, so the first one in index order will do.
  e.help = help;
  const auto prior = index_.lower_bound({name, std::string()});
  if (prior != index_.end() && prior->first.first == name) {
    e.help = entries_[prior->second].help;
  }
  e.kind = kind;
  e.labels = labels;
  if constexpr (std::is_same_v<T, Counter>) e.counter = &store.back();
  if constexpr (std::is_same_v<T, Gauge>) e.gauge = &store.back();
  if constexpr (std::is_same_v<T, LogHistogram>) e.histogram = &store.back();
  index_.emplace(key, entries_.size());
  entries_.push_back(std::move(e));
  return store.back();
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const std::string& labels) {
  const RankedGuard lock(mu_);
  return find_or_create(counters_, MetricKind::kCounter, name, help, labels);
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const std::string& labels) {
  const RankedGuard lock(mu_);
  return find_or_create(gauges_, MetricKind::kGauge, name, help, labels);
}

LogHistogram& Registry::histogram(const std::string& name,
                                  const std::string& help,
                                  const std::string& labels) {
  const RankedGuard lock(mu_);
  return find_or_create(histograms_, MetricKind::kHistogram, name, help,
                        labels);
}

RegistrySnapshot Registry::snapshot() const {
  RegistrySnapshot out;
  snapshot(out);
  return out;
}

void Registry::snapshot(RegistrySnapshot& cut) const {
  const RankedGuard lock(mu_);
  // index_ is in (name, labels) order, and instruments are only ever
  // added, so the earlier cut is a subsequence of the new one.  Merge from
  // the back: each old sample moves up to its new slot (never onto one
  // still unread), and each new instrument fills the gap it sorts into.
  std::size_t old = cut.size();
  HOTC_ASSERT_MSG(old <= entries_.size(),
                  "snapshot refresh given a cut of another registry");
  cut.resize(entries_.size());
  std::size_t slot = cut.size();
  for (auto it = index_.rbegin(); it != index_.rend(); ++it) {
    const std::size_t at = it->second;
    const Entry& e = entries_[at];
    MetricSample& s = cut[--slot];
    if (old > 0 && cut[old - 1].index == at) {
      --old;
      if (old != slot) s = std::move(cut[old]);
    } else {
      s.name = e.name;
      s.help = e.help;
      s.kind = e.kind;
      s.labels = e.labels;
      s.index = static_cast<std::uint32_t>(at);
      s.histogram = HistogramSnapshot{};
    }
    // All values are read here, before any caller formats anything.
    switch (e.kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(e.counter->value());
        break;
      case MetricKind::kGauge:
        s.value = e.gauge->value();
        break;
      case MetricKind::kHistogram:
        s.histogram = e.histogram->snapshot();
        break;
    }
  }
  HOTC_ASSERT_MSG(old == 0,
                  "snapshot refresh given a cut of another registry");
}

std::size_t Registry::size() const {
  const RankedGuard lock(mu_);
  return entries_.size();
}

}  // namespace hotc::obs
