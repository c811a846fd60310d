#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace hotc::obs {
namespace {

TEST(Counter, MonotonicIncrements) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Registry, FindOrCreateIsIdempotent) {
  Registry reg;
  Counter& a = reg.counter("hotc_test_total", "help a");
  Counter& b = reg.counter("hotc_test_total", "help ignored");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  // Distinct labels are distinct instruments of the same family.
  Counter& c = reg.counter("hotc_test_total", "help", "shard=\"1\"");
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, FirstHelpTextWinsAcrossLabels) {
  Registry reg;
  reg.counter("hotc_family_total", "the real help", "shard=\"0\"");
  reg.counter("hotc_family_total", "a different string", "shard=\"1\"");
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].help, "the real help");
  EXPECT_EQ(snap[1].help, "the real help");
}

TEST(Registry, SnapshotIsSortedByNameThenLabels) {
  Registry reg;
  reg.counter("hotc_zzz_total", "z");
  reg.gauge("hotc_aaa", "a", "shard=\"1\"");
  reg.gauge("hotc_aaa", "a", "shard=\"0\"");
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "hotc_aaa");
  EXPECT_EQ(snap[0].labels, "shard=\"0\"");
  EXPECT_EQ(snap[1].labels, "shard=\"1\"");
  EXPECT_EQ(snap[2].name, "hotc_zzz_total");
}

TEST(Registry, FirstHelpTextWinsWhenALaterInstanceSortsFirst) {
  Registry reg;
  reg.counter("hotc_family_total", "the real help", "shard=\"1\"");
  reg.counter("hotc_family_total", "a different string", "shard=\"0\"");
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].labels, "shard=\"0\"");
  EXPECT_EQ(snap[0].help, "the real help");
  EXPECT_EQ(snap[1].help, "the real help");
}

// Instruments registered between snapshots sort in wherever their
// (name, labels) falls — "key=\"10\"" before "key=\"9\"" — while every
// instrument keeps the registration index it was given.
TEST(Registry, SnapshotOrderAndIndicesHoldAcrossGrowth) {
  Registry reg;
  reg.counter("hotc_key_total", "k", "key=\"9\"");
  reg.counter("hotc_key_total", "k", "key=\"8\"");
  reg.gauge("hotc_zzz", "z");
  const RegistrySnapshot before = reg.snapshot();
  reg.counter("hotc_key_total", "k", "key=\"10\"");
  reg.gauge("hotc_aaa", "a");
  reg.counter("hotc_key_total", "k", "key=\"1\"");
  const RegistrySnapshot after = reg.snapshot();
  ASSERT_EQ(after.size(), 6u);

  const auto name_labels_less = [](const MetricSample& a,
                                   const MetricSample& b) {
    return a.name != b.name ? a.name < b.name : a.labels < b.labels;
  };
  EXPECT_TRUE(std::is_sorted(before.begin(), before.end(), name_labels_less));
  EXPECT_TRUE(std::is_sorted(after.begin(), after.end(), name_labels_less));
  EXPECT_EQ(after[0].name, "hotc_aaa");
  EXPECT_EQ(after[1].labels, "key=\"1\"");
  EXPECT_EQ(after[2].labels, "key=\"10\"");
  EXPECT_EQ(after[3].labels, "key=\"8\"");
  EXPECT_EQ(after[4].labels, "key=\"9\"");

  // Indices are registration order, dense, and fixed per instrument.
  const std::vector<std::uint32_t> want = {4, 5, 3, 1, 0, 2};
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].index, want[i]) << after[i].name << after[i].labels;
  }
  for (const MetricSample& old : before) {
    const auto it = std::find_if(
        after.begin(), after.end(), [&](const MetricSample& s) {
          return s.name == old.name && s.labels == old.labels;
        });
    ASSERT_NE(it, after.end());
    EXPECT_EQ(it->index, old.index);
  }
}

// A cut refreshed in place every round equals a fresh snapshot, while
// instruments of every kind are added at random points of the order.
TEST(Registry, RefreshedCutEqualsAFreshSnapshot) {
  Registry reg;
  Rng rng(7);
  RegistrySnapshot cut;
  std::vector<Counter*> counters;
  std::vector<LogHistogram*> histograms;
  for (int round = 0; round < 30; ++round) {
    for (int k = rng.uniform_int(0, 4); k > 0; --k) {
      const std::string labels =
          "key=\"" + std::to_string(rng.uniform_int(0, 400)) + "\"";
      switch (rng.uniform_int(0, 2)) {
        case 0:
          counters.push_back(&reg.counter("hotc_key_total", "c", labels));
          break;
        case 1:
          reg.gauge("hotc_aaa_level", "g", labels)
              .set(rng.uniform(0.0, 9.0));
          break;
        default:
          histograms.push_back(&reg.histogram("hotc_mid_ms", "h", labels));
          break;
      }
    }
    for (Counter* c : counters) c->inc(static_cast<std::uint64_t>(round));
    for (LogHistogram* h : histograms) h->observe(1.0 + round);
    reg.snapshot(cut);
    const RegistrySnapshot fresh = reg.snapshot();
    ASSERT_EQ(cut.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(cut[i].name, fresh[i].name);
      EXPECT_EQ(cut[i].help, fresh[i].help);
      EXPECT_EQ(cut[i].labels, fresh[i].labels);
      EXPECT_EQ(cut[i].kind, fresh[i].kind);
      EXPECT_EQ(cut[i].index, fresh[i].index);
      EXPECT_EQ(cut[i].value, fresh[i].value);
      EXPECT_EQ(cut[i].histogram.counts, fresh[i].histogram.counts);
      EXPECT_EQ(cut[i].histogram.total, fresh[i].histogram.total);
    }
  }
  EXPECT_GT(cut.size(), 20u);
}

TEST(Registry, SnapshotCapturesValues) {
  Registry reg;
  reg.counter("hotc_events_total", "events").inc(7);
  reg.gauge("hotc_level", "level").set(3.25);
  reg.histogram("hotc_lat_ms", "latency").observe(8.0);
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  for (const MetricSample& s : snap) {
    if (s.name == "hotc_events_total") {
      EXPECT_DOUBLE_EQ(s.value, 7.0);
    }
    if (s.name == "hotc_level") {
      EXPECT_DOUBLE_EQ(s.value, 3.25);
    }
    if (s.name == "hotc_lat_ms") {
      EXPECT_EQ(s.histogram.total, 1u);
      EXPECT_DOUBLE_EQ(s.histogram.sum, 8.0);
    }
  }
}

TEST(LogHistogram, BucketIndexCoversTheDomain) {
  // Non-positive and sub-domain samples land in underflow (0); huge ones
  // in overflow (kBuckets + 1); everything else in a real bucket whose
  // edges bracket the sample.
  EXPECT_EQ(LogHistogram::bucket_index(0.0), 0);
  EXPECT_EQ(LogHistogram::bucket_index(-3.0), 0);
  EXPECT_EQ(LogHistogram::bucket_index(1e-10), 0);
  EXPECT_EQ(LogHistogram::bucket_index(1e15), LogHistogram::kBuckets + 1);
  for (double v : {1e-3, 0.1, 1.0, 3.7, 128.0, 5e8}) {
    const int idx = LogHistogram::bucket_index(v);
    ASSERT_GE(idx, 1);
    ASSERT_LE(idx, LogHistogram::kBuckets);
    const int b = idx - 1;
    EXPECT_LE(LogHistogram::lower_bound(b), v);
    if (b + 1 < LogHistogram::kBuckets) {
      EXPECT_GT(LogHistogram::lower_bound(b + 1), v);
    }
  }
}

TEST(LogHistogram, QuantileErrorBoundedByBucketWidth) {
  // The documented contract: quantiles answered from the log-scale
  // buckets are within a factor of kWidth of the exact order statistic.
  LogHistogram hist;
  Rng rng(1234);
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over ~6 decades, the shape latencies actually have.
    const double v = std::pow(10.0, -2.0 + 6.0 * rng.uniform());
    samples.push_back(v);
    hist.observe(v);
  }
  std::sort(samples.begin(), samples.end());
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total, samples.size());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact =
        samples[static_cast<std::size_t>(q * (samples.size() - 1))];
    const double approx = snap.quantile(q);
    EXPECT_LE(approx, exact * LogHistogram::kWidth)
        << "q=" << q << " exact=" << exact;
    EXPECT_GE(approx, exact / LogHistogram::kWidth)
        << "q=" << q << " exact=" << exact;
  }
}

TEST(LogHistogram, SumAndMeanAreExact) {
  LogHistogram hist;
  double expect_sum = 0.0;
  for (double v : {1.0, 2.0, 4.0, 10.0}) {
    hist.observe(v);
    expect_sum += v;
  }
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_DOUBLE_EQ(snap.sum, expect_sum);
  EXPECT_DOUBLE_EQ(snap.mean(), expect_sum / 4.0);
}

TEST(LogHistogram, QuantileDegenerateCases) {
  LogHistogram hist;
  EXPECT_DOUBLE_EQ(hist.snapshot().quantile(0.5), 0.0);  // empty
  hist.observe(-1.0);  // underflow only
  EXPECT_DOUBLE_EQ(hist.snapshot().quantile(0.5), 0.0);
}

}  // namespace
}  // namespace hotc::obs
