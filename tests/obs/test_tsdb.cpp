#include "obs/tsdb.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"

namespace hotc::obs {
namespace {

// ---------------------------------------------------------------------------
// Varint / zigzag round-trip property
// ---------------------------------------------------------------------------

TEST(TsdbVarint, RoundTripEdgeValues) {
  const std::uint64_t cases[] = {
      0,
      1,
      127,
      128,
      129,
      16383,
      16384,
      (1ull << 21) - 1,
      1ull << 21,
      (1ull << 35) + 17,
      1ull << 63,
      std::numeric_limits<std::uint64_t>::max(),
  };
  std::uint8_t buf[10];
  for (const std::uint64_t v : cases) {
    const std::size_t n = TimeSeriesStore::encode_varint(v, buf);
    ASSERT_GE(n, 1u);
    ASSERT_LE(n, 10u);
    std::uint64_t out = 0;
    const std::size_t m = TimeSeriesStore::decode_varint(buf, n, &out);
    EXPECT_EQ(m, n) << "value " << v;
    EXPECT_EQ(out, v);
  }
}

TEST(TsdbVarint, RoundTripSweep) {
  // Deterministic LCG sweep over magnitudes; a cheap property test.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::uint8_t buf[10];
  for (int i = 0; i < 4096; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t v = state >> (i % 64);
    const std::size_t n = TimeSeriesStore::encode_varint(v, buf);
    std::uint64_t out = 0;
    ASSERT_EQ(TimeSeriesStore::decode_varint(buf, n, &out), n);
    ASSERT_EQ(out, v);
  }
}

TEST(TsdbVarint, DecodeRejectsTruncation) {
  std::uint8_t buf[10];
  const std::size_t n =
      TimeSeriesStore::encode_varint(std::numeric_limits<std::uint64_t>::max(),
                                     buf);
  ASSERT_EQ(n, 10u);
  std::uint64_t out = 0;
  for (std::size_t avail = 0; avail < n; ++avail) {
    EXPECT_EQ(TimeSeriesStore::decode_varint(buf, avail, &out), 0u)
        << "avail " << avail;
  }
  EXPECT_EQ(TimeSeriesStore::decode_varint(buf, n, &out), n);
}

TEST(TsdbVarint, ZigzagRoundTripsSignedExtremes) {
  const std::int64_t cases[] = {
      0,
      1,
      -1,
      63,
      -64,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
  };
  for (const std::int64_t v : cases) {
    EXPECT_EQ(TimeSeriesStore::unzigzag(TimeSeriesStore::zigzag(v)), v);
  }
  // Small magnitudes must map to small codes (the whole point of zigzag).
  EXPECT_EQ(TimeSeriesStore::zigzag(0), 0u);
  EXPECT_EQ(TimeSeriesStore::zigzag(-1), 1u);
  EXPECT_EQ(TimeSeriesStore::zigzag(1), 2u);
}

// ---------------------------------------------------------------------------
// Reconstruction: counters, gauges, histograms
// ---------------------------------------------------------------------------

TEST(Tsdb, CounterRangeAndRateReconstruct) {
  Registry registry;
  Counter& c = registry.counter("hotc_test_reqs_total", "reqs");
  TimeSeriesStore tsdb(registry);

  // Varying per-tick increments so delta-of-delta is nontrivial.
  const std::uint64_t incs[] = {5, 5, 9, 0, 13, 13, 2};
  std::uint64_t cum = 0, tick = 0;
  for (const std::uint64_t inc : incs) {
    c.inc(inc);
    cum += inc;
    tsdb.sample(++tick);
  }
  EXPECT_EQ(tsdb.samples(), 7u);
  EXPECT_EQ(tsdb.last_tick(), 7u);

  const auto pts = tsdb.range("hotc_test_reqs_total", "");
  ASSERT_EQ(pts.size(), 7u);
  std::uint64_t expect_cum = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    expect_cum += incs[i];
    EXPECT_EQ(pts[i].tick, i + 1);
    EXPECT_DOUBLE_EQ(pts[i].value, static_cast<double>(expect_cum));
  }

  const auto deltas = tsdb.rate("hotc_test_reqs_total", "");
  ASSERT_EQ(deltas.size(), 7u);
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    EXPECT_DOUBLE_EQ(deltas[i].value, static_cast<double>(incs[i]));
  }

  // Window clipping is inclusive on both ends.
  const auto mid = tsdb.range("hotc_test_reqs_total", "", 3, 5);
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid.front().tick, 3u);
  EXPECT_EQ(mid.back().tick, 5u);
}

TEST(Tsdb, GaugeRangeTracksNonMonotoneValues) {
  Registry registry;
  Gauge& g = registry.gauge("hotc_test_depth", "depth");
  TimeSeriesStore tsdb(registry);

  const double vals[] = {0.0, 4.5, -2.25, 1e9, 3.0};
  std::uint64_t tick = 0;
  for (const double v : vals) {
    g.set(v);
    tsdb.sample(++tick);
  }
  const auto pts = tsdb.range("hotc_test_depth", "");
  ASSERT_EQ(pts.size(), 5u);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_DOUBLE_EQ(pts[i].value, vals[i]);
  }
}

TEST(Tsdb, LabelledSeriesStayDistinct) {
  Registry registry;
  Counter& a = registry.counter("hotc_test_keyed_total", "k", "key=\"1\"");
  Counter& b = registry.counter("hotc_test_keyed_total", "k", "key=\"2\"");
  TimeSeriesStore tsdb(registry);

  for (std::uint64_t t = 1; t <= 4; ++t) {
    a.inc(1);
    b.inc(10);
    tsdb.sample(t);
  }
  const auto pa = tsdb.range("hotc_test_keyed_total", "key=\"1\"");
  const auto pb = tsdb.range("hotc_test_keyed_total", "key=\"2\"");
  ASSERT_EQ(pa.size(), 4u);
  ASSERT_EQ(pb.size(), 4u);
  EXPECT_DOUBLE_EQ(pa.back().value, 4.0);
  EXPECT_DOUBLE_EQ(pb.back().value, 40.0);
  EXPECT_TRUE(tsdb.range("hotc_test_keyed_total", "key=\"3\"").empty());
}

/// "name|labels" of series `sid`, read from the dumped tables.
std::string series_text(const TimeSeriesStore& tsdb, std::size_t sid) {
  const auto* table = static_cast<const TimeSeriesStore::SeriesInfo*>(
      tsdb.series_region().data);
  const auto* names = static_cast<const char*>(tsdb.name_region().data);
  return std::string(names + table[sid].name_off, table[sid].name_len);
}

// Instruments registered between ticks that sort before existing ones
// must not move the existing series: ids stay, history keeps decoding,
// and the new series get ids in (name, labels) order.
TEST(Tsdb, SeriesIdsSurviveGrowthThatSortsFirst) {
  Registry registry;
  Counter& nine = registry.counter("hotc_test_key_total", "k", "key=\"9\"");
  TimeSeriesStore tsdb(registry);
  for (std::uint64_t t = 1; t <= 3; ++t) {
    nine.inc(t);
    tsdb.sample(t);
  }
  const std::size_t old_count = tsdb.series_count();
  std::vector<std::string> old_names;
  for (std::size_t sid = 0; sid < old_count; ++sid) {
    old_names.push_back(series_text(tsdb, sid));
  }

  Gauge& first = registry.gauge("hotc_aaa_depth", "a");
  Counter& ten = registry.counter("hotc_test_key_total", "k", "key=\"10\"");
  for (std::uint64_t t = 4; t <= 6; ++t) {
    nine.inc(t);
    ten.inc(10 * t);
    first.set(static_cast<double>(t) / 2.0);
    tsdb.sample(t);
  }

  ASSERT_EQ(tsdb.series_count(), old_count + 2);
  for (std::size_t sid = 0; sid < old_count; ++sid) {
    EXPECT_EQ(series_text(tsdb, sid), old_names[sid]);
  }
  EXPECT_EQ(series_text(tsdb, old_count), "hotc_aaa_depth|");
  EXPECT_EQ(series_text(tsdb, old_count + 1),
            "hotc_test_key_total|key=\"10\"");

  const auto p9 = tsdb.range("hotc_test_key_total", "key=\"9\"");
  ASSERT_EQ(p9.size(), 6u);
  double cum = 0.0;
  for (std::size_t i = 0; i < p9.size(); ++i) {
    cum += static_cast<double>(i + 1);
    EXPECT_EQ(p9[i].tick, i + 1);
    EXPECT_DOUBLE_EQ(p9[i].value, cum);
  }
  const auto p10 = tsdb.rate("hotc_test_key_total", "key=\"10\"");
  ASSERT_EQ(p10.size(), 3u);
  for (std::size_t i = 0; i < p10.size(); ++i) {
    EXPECT_EQ(p10[i].tick, i + 4);
    EXPECT_DOUBLE_EQ(p10[i].value, 10.0 * static_cast<double>(i + 4));
  }
  const auto pa = tsdb.range("hotc_aaa_depth", "");
  ASSERT_EQ(pa.size(), 3u);
  EXPECT_DOUBLE_EQ(pa.back().value, 3.0);
}

TEST(Tsdb, HistogramQuantilesOverWindow) {
  Registry registry;
  LogHistogram& h = registry.histogram("hotc_test_lat_ms", "lat");
  TimeSeriesStore tsdb(registry);

  // Ticks 1..3: ~10ms traffic; tick 4: a 500ms spike.
  for (std::uint64_t t = 1; t <= 3; ++t) {
    for (int i = 0; i < 100; ++i) h.observe(10.0);
    tsdb.sample(t);
  }
  for (int i = 0; i < 100; ++i) h.observe(500.0);
  tsdb.sample(4);

  const double p50_all = tsdb.quantile_over("hotc_test_lat_ms", "", 0.5, 4);
  EXPECT_GT(p50_all, 5.0);
  EXPECT_LT(p50_all, 50.0);
  const double p50_last = tsdb.quantile_over("hotc_test_lat_ms", "", 0.5, 1);
  EXPECT_GT(p50_last, 200.0);

  const auto series = tsdb.quantile_series("hotc_test_lat_ms", "", 0.5, 4);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_LT(series[0].value, 50.0);
  EXPECT_GT(series[3].value, 200.0);
}

// ---------------------------------------------------------------------------
// Retention / lapping
// ---------------------------------------------------------------------------

TEST(Tsdb, FrameCapacityEvictsOldestButKeepsReconstruction) {
  Registry registry;
  Counter& c = registry.counter("hotc_test_lap_total", "lap");
  TsdbOptions opt;
  opt.frame_capacity = 4;
  TimeSeriesStore tsdb(registry, opt);

  for (std::uint64_t t = 1; t <= 10; ++t) {
    c.inc(t);  // cumulative 1, 3, 6, 10, ... (triangular)
    tsdb.sample(t);
  }
  EXPECT_EQ(tsdb.frames(), 4u);
  EXPECT_GE(tsdb.frames_evicted(), 6u);

  const auto pts = tsdb.range("hotc_test_lap_total", "");
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts.front().tick, 7u);
  EXPECT_EQ(pts.back().tick, 10u);
  // Backward reconstruction across evicted history must still yield the
  // true cumulative values: sum(1..t) = t(t+1)/2.
  for (const auto& p : pts) {
    EXPECT_DOUBLE_EQ(p.value, static_cast<double>(p.tick * (p.tick + 1) / 2));
  }
}

TEST(Tsdb, ByteRingEvictsWhenPayloadBudgetFills) {
  Registry registry;
  // Many series so each frame has real payload.
  std::vector<Counter*> counters;
  for (int i = 0; i < 64; ++i) {
    counters.push_back(&registry.counter(
        "hotc_test_fat_total", "fat", "s=\"" + std::to_string(i) + "\""));
  }
  TsdbOptions opt;
  opt.ring_bytes = 2048;  // tiny payload budget
  opt.frame_capacity = 512;
  TimeSeriesStore tsdb(registry, opt);

  std::uint64_t state = 1;
  for (std::uint64_t t = 1; t <= 64; ++t) {
    for (Counter* c : counters) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      c->inc(state % 97);  // irregular deltas defeat dod compression
    }
    tsdb.sample(t);
  }
  EXPECT_GT(tsdb.frames_evicted(), 0u);
  EXPECT_LT(tsdb.frames(), 64u);
  // Retained window is a contiguous suffix ending at the last tick.
  const auto pts = tsdb.range("hotc_test_fat_total", "s=\"0\"");
  ASSERT_FALSE(pts.empty());
  EXPECT_EQ(pts.back().tick, 64u);
  EXPECT_EQ(pts.size(), static_cast<std::size_t>(tsdb.frames()));
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].tick, pts[i - 1].tick + 1);
  }
}

// ---------------------------------------------------------------------------
// Frame checksums
// ---------------------------------------------------------------------------

TEST(Tsdb, ChecksumIsFnv1a32) {
  const std::uint8_t payload[] = {'h', 'o', 't', 'c'};
  std::uint32_t expect = 2166136261u;
  for (const std::uint8_t b : payload) {
    expect ^= b;
    expect *= 16777619u;
  }
  EXPECT_EQ(TimeSeriesStore::checksum(payload, sizeof(payload)), expect);
  EXPECT_EQ(TimeSeriesStore::checksum(payload, 0), 2166136261u);
}

// ---------------------------------------------------------------------------
// Anomaly detector
// ---------------------------------------------------------------------------

TEST(TsdbAnomaly, RobustZscoreFlagsOutlier) {
  // Steady window of deltas ~100 with a little jitter.
  double window[16];
  for (int i = 0; i < 16; ++i) window[i] = 100.0 + (i % 3);
  double median = 0.0;
  const double z_step =
      TimeSeriesStore::robust_zscore(window, 16, 1000.0, &median);
  EXPECT_NEAR(median, 101.0, 1.0);
  EXPECT_GT(z_step, 6.0);
  const double z_calm = TimeSeriesStore::robust_zscore(window, 16, 101.0);
  EXPECT_LT(z_calm, 6.0);
}

struct AnomalyHarness {
  Registry registry;
  SloEngine slo;
  Counter& c;
  TimeSeriesStore tsdb;
  std::uint64_t tick = 0;

  AnomalyHarness()
      : slo(registry, default_slos()),
        c(registry.counter("hotc_test_traffic_total", "traffic")),
        tsdb(registry, TsdbOptions{}, &slo) {}

  void step(std::uint64_t inc) {
    c.inc(inc);
    tsdb.sample(++tick);
  }
};

TEST(TsdbAnomaly, QuietOnSteadyTraffic) {
  AnomalyHarness h;
  std::uint64_t state = 7;
  for (int t = 0; t < 60; ++t) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    h.step(100 + state % 11);  // 100..110 per tick
  }
  EXPECT_TRUE(h.tsdb.anomalies().empty());
  for (const auto& a : h.slo.alerts()) {
    EXPECT_NE(a.kind, AlertKind::kAnomaly);
  }
}

TEST(TsdbAnomaly, FiresOnStepAndMirrorsToSloRing) {
  AnomalyHarness h;
  for (int t = 0; t < 40; ++t) h.step(100 + t % 5);
  h.step(2000);  // 20x step at tick 41

  const auto events = h.tsdb.anomalies();
  ASSERT_FALSE(events.empty());
  const AnomalyEvent& ev = events.back();
  EXPECT_EQ(ev.tick, 41u);
  EXPECT_EQ(ev.series, "hotc_test_traffic_total");
  EXPECT_GE(ev.zscore, 6.0);
  EXPECT_NEAR(ev.delta, 2000.0, 0.5);

  bool mirrored = false;
  for (const auto& a : h.slo.alerts()) {
    if (a.kind == AlertKind::kAnomaly &&
        a.slo == "hotc_test_traffic_total") {
      mirrored = true;
      EXPECT_EQ(a.tick, 41u);
    }
  }
  EXPECT_TRUE(mirrored);
}

TEST(TsdbAnomaly, CooldownLimitsOnePagePerIncident) {
  AnomalyHarness h;
  for (int t = 0; t < 40; ++t) h.step(100);
  // A sustained step: without cooldown every post-step tick could page.
  for (int t = 0; t < 5; ++t) h.step(5000);
  const auto events = h.tsdb.anomalies();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.size(), 1u);
}

TEST(TsdbAnomaly, WarmupGuardSuppressesEarlyFires) {
  AnomalyHarness h;
  // Wild deltas inside the min_history warm-up must not page.
  h.step(1);
  h.step(100000);
  h.step(3);
  EXPECT_TRUE(h.tsdb.anomalies().empty());
}

// ---------------------------------------------------------------------------
// Series-table saturation is counted, not fatal
// ---------------------------------------------------------------------------

TEST(Tsdb, SeriesPastCapacityAreDroppedNotFatal) {
  Registry registry;
  // Well past the clamped table floor (max_series is clamped up to 16),
  // counting the store's own hotc_tsdb_* instruments.
  for (int i = 0; i < 32; ++i) {
    registry.counter("hotc_test_many_total", "m",
                     "i=\"" + std::to_string(i) + "\"");
  }
  TsdbOptions opt;
  opt.max_series = 4;  // clamped to 16
  TimeSeriesStore tsdb(registry, opt);
  tsdb.sample(1);
  tsdb.sample(2);
  EXPECT_EQ(tsdb.series_count(), 16u);
  EXPECT_EQ(tsdb.samples(), 2u);
  // The retained 16 still answer queries.
  EXPECT_FALSE(tsdb.range("hotc_test_many_total", "i=\"0\"").empty());
}

}  // namespace
}  // namespace hotc::obs
