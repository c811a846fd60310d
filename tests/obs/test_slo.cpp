#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace hotc::obs {
namespace {

SloSpec ratio_spec(double objective = 0.1, double fire_factor = 2.0) {
  SloSpec s;
  s.name = "err_ratio";
  s.kind = SloKind::kRatio;
  s.bad_metric = "hotc_test_bad_total";
  s.total_metric = "hotc_test_all_total";
  s.objective = objective;
  s.fire_factor = fire_factor;
  return s;
}

SloSpec quantile_spec(double q, double objective_ms) {
  SloSpec s;
  s.name = "lat_q";
  s.kind = SloKind::kQuantile;
  s.histogram = "hotc_test_latency_ms";
  s.quantile = q;
  s.objective = objective_ms;
  return s;
}

/// Harness owning a registry + engine with small, test-friendly windows.
struct SloHarness {
  Registry registry;
  Counter& bad;
  Counter& all;
  SloEngine engine;
  std::uint64_t tick = 0;

  explicit SloHarness(SloSpec spec, SloEngineOptions opt)
      : bad(registry.counter("hotc_test_bad_total", "bad")),
        all(registry.counter("hotc_test_all_total", "all")),
        engine(registry, {std::move(spec)}, opt) {}

  /// One evaluated tick after adding `b` bad of `t` total events.
  SloStatus step(std::uint64_t b, std::uint64_t t) {
    bad.inc(b);
    all.inc(t);
    engine.evaluate(++tick);
    const auto statuses = engine.status();
    EXPECT_EQ(statuses.size(), 1u);
    return statuses.empty() ? SloStatus{} : statuses[0];
  }
};

SloEngineOptions small_windows() {
  SloEngineOptions opt;
  opt.fast_window = 3;
  opt.slow_window = 6;
  opt.min_ticks = 2;
  return opt;
}

TEST(SloEngine, RatioIsWindowedDeltaNotLifetime) {
  SloHarness h(ratio_spec(/*objective=*/0.1), small_windows());
  // A terrible first tick (warm-up cold starts) ...
  h.step(10, 10);
  // ... followed by clean traffic.  Lifetime ratio stays poisoned at
  // ~10/110, the fast-window ratio must fall to exactly 0.
  SloStatus last;
  for (int i = 0; i < 4; ++i) last = h.step(0, 25);
  EXPECT_DOUBLE_EQ(last.value, 0.0);
  EXPECT_DOUBLE_EQ(last.fast_burn, 0.0);
}

TEST(SloEngine, BurnRateIsValueOverObjective) {
  SloHarness h(ratio_spec(/*objective=*/0.1), small_windows());
  // Constant 20 % bad: windowed value 0.2, burn 0.2/0.1 = 2.
  SloStatus last;
  for (int i = 0; i < 8; ++i) last = h.step(2, 10);
  EXPECT_DOUBLE_EQ(last.value, 0.2);
  EXPECT_DOUBLE_EQ(last.fast_burn, 2.0);
  EXPECT_DOUBLE_EQ(last.slow_burn, 2.0);
}

TEST(SloEngine, FastWindowReactsBeforeSlowWindow) {
  SloHarness h(ratio_spec(0.1), small_windows());
  for (int i = 0; i < 7; ++i) h.step(0, 10);  // clean history
  // Violation starts: after 3 bad ticks the fast window (3) is fully
  // inside the violation, the slow window (6) still dilutes it.
  SloStatus last;
  for (int i = 0; i < 3; ++i) last = h.step(5, 10);
  EXPECT_DOUBLE_EQ(last.fast_burn, 5.0);  // 0.5 / 0.1
  EXPECT_LT(last.slow_burn, last.fast_burn);
  EXPECT_GT(last.slow_burn, 0.0);
}

TEST(SloEngine, AlertNeedsBothWindowsOverFireFactor) {
  SloHarness h(ratio_spec(0.1, /*fire_factor=*/2.0), small_windows());
  for (int i = 0; i < 7; ++i) h.step(0, 10);
  // Three violating ticks: fast burn 5.0 >= 2, slow burn 0.5*3/6/0.1 =
  // 2.5 >= 2 only on the third — no alert before both agree.
  h.step(5, 10);
  EXPECT_EQ(h.engine.alerts_fired(), 0u);
  h.step(5, 10);
  const auto mid = h.engine.status()[0];
  // A fast-only violation never fires.
  if (mid.slow_burn < 2.0) EXPECT_EQ(h.engine.alerts_fired(), 0u);
  SloStatus last = h.step(5, 10);
  EXPECT_TRUE(last.firing);
  EXPECT_EQ(h.engine.alerts_fired(), 1u);
}

TEST(SloEngine, MinTicksGuardsWarmup) {
  SloEngineOptions opt = small_windows();
  opt.min_ticks = 5;
  SloHarness h(ratio_spec(0.1), opt);
  // 100 % bad from tick one: burn is enormous immediately, but nothing
  // may fire before the series has min_ticks of history.
  for (int i = 0; i < 4; ++i) {
    const auto s = h.step(10, 10);
    EXPECT_FALSE(s.firing) << "fired at tick " << s.ticks;
  }
  const auto s = h.step(10, 10);
  EXPECT_TRUE(s.firing);
  EXPECT_EQ(h.engine.alerts_fired(), 1u);
}

TEST(SloEngine, AlertsAreEdgeTriggeredNotPerTick) {
  SloHarness h(ratio_spec(0.1), small_windows());
  for (int i = 0; i < 10; ++i) h.step(5, 10);  // sustained violation
  EXPECT_EQ(h.engine.alerts_fired(), 1u);      // one page, not eight
  // Recover fully (both windows drain), then violate again: second edge.
  for (int i = 0; i < 8; ++i) h.step(0, 10);
  EXPECT_FALSE(h.engine.status()[0].firing);
  for (int i = 0; i < 8; ++i) h.step(5, 10);
  EXPECT_EQ(h.engine.alerts_fired(), 2u);
  const auto alerts = h.engine.alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].slo, "err_ratio");
  EXPECT_LT(alerts[0].tick, alerts[1].tick);
}

TEST(SloEngine, NoTrafficBurnsNothing) {
  SloHarness h(ratio_spec(0.1), small_windows());
  for (int i = 0; i < 5; ++i) h.step(3, 10);
  // Traffic stops entirely: zero denominator in the window must read as
  // "no budget burned", not NaN or a stale violation.
  SloStatus last;
  for (int i = 0; i < 5; ++i) last = h.step(0, 0);
  EXPECT_DOUBLE_EQ(last.value, 0.0);
  EXPECT_FALSE(last.firing);
}

TEST(SloEngine, LabelledSeriesTrackIndependently) {
  Registry registry;
  Counter& bad_a =
      registry.counter("hotc_test_bad_total", "bad", "key=\"a\"");
  Counter& all_a =
      registry.counter("hotc_test_all_total", "all", "key=\"a\"");
  Counter& bad_b =
      registry.counter("hotc_test_bad_total", "bad", "key=\"b\"");
  Counter& all_b =
      registry.counter("hotc_test_all_total", "all", "key=\"b\"");
  SloEngine engine(registry, {ratio_spec(0.1)}, small_windows());

  for (std::uint64_t t = 1; t <= 6; ++t) {
    bad_a.inc(5);
    all_a.inc(10);  // key a: burning hard
    bad_b.inc(0);
    all_b.inc(10);  // key b: clean
    engine.evaluate(t);
  }
  const auto statuses = engine.status();
  ASSERT_EQ(statuses.size(), 2u);
  bool saw_a = false;
  bool saw_b = false;
  for (const auto& s : statuses) {
    if (s.labels == "key=\"a\"") {
      saw_a = true;
      EXPECT_TRUE(s.firing);
    }
    if (s.labels == "key=\"b\"") {
      saw_b = true;
      EXPECT_FALSE(s.firing);
      EXPECT_DOUBLE_EQ(s.value, 0.0);
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

// A per-key ratio series keeps its ring when the registry grows with
// instruments that sort before it, and a key whose counters appear
// between ticks is evaluated from that tick on — including a key whose
// total counter is registered a tick after its bad counter.
TEST(SloEngine, SeriesSurviveRegistryGrowthAndNewKeysJoinAtOnce) {
  Registry registry;
  Counter& bad9 = registry.counter("hotc_test_bad_total", "bad", "key=\"9\"");
  Counter& all9 = registry.counter("hotc_test_all_total", "all", "key=\"9\"");
  SloEngine engine(registry, {ratio_spec(0.1)}, small_windows());
  const auto status_of = [&](const std::string& labels) {
    for (const SloStatus& s : engine.status()) {
      if (s.labels == labels) return s;
    }
    return SloStatus{};
  };

  // Ticks 1-3: key 9 clean.
  for (std::uint64_t t = 1; t <= 3; ++t) {
    all9.inc(10);
    engine.evaluate(t);
  }
  // Tick 4: key 10 appears (sorting first), with an unrelated instrument;
  // key 9 turns bad.
  Counter& bad10 =
      registry.counter("hotc_test_bad_total", "bad", "key=\"10\"");
  Counter& all10 =
      registry.counter("hotc_test_all_total", "all", "key=\"10\"");
  registry.gauge("hotc_aaa_unrelated", "u").set(1.0);
  bad9.inc(5);
  all9.inc(10);
  bad10.inc(1);
  all10.inc(4);
  engine.evaluate(4);

  SloStatus s9 = status_of("key=\"9\"");
  EXPECT_EQ(s9.ticks, 4u);
  // Fast window (3 ticks) spans the growth: 5 bad of 30.
  EXPECT_DOUBLE_EQ(s9.value, 5.0 / 30.0);
  SloStatus s10 = status_of("key=\"10\"");
  EXPECT_EQ(s10.slo, "err_ratio");
  EXPECT_EQ(s10.ticks, 1u);
  EXPECT_DOUBLE_EQ(s10.value, 0.0);  // one reading: no window yet

  // Tick 5: key 11's bad counter appears alone; tick 6 brings its total.
  Counter& bad11 =
      registry.counter("hotc_test_bad_total", "bad", "key=\"11\"");
  bad11.inc(2);
  all10.inc(4);
  bad10.inc(1);
  engine.evaluate(5);
  EXPECT_EQ(status_of("key=\"11\"").ticks, 1u);
  EXPECT_DOUBLE_EQ(status_of("key=\"10\"").value, 1.0 / 4.0);

  Counter& all11 =
      registry.counter("hotc_test_all_total", "all", "key=\"11\"");
  all11.inc(8);
  bad11.inc(2);
  engine.evaluate(6);
  const SloStatus s11 = status_of("key=\"11\"");
  EXPECT_EQ(s11.ticks, 2u);
  EXPECT_DOUBLE_EQ(s11.value, 2.0 / 8.0);

  s9 = status_of("key=\"9\"");
  EXPECT_EQ(s9.ticks, 6u);
  EXPECT_EQ(engine.status().size(), 3u);
}

TEST(SloEngine, QuantileSpecAnswersFromWindowDelta) {
  Registry registry;
  LogHistogram& hist =
      registry.histogram("hotc_test_latency_ms", "latency");
  SloEngine engine(registry, {quantile_spec(0.99, /*objective=*/100.0)},
                   small_windows());

  std::uint64_t tick = 0;
  // Old regime: slow requests (~400 ms).
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 100; ++i) hist.observe(400.0);
    engine.evaluate(++tick);
  }
  // New regime: fast requests.  After fast_window ticks the windowed
  // delta histogram contains only fast samples — the old 400 ms mass is
  // cumulative history, not current burn.
  SloStatus last;
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 100; ++i) hist.observe(10.0);
    engine.evaluate(++tick);
    last = engine.status()[0];
  }
  EXPECT_LT(last.value, 20.0);
  EXPECT_LT(last.fast_burn, 1.0);
}

TEST(SloEngine, EvaluateSnapshotUsesTheGivenCut) {
  Registry registry;
  Counter& bad = registry.counter("hotc_test_bad_total", "bad");
  Counter& all = registry.counter("hotc_test_all_total", "all");
  SloEngine engine(registry, {ratio_spec(0.1)}, small_windows());

  bad.inc(2);
  all.inc(10);
  const RegistrySnapshot cut = registry.snapshot();
  // Mutations after the cut must not leak into this evaluation.
  bad.inc(1000);
  all.inc(1000);
  engine.evaluate_snapshot(1, cut);
  engine.evaluate_snapshot(2, cut);  // same cut again: zero delta
  const auto s = engine.status()[0];
  EXPECT_DOUBLE_EQ(s.value, 0.0);  // no events between identical cuts
  EXPECT_EQ(s.ticks, 2u);
}

TEST(SloEngine, ExportsSloGauges) {
  SloHarness h(ratio_spec(0.1), small_windows());
  for (int i = 0; i < 4; ++i) h.step(2, 10);
  bool saw_value = false;
  bool saw_fast = false;
  bool saw_slow = false;
  bool saw_firing = false;
  for (const auto& s : h.registry.snapshot()) {
    if (s.name == "hotc_slo_value" &&
        s.labels.find("slo=\"err_ratio\"") != std::string::npos) {
      saw_value = true;
      EXPECT_DOUBLE_EQ(s.value, 0.2);
    }
    if (s.name == "hotc_slo_burn_rate") {
      if (s.labels.find("window=\"fast\"") != std::string::npos)
        saw_fast = true;
      if (s.labels.find("window=\"slow\"") != std::string::npos)
        saw_slow = true;
    }
    if (s.name == "hotc_slo_firing") saw_firing = true;
  }
  EXPECT_TRUE(saw_value);
  EXPECT_TRUE(saw_fast);
  EXPECT_TRUE(saw_slow);
  EXPECT_TRUE(saw_firing);
}

TEST(SloEngine, AlertRingIsBounded) {
  SloEngineOptions opt = small_windows();
  opt.alert_capacity = 3;
  SloHarness h(ratio_spec(0.1), opt);
  // Flap the violation to fire many edge alerts.
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (int i = 0; i < 8; ++i) h.step(5, 10);
    for (int i = 0; i < 8; ++i) h.step(0, 10);
  }
  EXPECT_EQ(h.engine.alerts_fired(), 6u);
  const auto ring = h.engine.alerts();
  ASSERT_EQ(ring.size(), 3u);  // oldest three dropped
  EXPECT_LT(ring[0].tick, ring[1].tick);
  EXPECT_LT(ring[1].tick, ring[2].tick);
}

TEST(SloEngine, DefaultSlosCoverTheStockObjectives) {
  const auto specs = default_slos();
  ASSERT_EQ(specs.size(), 5u);
  bool cold = false;
  bool p99 = false;
  bool p999 = false;
  bool respec = false;
  bool trace = false;
  for (const auto& s : specs) {
    if (s.name == "cold_start_ratio") {
      cold = true;
      EXPECT_EQ(s.kind, SloKind::kRatio);
      EXPECT_EQ(s.bad_metric, "hotc_key_cold_total");
      EXPECT_EQ(s.total_metric, "hotc_key_requests_total");
    }
    if (s.name == "latency_p99") {
      p99 = true;
      EXPECT_EQ(s.kind, SloKind::kQuantile);
      EXPECT_DOUBLE_EQ(s.quantile, 0.99);
    }
    if (s.name == "latency_p999") p999 = true;
    if (s.name == "respec_reject_ratio") respec = true;
    if (s.name == "trace_drop_ratio") {
      trace = true;
      EXPECT_EQ(s.kind, SloKind::kRatio);
      EXPECT_EQ(s.bad_metric, "hotc_trace_dropped_total");
      EXPECT_EQ(s.total_metric, "hotc_trace_recorded_total");
      EXPECT_DOUBLE_EQ(s.objective, 0.01);
    }
  }
  EXPECT_TRUE(cold && p99 && p999 && respec && trace);
}

}  // namespace
}  // namespace hotc::obs
