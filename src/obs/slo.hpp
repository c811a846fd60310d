// Declarative SLOs evaluated by a multi-window burn-rate monitor.
//
// An SloSpec names an objective over instruments in the metrics Registry:
//   kRatio     bad_metric / total_metric (both counters) must stay below
//              `objective` — e.g. per-key cold-start ratio, respecialize
//              failure rate.  Every labelled instance of bad_metric is its
//              own series, paired with the same-labelled total_metric, so
//              one spec over hotc_key_cold_total tracks every runtime key.
//   kQuantile  histogram quantile (p99, p999, ...) must stay below
//              `objective` — e.g. end-to-end request latency.
//
// Each adaptive tick, SloEngine::evaluate() takes one Registry snapshot
// (the exporter's consistent cut) and appends the cumulative counts to a
// per-series ring.  A series is matched to its instruments by name once,
// when they are registered; later ticks read them by registration index.
// Burn rate is the windowed value over the objective —
// burn 1.0 exactly consumes the error budget, burn >= fire_factor means
// the budget drains fire_factor times too fast.  Two windows are kept:
//   fast  (default 5 ticks)   catches a current, ongoing violation;
//   slow  (default 60 ticks)  requires the violation to be sustained.
// An alert fires only when BOTH windows burn at >= fire_factor AND the
// series has at least `min_ticks` of history — the multi-window AND is
// the standard defence against paging on a blip, and the history floor
// keeps warm-up cold starts (100 % cold ratio on tick one, by design)
// from firing before the denominator means anything.
//
// Results are exported as hotc_slo_* gauges through the same Registry and
// mirrored in a bounded alert ring for hotc_top.  Engine state lives
// under LockRank::kObsDiagnosis — numerically below the registry band, so
// evaluate() may lazily register per-series gauges (band kObsRegistry)
// while holding its own lock.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "core/ranked_mutex.hpp"
#include "obs/metrics.hpp"

namespace hotc::obs {

enum class SloKind {
  kRatio,     // bad counter / total counter <= objective
  kQuantile,  // histogram quantile <= objective
};

struct SloSpec {
  std::string name;  // short slug, becomes the slo="..." label
  SloKind kind = SloKind::kRatio;
  // --- kRatio ------------------------------------------------------------
  std::string bad_metric;    // counter family of budget-burning events
  std::string total_metric;  // counter family of all events (same labels)
  // --- kQuantile ---------------------------------------------------------
  std::string histogram;   // histogram family to take the quantile of
  double quantile = 0.99;  // in (0, 1)
  // --- objective ---------------------------------------------------------
  double objective = 0.05;   // max ratio, or max quantile value
  double fire_factor = 2.0;  // alert when both windows burn >= this
};

struct SloEngineOptions {
  std::size_t fast_window = 5;   // ticks
  std::size_t slow_window = 60;  // ticks
  /// Minimum evaluated ticks before a series may fire (warm-up guard).
  std::size_t min_ticks = 15;
  /// Alert-ring capacity (oldest alerts are dropped first).
  std::size_t alert_capacity = 256;
};

/// One series' state at the last evaluate(): what hotc_top renders.
struct SloStatus {
  std::string slo;     // spec name
  std::string labels;  // underlying instrument labels ("" = unlabelled)
  double value = 0.0;  // windowed ratio / quantile over the fast window
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  bool firing = false;
  std::uint64_t ticks = 0;  // evaluations this series has seen
};

/// What put an alert in the ring: a burn-rate trip of a declared SLO, or
/// a metric anomaly raised by the TimeSeriesStore's MAD/z-score detector
/// (obs/tsdb.hpp) — same ring, so hotc_top and the post-mortem decoder
/// render one unified alert timeline.
enum class AlertKind : std::uint8_t { kBurnRate, kAnomaly };

struct SloAlert {
  std::uint64_t tick = 0;
  std::string slo;  // spec name, or the anomalous metric family
  std::string labels;
  double fast_burn = 0.0;  // kAnomaly: the robust z-score
  double slow_burn = 0.0;  // kAnomaly: the offending per-tick delta
  AlertKind kind = AlertKind::kBurnRate;
};

class SloEngine {
 public:
  SloEngine(Registry& registry, std::vector<SloSpec> specs,
            SloEngineOptions options = {});

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Evaluate every spec against one consistent Registry snapshot.
  /// Called once per adaptive tick with that tick's ordinal.
  void evaluate(std::uint64_t tick);

  /// As evaluate(), over a snapshot the caller already took (lets a tool
  /// evaluate and render from the exact same cut).  The snapshot must be
  /// of this engine's registry and no older than the last one evaluated:
  /// series are bound to MetricSample::index when they first appear.
  void evaluate_snapshot(std::uint64_t tick, const RegistrySnapshot& snap);

  /// Push an anomaly-detector finding into the alert ring (counts toward
  /// alerts_fired()).  Called by TimeSeriesStore while holding its own
  /// kObsTsdb lock — legal, because kObsTsdb < kObsDiagnosis.
  void raise_anomaly(std::uint64_t tick, const std::string& series,
                     const std::string& labels, double zscore, double delta);

  [[nodiscard]] std::vector<SloStatus> status() const;
  [[nodiscard]] std::vector<SloAlert> alerts() const;
  [[nodiscard]] std::uint64_t alerts_fired() const;
  [[nodiscard]] const std::vector<SloSpec>& specs() const { return specs_; }

 private:
  struct Sample {  // one tick's cumulative reading for one series
    double bad = 0.0;
    double total = 0.0;
    HistogramSnapshot hist;  // kQuantile only
  };

  struct Series {
    std::deque<Sample> ring;  // newest at back; slow_window + 1 entries
    std::uint64_t ticks = 0;
    SloStatus last;
    Gauge* value_gauge = nullptr;
    Gauge* fast_gauge = nullptr;
    Gauge* slow_gauge = nullptr;
    Gauge* firing_gauge = nullptr;
  };

  /// One series a spec evaluates, bound to its instruments' registration
  /// indices the first time a snapshot carries them.
  static constexpr std::uint32_t kNoIndex = ~std::uint32_t{0};
  struct Binding {
    std::uint32_t value = 0;         // the bad counter, or the histogram
    std::uint32_t total = kNoIndex;  // kRatio: same-labelled total metric
    Series* series = nullptr;
  };

  /// Match the instruments with an index of `known` or above, those new
  /// since the last snapshot evaluated, against every spec, and bind the
  /// series they start or complete.
  void bind_new(const RegistrySnapshot& snap, std::size_t known)
      HOTC_REQUIRES(mu_);
  void evaluate_series(std::uint64_t tick, const SloSpec& spec,
                       Series& series, Sample current) HOTC_REQUIRES(mu_);
  [[nodiscard]] static double windowed_value(const SloSpec& spec,
                                             const std::deque<Sample>& ring,
                                             std::size_t window);

  Registry& registry_;
  std::vector<SloSpec> specs_;
  SloEngineOptions options_;
  Counter& alerts_total_;

  mutable RankedMutex mu_{LockRank::kObsDiagnosis, 0, "obs.slo"};
  std::map<std::pair<std::size_t, std::string>, Series> series_
      HOTC_GUARDED_BY(mu_);
  /// Per spec, ordered by the instruments' labels: the order in which the
  /// spec's instruments appear in a snapshot.
  std::vector<std::vector<Binding>> bindings_ HOTC_GUARDED_BY(mu_);
  /// Registration index -> position in the last snapshot evaluated; its
  /// size is the number of instruments already matched against the specs.
  std::vector<std::uint32_t> position_ HOTC_GUARDED_BY(mu_);
  std::deque<SloAlert> alert_ring_ HOTC_GUARDED_BY(mu_);
};

/// The stock HotC objectives (ISSUE 5): per-key cold-start ratio,
/// end-to-end latency p99/p999, respecialize-failure rate, and (ISSUE 8)
/// flight-recorder span-drop ratio — sustained drops mean the ring is
/// lapping faster than diagnosis reads it, i.e. the recent past the
/// post-mortem tools rely on is incomplete.
[[nodiscard]] std::vector<SloSpec> default_slos(
    double cold_ratio_objective = 0.05, double p99_ms = 250.0,
    double p999_ms = 1000.0, double respec_reject_objective = 0.5,
    double trace_drop_objective = 0.01);

}  // namespace hotc::obs
