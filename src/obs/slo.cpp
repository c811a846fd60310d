#include "obs/slo.hpp"

#include <algorithm>
#include <mutex>
#include <tuple>

#include "core/assert.hpp"

namespace hotc::obs {

namespace {

std::string series_labels(const std::string& slo, const std::string& labels) {
  std::string out = "slo=\"" + slo + "\"";
  if (!labels.empty()) out += "," + labels;
  return out;
}

}  // namespace

SloEngine::SloEngine(Registry& registry, std::vector<SloSpec> specs,
                     SloEngineOptions options)
    : registry_(registry),
      specs_(std::move(specs)),
      options_(options),
      alerts_total_(registry.counter(
          "hotc_slo_alerts_total",
          "Burn-rate alerts fired (fast AND slow window over budget)")),
      bindings_(specs_.size()) {}

void SloEngine::evaluate(std::uint64_t tick) {
  evaluate_snapshot(tick, registry_.snapshot());
}

void SloEngine::evaluate_snapshot(std::uint64_t tick,
                                  const RegistrySnapshot& snap) {
  const RankedGuard lock(mu_);
  const std::size_t known = position_.size();
  HOTC_ASSERT_MSG(snap.size() >= known,
                  "SLO snapshot is older than the last one evaluated");
  if (snap.size() != known) {
    // The registry grew: new instruments may sort anywhere, so every
    // position moves; only the new instruments are matched by name.
    position_.resize(snap.size());
    for (std::size_t p = 0; p < snap.size(); ++p) {
      position_[snap[p].index] = static_cast<std::uint32_t>(p);
    }
    bind_new(snap, known);
  }
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    for (const Binding& b : bindings_[i]) {
      const MetricSample& s = snap[position_[b.value]];
      Sample cur;
      if (spec.kind == SloKind::kRatio) {
        cur.bad = s.value;
        cur.total =
            b.total != kNoIndex ? snap[position_[b.total]].value : 0.0;
      } else {
        cur.hist = s.histogram;
      }
      evaluate_series(tick, spec, *b.series, std::move(cur));
    }
  }
}

void SloEngine::bind_new(const RegistrySnapshot& snap, std::size_t known) {
  std::vector<const MetricSample*> fresh;
  for (const MetricSample& s : snap) {
    if (s.index >= known) fresh.push_back(&s);
  }
  const auto labels_less = [](const Binding& b, const std::string& labels) {
    return b.series->last.labels < labels;
  };
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    std::vector<Binding>& bound = bindings_[i];
    for (const MetricSample* s : fresh) {
      const auto at = std::lower_bound(bound.begin(), bound.end(), s->labels,
                                       labels_less);
      if (spec.kind == SloKind::kRatio) {
        // A total registered after its bad counter completes that series.
        if (s->name == spec.total_metric && at != bound.end() &&
            at->series->last.labels == s->labels && at->total == kNoIndex) {
          at->total = s->index;
        }
        if (s->name != spec.bad_metric) continue;
      } else if (s->name != spec.histogram ||
                 s->kind != MetricKind::kHistogram) {
        continue;
      }
      Binding b;
      b.value = s->index;
      if (spec.kind == SloKind::kRatio) {
        // The snapshot is sorted by (name, labels).
        const auto tot = std::lower_bound(
            snap.begin(), snap.end(), std::tie(spec.total_metric, s->labels),
            [](const MetricSample& m, const auto& key) {
              return std::tie(m.name, m.labels) < key;
            });
        if (tot != snap.end() && tot->name == spec.total_metric &&
            tot->labels == s->labels) {
          b.total = tot->index;
        }
      }
      Series& series = series_[{i, s->labels}];
      series.last.slo = spec.name;
      series.last.labels = s->labels;
      // Registration while holding mu_ is legal: kObsDiagnosis sits below
      // kObsRegistry in the lock order.
      const std::string base = series_labels(spec.name, s->labels);
      series.value_gauge = &registry_.gauge(
          "hotc_slo_value", "Windowed SLO value (ratio or quantile)", base);
      series.fast_gauge =
          &registry_.gauge("hotc_slo_burn_rate", "Error-budget burn rate",
                           base + ",window=\"fast\"");
      series.slow_gauge =
          &registry_.gauge("hotc_slo_burn_rate", "Error-budget burn rate",
                           base + ",window=\"slow\"");
      series.firing_gauge = &registry_.gauge(
          "hotc_slo_firing", "1 while the burn-rate alert condition holds",
          base);
      b.series = &series;
      bound.insert(at, b);
    }
  }
}

double SloEngine::windowed_value(const SloSpec& spec,
                                 const std::deque<Sample>& ring,
                                 std::size_t window) {
  // Delta between the newest cumulative reading and the one `window`
  // ticks back (clamped to the oldest available — partially-filled
  // windows still burn, just over a shorter horizon).
  const std::size_t span = std::min(window, ring.size() - 1);
  const Sample& now = ring.back();
  const Sample& then = ring[ring.size() - 1 - span];
  if (spec.kind == SloKind::kRatio) {
    const double total = now.total - then.total;
    if (total <= 0.0) return 0.0;  // no events: no budget burned
    return std::max(0.0, now.bad - then.bad) / total;
  }
  // Quantile over the window: subtract cumulative bucket counts, then
  // answer from the delta histogram.
  HistogramSnapshot delta;
  delta.counts.resize(now.hist.counts.size());
  for (std::size_t b = 0; b < delta.counts.size(); ++b) {
    const std::uint64_t before =
        b < then.hist.counts.size() ? then.hist.counts[b] : 0;
    delta.counts[b] = now.hist.counts[b] - before;
  }
  delta.underflow = now.hist.underflow - then.hist.underflow;
  delta.overflow = now.hist.overflow - then.hist.overflow;
  delta.total = now.hist.total - then.hist.total;
  delta.sum = now.hist.sum - then.hist.sum;
  if (delta.total == 0) return 0.0;
  return delta.quantile(spec.quantile);
}

void SloEngine::evaluate_series(std::uint64_t tick, const SloSpec& spec,
                                Series& series, Sample current) {
  series.ring.push_back(std::move(current));
  while (series.ring.size() > options_.slow_window + 1) {
    series.ring.pop_front();
  }
  ++series.ticks;

  double value = 0.0;
  double fast = 0.0;
  double slow = 0.0;
  if (series.ring.size() >= 2 && spec.objective > 0.0) {
    value = windowed_value(spec, series.ring, options_.fast_window);
    fast = value / spec.objective;
    slow = windowed_value(spec, series.ring, options_.slow_window) /
           spec.objective;
  }
  const bool was_firing = series.last.firing;
  const bool firing = series.ticks >= options_.min_ticks &&
                      fast >= spec.fire_factor && slow >= spec.fire_factor;

  series.last.value = value;
  series.last.fast_burn = fast;
  series.last.slow_burn = slow;
  series.last.firing = firing;
  series.last.ticks = series.ticks;

  series.value_gauge->set(value);
  series.fast_gauge->set(fast);
  series.slow_gauge->set(slow);
  series.firing_gauge->set(firing ? 1.0 : 0.0);

  // Alert on the firing *edge* only — a sustained violation is one page,
  // not one per tick.
  if (firing && !was_firing) {
    alerts_total_.inc();
    alert_ring_.push_back(
        SloAlert{tick, spec.name, series.last.labels, fast, slow});
    while (alert_ring_.size() > options_.alert_capacity) {
      alert_ring_.pop_front();
    }
  }
}

void SloEngine::raise_anomaly(std::uint64_t tick, const std::string& series,
                              const std::string& labels, double zscore,
                              double delta) {
  const RankedGuard lock(mu_);
  alerts_total_.inc();
  alert_ring_.push_back(
      SloAlert{tick, series, labels, zscore, delta, AlertKind::kAnomaly});
  while (alert_ring_.size() > options_.alert_capacity) {
    alert_ring_.pop_front();
  }
}

std::vector<SloStatus> SloEngine::status() const {
  const RankedGuard lock(mu_);
  std::vector<SloStatus> out;
  out.reserve(series_.size());
  for (const auto& [key, series] : series_) out.push_back(series.last);
  return out;
}

std::vector<SloAlert> SloEngine::alerts() const {
  const RankedGuard lock(mu_);
  return {alert_ring_.begin(), alert_ring_.end()};
}

std::uint64_t SloEngine::alerts_fired() const {
  return alerts_total_.value();
}

std::vector<SloSpec> default_slos(double cold_ratio_objective, double p99_ms,
                                  double p999_ms,
                                  double respec_reject_objective,
                                  double trace_drop_objective) {
  std::vector<SloSpec> specs;
  {
    SloSpec s;
    s.name = "cold_start_ratio";
    s.kind = SloKind::kRatio;
    s.bad_metric = "hotc_key_cold_total";
    s.total_metric = "hotc_key_requests_total";
    s.objective = cold_ratio_objective;
    specs.push_back(std::move(s));
  }
  {
    SloSpec s;
    s.name = "latency_p99";
    s.kind = SloKind::kQuantile;
    s.histogram = "hotc_request_duration_ms";
    s.quantile = 0.99;
    s.objective = p99_ms;
    specs.push_back(std::move(s));
  }
  {
    SloSpec s;
    s.name = "latency_p999";
    s.kind = SloKind::kQuantile;
    s.histogram = "hotc_request_duration_ms";
    s.quantile = 0.999;
    s.objective = p999_ms;
    specs.push_back(std::move(s));
  }
  {
    SloSpec s;
    s.name = "respec_reject_ratio";
    s.kind = SloKind::kRatio;
    s.bad_metric = "hotc_share_respec_rejected_total";
    s.total_metric = "hotc_share_donor_lookups_total";
    s.objective = respec_reject_objective;
    specs.push_back(std::move(s));
  }
  {
    SloSpec s;
    s.name = "trace_drop_ratio";
    s.kind = SloKind::kRatio;
    s.bad_metric = "hotc_trace_dropped_total";
    s.total_metric = "hotc_trace_recorded_total";
    s.objective = trace_drop_objective;
    specs.push_back(std::move(s));
  }
  return specs;
}

}  // namespace hotc::obs
