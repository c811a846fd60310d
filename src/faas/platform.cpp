#include "faas/platform.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "core/assert.hpp"

namespace hotc::faas {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kColdAlways: return "cold-always";
    case PolicyKind::kKeepAlive: return "keep-alive";
    case PolicyKind::kHotC: return "hotc";
    case PolicyKind::kPeriodicWarmup: return "periodic-warmup";
  }
  return "?";
}

FaasPlatform::FaasPlatform(PlatformOptions options)
    : options_(std::move(options)), engine_(sim_, options_.host) {
  if (options_.registry != nullptr) {
    options_.hotc.registry = options_.registry;
    // Non-HotC policies never construct a controller, so attach the
    // engine here; for kHotC the controller re-attaches the same
    // instruments (find-or-create is idempotent).
    engine_.attach_metrics(*options_.registry);
  }
  if (options_.tracer != nullptr) {
    options_.hotc.tracer = options_.tracer;
    options_.gateway.tracer = options_.tracer;
  }
  switch (options_.policy) {
    case PolicyKind::kColdAlways:
      backend_ = std::make_unique<ColdStartBackend>(engine_);
      break;
    case PolicyKind::kKeepAlive:
      backend_ = std::make_unique<KeepAliveBackend>(engine_,
                                                    options_.keep_alive);
      break;
    case PolicyKind::kHotC:
      backend_ = std::make_unique<HotCBackend>(engine_, options_.hotc);
      break;
    case PolicyKind::kPeriodicWarmup:
      backend_ = std::make_unique<PeriodicWarmupBackend>(
          engine_, options_.warmup_period, options_.keep_alive);
      break;
  }
  gateway_ = std::make_unique<Gateway>(sim_, *backend_, options_.gateway);
  if (options_.monitor_period.has_value()) {
    monitor_ = std::make_unique<engine::ResourceMonitor>(
        sim_, engine_, *options_.monitor_period);
  }
}

HotCController* FaasPlatform::hotc_controller() {
  auto* hotc_backend = dynamic_cast<HotCBackend*>(backend_.get());
  return hotc_backend != nullptr ? &hotc_backend->controller() : nullptr;
}

void FaasPlatform::Replay::schedule(std::size_t k) {
  const std::size_t i = order.empty() ? k : order[k];
  platform->sim_.at_reserved((*arrivals)[i].at, first_seq + i,
                             [this, k]() { fire(k); });
}

void FaasPlatform::Replay::fire(std::size_t k) {
  if (k + 1 < arrivals->size()) schedule(k + 1);
  const std::size_t i = order.empty() ? k : order[k];
  const workload::Arrival& arrival = (*arrivals)[i];
  const auto& entry = mix->at(arrival.config_index);
  // Request ids follow list order (arrival i is request i + 1), whatever
  // the firing order.
  platform->gateway_->submit(
      i + 1, arrival.config_index, entry.spec, entry.app,
      [this](Result<CompletedRequest> done) { complete(std::move(done)); });
}

void FaasPlatform::Replay::complete(Result<CompletedRequest> done) {
  if (!done.ok()) {
    ++platform->failures_;
    return;
  }
  const CompletedRequest& rec = done.value();
  metrics::LatencyPoint p;
  p.request_id = rec.id;
  p.arrival = rec.submitted;
  p.latency = rec.total();
  p.cold = rec.cold;
  p.config_index = rec.config_index;
  if (duration_hist != nullptr) {
    duration_hist->observe(to_milliseconds(p.latency), p.request_id);
  }
  recorder->add(p);
}

metrics::LatencyRecorder FaasPlatform::run(
    const workload::ArrivalList& arrivals, const workload::ConfigMix& mix) {
  HOTC_ASSERT_MSG(!ran_, "FaasPlatform::run may be called only once");
  ran_ = true;
  metrics::LatencyRecorder recorder;
  if (arrivals.empty()) return recorder;

  // End-to-end latency distribution, with the request id as exemplar:
  // the SLO engine takes its p99/p999 from this family, and hotc_top can
  // resolve an over-budget bucket to the exact trace in OBS_spans.jsonl.
  obs::LogHistogram* duration_hist =
      options_.registry != nullptr
          ? &options_.registry->histogram(
                "hotc_request_duration_ms",
                "End-to-end request latency (ms), gateway submit to reply")
          : nullptr;

  if (options_.preload_images) {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const auto& ref = mix.at(i).spec.image;
      if (seen.insert(ref.full()).second) engine_.preload_image(ref);
    }
  }

  // The latest arrival, not the last listed: the list need not be sorted.
  const TimePoint last =
      std::max_element(arrivals.begin(), arrivals.end())->at;
  const TimePoint horizon = last + options_.trailing_slack;

  if (auto* controller = hotc_controller()) {
    controller->start_adaptive_loop(horizon);
  }
  if (auto* warmup = dynamic_cast<PeriodicWarmupBackend*>(backend_.get())) {
    // Azure-Logic style: every function in the mix gets a keep-warm timer
    // for the whole run.
    for (std::size_t i = 0; i < mix.size(); ++i) {
      warmup->register_warmup(mix.at(i).spec, engine::apps::random_number(),
                              horizon);
    }
  }
  if (monitor_) monitor_->start();

  // Arrivals are fed lazily: each one schedules the next in firing order,
  // so the queue holds one pending arrival instead of the whole list.
  // Arrival i fires under the seq it would have had if every arrival had
  // been pushed here in list order, so the firing order is that of an
  // up-front schedule: (time, list index), ties and unsorted lists
  // included.
  Replay replay{this, &arrivals, &mix, &recorder, duration_hist, {},
                sim_.reserve(arrivals.size())};
  if (!std::is_sorted(arrivals.begin(), arrivals.end())) {  // by time
    replay.order.resize(arrivals.size());
    std::iota(replay.order.begin(), replay.order.end(), std::size_t{0});
    std::stable_sort(replay.order.begin(), replay.order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return arrivals[a] < arrivals[b];
                     });
  }
  for (const auto& arrival : arrivals) {
    HOTC_ASSERT_MSG(arrival.config_index < mix.size(),
                    "arrival names a config outside the mix");
  }
  replay.schedule(0);

  // Run every queued event; the monitor/adaptive loops stop themselves at
  // the horizon.
  if (monitor_) {
    // A free-running monitor would keep the queue alive forever; bound it.
    sim_.at(horizon, [this]() { monitor_->stop(); });
  }
  sim_.run();
  return recorder;
}

}  // namespace hotc::faas
