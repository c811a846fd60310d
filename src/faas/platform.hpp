// FaasPlatform: one-stop experiment driver.
//
// Assembles simulator + container engine + policy backend + gateway,
// replays a workload (ArrivalList over a ConfigMix) and returns the
// latency record.  Every figure bench builds two or more platforms
// (default vs HotC) over the same workload and prints the comparison.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "engine/engine.hpp"
#include "engine/monitor.hpp"
#include "faas/backend.hpp"
#include "faas/gateway.hpp"
#include "hotc/controller.hpp"
#include "metrics/latency_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "workload/mix.hpp"
#include "workload/patterns.hpp"

namespace hotc::faas {

enum class PolicyKind {
  kColdAlways,
  kKeepAlive,
  kHotC,
  kPeriodicWarmup,
};

const char* to_string(PolicyKind kind);

struct PlatformOptions {
  engine::HostProfile host = engine::HostProfile::server();
  PolicyKind policy = PolicyKind::kColdAlways;
  Duration keep_alive = minutes(15);       // for kKeepAlive
  Duration warmup_period = minutes(5);     // for kPeriodicWarmup
  ControllerOptions hotc;                  // for kHotC
  GatewayOptions gateway;
  /// Pre-seed the image store so pulls are warm ("images were stored
  /// locally", Section V-A).
  bool preload_images = true;
  /// Extra virtual time after the last arrival for the adaptive loop.
  Duration trailing_slack = minutes(2);
  /// Sample engine resources during the run (Fig. 15).
  std::optional<Duration> monitor_period;
  /// Observability, both optional: the registry receives engine /
  /// controller / pool metrics, the tracer receives the full request
  /// lifecycle (gateway hops through clean + readmit).  Setting them here
  /// wires every layer; they are also forwarded into `hotc` and
  /// `gateway`, overriding whatever those carried.  Must outlive the
  /// platform.
  obs::Registry* registry = nullptr;
  obs::Tracer* tracer = nullptr;
};

class FaasPlatform {
 public:
  explicit FaasPlatform(PlatformOptions options);

  /// Replay the workload to completion; returns per-request latencies.
  /// May be called once per platform instance.
  metrics::LatencyRecorder run(const workload::ArrivalList& arrivals,
                               const workload::ConfigMix& mix);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] engine::ContainerEngine& engine() { return engine_; }
  [[nodiscard]] Backend& backend() { return *backend_; }
  [[nodiscard]] const std::vector<CompletedRequest>& completed() const {
    return completed_;
  }
  [[nodiscard]] std::uint64_t failed_requests() const { return failures_; }

  /// Non-null only under PolicyKind::kHotC.
  [[nodiscard]] HotCController* hotc_controller();
  /// Non-null only when monitor_period was set.
  [[nodiscard]] const engine::ResourceMonitor* monitor() const {
    return monitor_ ? monitor_.get() : nullptr;
  }

 private:
  /// State of one run() that the arrival and completion events share; it
  /// lives on run()'s stack while the simulator drains.
  struct Replay {
    FaasPlatform* platform;
    const workload::ArrivalList* arrivals;
    const workload::ConfigMix* mix;
    metrics::LatencyRecorder* recorder;
    obs::LogHistogram* duration_hist;
    /// Firing order as list indices; empty when the list is already
    /// sorted by time (firing order = list order).
    std::vector<std::size_t> order;
    /// Arrival i fires under seq first_seq + i.
    sim::EventSeq first_seq;

    /// Schedule the k-th arrival in firing order.
    void schedule(std::size_t k);
    void fire(std::size_t k);
    void complete(Result<CompletedRequest> done);
  };

  PlatformOptions options_;
  sim::Simulator sim_;
  engine::ContainerEngine engine_;
  std::unique_ptr<Backend> backend_;
  std::unique_ptr<Gateway> gateway_;
  std::unique_ptr<engine::ResourceMonitor> monitor_;
  std::vector<CompletedRequest> completed_;
  std::uint64_t failures_ = 0;
  bool ran_ = false;
};

}  // namespace hotc::faas
