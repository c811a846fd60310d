// OpenFaaS-style gateway + watchdog pipeline (Fig. 5).
//
// Records the six workflow moments the paper instruments:
//   (1) request packet arrives at the gateway
//   (2) request reaches the watchdog
//   (3) the function process starts
//   (4) the function process stops
//   (5) the response leaves the watchdog
//   (6) the client receives the response from the gateway
//
// Function initiation (2 -> 3) carries the container provisioning cost and
// dominates cold latency; the other hops are small fixed costs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "core/annotations.hpp"
#include "core/ranked_mutex.hpp"
#include "core/result.hpp"
#include "faas/backend.hpp"
#include "obs/trace.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace hotc::faas {

struct GatewayOptions {
  Duration client_to_gateway = milliseconds(2);   // WAN/LAN hop
  Duration gateway_proxy = milliseconds_f(1.5);   // routing + queueing
  Duration gateway_to_watchdog = microseconds(600);
  Duration watchdog_shell = microseconds(800);    // stdin/stdout plumbing
  Duration watchdog_to_gateway = microseconds(600);
  Duration gateway_to_client = milliseconds(2);
  /// Concurrent in-flight requests the gateway sustains (its worker pool;
  /// "gateway ... can be scaled to multiple instances" — scale by raising
  /// this).  Excess requests queue FIFO at the gateway, which is the
  /// congestion the paper observes under parallel load.
  std::size_t max_concurrent = 64;
  /// Client-visible deadline; 0 = none.  A request that has not completed
  /// by submitted + timeout fails with faas.timeout (the backend work
  /// still runs to completion — exactly the waste cold starts cause under
  /// tight SLOs).
  Duration request_timeout = kZeroDuration;
  /// Optional lifecycle tracer.  Each submit opens a trace under its
  /// request id: the gateway records the forward/return hop spans and
  /// passes the id to the backend so provisioning/exec/clean spans join
  /// the same trace.  Must outlive the gateway.
  obs::Tracer* tracer = nullptr;
};

/// The six timestamps plus what the backend reported.
struct CompletedRequest {
  std::uint64_t id = 0;
  std::size_t config_index = 0;
  TimePoint submitted = kZeroDuration;  // client send time
  TimePoint t1 = kZeroDuration;  // at gateway
  TimePoint t2 = kZeroDuration;  // at watchdog
  TimePoint t3 = kZeroDuration;  // function starts
  TimePoint t4 = kZeroDuration;  // function stops
  TimePoint t5 = kZeroDuration;  // response leaves watchdog
  TimePoint t6 = kZeroDuration;  // client receives
  bool cold = false;
  Duration provision = kZeroDuration;

  [[nodiscard]] Duration total() const { return t6 - submitted; }
  [[nodiscard]] Duration initiation() const { return t3 - t2; }  // 2->3
  [[nodiscard]] Duration execution() const { return t4 - t3; }
  [[nodiscard]] Duration forwarding() const {
    return (t2 - submitted) + (t6 - t4);
  }
};

class Gateway {
 public:
  Gateway(sim::Simulator& sim, Backend& backend, GatewayOptions options = {});

  using Callback = std::function<void(Result<CompletedRequest>)>;

  /// Submit a request "from the client" at the current simulation time.
  /// The gateway keeps its own copy of spec and app.  cb runs once, with
  /// the completed request, the backend's error or faas.timeout (or never,
  /// if the simulation is stopped first).
  void submit(std::uint64_t request_id, std::size_t config_index,
              const spec::RunSpec& spec, const engine::AppModel& app,
              Callback cb);

  [[nodiscard]] std::uint64_t handled() const {
    const RankedGuard lock(mu_);
    return handled_;
  }
  [[nodiscard]] std::uint64_t timeouts() const {
    const RankedGuard lock(mu_);
    return timeouts_;
  }
  [[nodiscard]] const GatewayOptions& options() const { return options_; }
  [[nodiscard]] std::size_t queued() const { return slots_.waiting(); }
  [[nodiscard]] std::size_t in_flight() const { return slots_.in_use(); }

 private:
  /// One in-flight request: its record plus what the stages need.  The
  /// stage closures and the deadline timer share it; it is freed with the
  /// last of them.
  struct Request;
  using RequestPtr = std::shared_ptr<Request>;

  void to_watchdog(RequestPtr req);
  void on_dispatched(RequestPtr req, Result<DispatchReport> r);

  sim::Simulator& sim_;
  Backend& backend_;
  GatewayOptions options_;
  sim::CountingResource slots_;
  /// Guards the counters only — never held across backend or simulator
  /// calls.  The simulator is single-threaded today; the ranked mutex pins
  /// the gateway's place in the lock order (above pool shards and the
  /// log sink) before multi-threaded drivers arrive.
  mutable RankedMutex mu_{LockRank::kGateway, 0, "faas.gateway"};
  std::uint64_t handled_ HOTC_GUARDED_BY(mu_) = 0;
  std::uint64_t timeouts_ HOTC_GUARDED_BY(mu_) = 0;
};

}  // namespace hotc::faas
