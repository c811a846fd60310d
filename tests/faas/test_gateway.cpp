#include "faas/gateway.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/app.hpp"

namespace hotc::faas {
namespace {

spec::RunSpec python_spec() {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  return s;
}

class GatewayTest : public ::testing::Test {
 protected:
  GatewayTest() : engine_(sim_, engine::HostProfile::server()) {
    engine_.preload_image(python_spec().image);
  }

  sim::Simulator sim_;
  engine::ContainerEngine engine_;
};

TEST_F(GatewayTest, TimestampsAreOrdered) {
  ColdStartBackend backend(engine_);
  Gateway gw(sim_, backend);
  std::optional<CompletedRequest> done;
  gw.submit(1, 0, python_spec(), engine::apps::random_number(),
            [&](Result<CompletedRequest> r) { done = r.value(); });
  sim_.run();
  ASSERT_TRUE(done.has_value());
  EXPECT_LE(done->submitted, done->t1);
  EXPECT_LE(done->t1, done->t2);
  EXPECT_LE(done->t2, done->t3);
  EXPECT_LE(done->t3, done->t4);
  EXPECT_LE(done->t4, done->t5);
  EXPECT_LE(done->t5, done->t6);
  EXPECT_EQ(done->total(), done->t6 - done->submitted);
}

TEST_F(GatewayTest, CompletedRequestsHaveTimestamps) {
  ControllerOptions opt;
  HotCBackend backend(engine_, opt);
  Gateway gw(sim_, backend);
  std::vector<CompletedRequest> done;
  for (std::uint64_t i = 0; i < 3; ++i) {
    sim_.at(seconds(10) * static_cast<std::int64_t>(i), [&, i]() {
      gw.submit(i + 1, 0, python_spec(), engine::apps::random_number(),
                [&](Result<CompletedRequest> r) {
                  done.push_back(r.value());
                });
    });
  }
  sim_.run();
  ASSERT_EQ(done.size(), 3u);
  for (const auto& c : done) {
    EXPECT_GT(c.t6, c.submitted);
    EXPECT_GE(c.t3, c.t2);
  }
}

TEST_F(GatewayTest, ColdInitiationDominatesLatency) {
  // The Fig. 5 finding: function initiation (2 -> 3) dominates cold
  // request latency; execution and forwarding are small.
  ColdStartBackend backend(engine_);
  Gateway gw(sim_, backend);
  std::optional<CompletedRequest> done;
  gw.submit(1, 0, python_spec(), engine::apps::random_number(),
            [&](Result<CompletedRequest> r) { done = r.value(); });
  sim_.run();
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->cold);
  const double init = to_seconds(done->initiation());
  const double total = to_seconds(done->total());
  EXPECT_GT(init / total, 0.5);
  EXPECT_GT(done->initiation(), done->execution());
  EXPECT_GT(done->initiation(), done->forwarding());
}

TEST_F(GatewayTest, WarmRequestInitiationSmall) {
  ControllerOptions opt;
  HotCBackend backend(engine_, opt);
  Gateway gw(sim_, backend);
  gw.submit(1, 0, python_spec(), engine::apps::random_number(),
            [](Result<CompletedRequest>) {});
  sim_.run();
  std::optional<CompletedRequest> warm;
  gw.submit(2, 0, python_spec(), engine::apps::random_number(),
            [&](Result<CompletedRequest> r) { warm = r.value(); });
  sim_.run();
  ASSERT_TRUE(warm.has_value());
  EXPECT_FALSE(warm->cold);
  // Warm initiation is only the app-side work, far below cold.
  EXPECT_LT(warm->initiation(), milliseconds(100));
}

TEST_F(GatewayTest, GatewayCountsHandled) {
  ColdStartBackend backend(engine_);
  Gateway gw(sim_, backend);
  for (int i = 0; i < 4; ++i) {
    gw.submit(i, 0, python_spec(), engine::apps::random_number(),
              [](Result<CompletedRequest>) {});
  }
  sim_.run();
  EXPECT_EQ(gw.handled(), 4u);
}

TEST_F(GatewayTest, ConfigIndexCarriedThrough) {
  ColdStartBackend backend(engine_);
  Gateway gw(sim_, backend);
  std::optional<CompletedRequest> done;
  gw.submit(9, 5, python_spec(), engine::apps::random_number(),
            [&](Result<CompletedRequest> r) { done = r.value(); });
  sim_.run();
  EXPECT_EQ(done->id, 9u);
  EXPECT_EQ(done->config_index, 5u);
}

TEST_F(GatewayTest, CustomHopCostsRespected) {
  GatewayOptions opt;
  opt.client_to_gateway = milliseconds(50);
  opt.gateway_to_client = milliseconds(50);
  ColdStartBackend backend(engine_);
  Gateway gw(sim_, backend, opt);
  std::optional<CompletedRequest> done;
  gw.submit(1, 0, python_spec(), engine::apps::random_number(),
            [&](Result<CompletedRequest> r) { done = r.value(); });
  sim_.run();
  EXPECT_GE(done->total(), milliseconds(100));
  EXPECT_EQ(done->t1 - done->submitted, milliseconds(50));
}

}  // namespace
}  // namespace hotc::faas

namespace hotc::faas {
namespace {

TEST_F(GatewayTest, ConcurrencyLimitQueuesRequests) {
  GatewayOptions opt;
  opt.max_concurrent = 2;
  ControllerOptions copt;
  HotCBackend backend(engine_, copt);
  Gateway gw(sim_, backend, opt);
  // Warm three containers so execution time is uniform.
  for (int i = 0; i < 3; ++i) {
    gw.submit(100 + i, 0, python_spec(), engine::apps::qr_encoder(),
              [](Result<CompletedRequest>) {});
    sim_.run();
  }
  // Six simultaneous requests through two gateway slots: later ones queue.
  std::vector<CompletedRequest> done;
  for (int i = 0; i < 6; ++i) {
    gw.submit(i, 0, python_spec(), engine::apps::qr_encoder(),
              [&](Result<CompletedRequest> r) { done.push_back(r.value()); });
  }
  sim_.run();
  ASSERT_EQ(done.size(), 6u);
  // The last-finishing request waited for ~2 batches ahead of it.
  Duration fastest = done.front().total();
  Duration slowest = done.front().total();
  for (const auto& r : done) {
    fastest = std::min(fastest, r.total());
    slowest = std::max(slowest, r.total());
  }
  EXPECT_GT(to_seconds(slowest), to_seconds(fastest) * 1.8);
  EXPECT_EQ(gw.queued(), 0u);
  EXPECT_EQ(gw.in_flight(), 0u);
}

TEST_F(GatewayTest, QueueDepthVisibleMidFlight) {
  GatewayOptions opt;
  opt.max_concurrent = 1;
  ColdStartBackend backend(engine_);
  Gateway gw(sim_, backend, opt);
  for (int i = 0; i < 3; ++i) {
    gw.submit(i, 0, python_spec(), engine::apps::qr_encoder(),
              [](Result<CompletedRequest>) {});
  }
  // Advance just past the client->gateway hop: one in flight, two queued.
  sim_.run_until(milliseconds(3));
  EXPECT_EQ(gw.in_flight(), 1u);
  EXPECT_EQ(gw.queued(), 2u);
  sim_.run();
  EXPECT_EQ(gw.handled(), 3u);
}

}  // namespace
}  // namespace hotc::faas

namespace hotc::faas {
namespace {

TEST_F(GatewayTest, TimeoutFailsSlowColdRequest) {
  GatewayOptions opt;
  opt.request_timeout = milliseconds(100);  // below any cold start
  ColdStartBackend backend(engine_);
  Gateway gw(sim_, backend, opt);
  bool timed_out = false;
  gw.submit(1, 0, python_spec(), engine::apps::random_number(),
            [&](Result<CompletedRequest> r) {
              timed_out = !r.ok();
              if (!r.ok()) {
                EXPECT_EQ(r.error().code, "faas.timeout");
              }
            });
  sim_.run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(gw.timeouts(), 1u);
  // The backend work still ran to completion (wasted, as under real SLOs).
  EXPECT_EQ(engine_.launches(), 1u);
}

TEST_F(GatewayTest, TimeoutSparesWarmRequests) {
  GatewayOptions opt;
  opt.request_timeout = milliseconds(200);
  ControllerOptions copt;
  HotCBackend backend(engine_, copt);
  Gateway gw(sim_, backend, opt);
  int ok = 0;
  int failed = 0;
  for (int i = 0; i < 5; ++i) {
    gw.submit(i, 0, python_spec(), engine::apps::random_number(),
              [&](Result<CompletedRequest> r) { r.ok() ? ++ok : ++failed; });
    sim_.run();
  }
  EXPECT_EQ(failed, 1);  // only the cold first request blows the budget
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(gw.timeouts(), 1u);
}

TEST_F(GatewayTest, TimeoutReleasesSlotWhenBackendCompletesLate) {
  // The timed-out request's proxy slot is tied to its backend work, not to
  // the client answer: the timeout answers the client early, the slot is
  // released when the backend completes late, and the next request must
  // still get a slot.  With max_concurrent = 1 a leaked slot would wedge
  // the gateway forever.
  GatewayOptions opt;
  opt.max_concurrent = 1;
  opt.request_timeout = milliseconds(200);  // below any cold start
  ControllerOptions copt;
  HotCBackend backend(engine_, copt);
  Gateway gw(sim_, backend, opt);

  bool first_timed_out = false;
  gw.submit(1, 0, python_spec(), engine::apps::random_number(),
            [&](Result<CompletedRequest> r) { first_timed_out = !r.ok(); });
  // Past the deadline the client has been answered, but the cold backend
  // work is still running and still holds the only slot.
  sim_.run_until(milliseconds(250));
  EXPECT_TRUE(first_timed_out);
  EXPECT_EQ(gw.timeouts(), 1u);
  EXPECT_EQ(gw.in_flight(), 1u);

  // Let the late backend completion land: the slot must come back.
  sim_.run();
  EXPECT_EQ(gw.in_flight(), 0u);
  EXPECT_EQ(gw.queued(), 0u);

  // A fresh request now reuses the pooled runtime well inside its own
  // deadline — proof the slot (and the warm container) survived the
  // timed-out request.
  bool second_ok = false;
  gw.submit(2, 0, python_spec(), engine::apps::random_number(),
            [&](Result<CompletedRequest> r) {
              second_ok = r.ok();
              if (r.ok()) {
                EXPECT_FALSE(r.value().cold);
              }
            });
  sim_.run();
  EXPECT_TRUE(second_ok);
  EXPECT_EQ(gw.timeouts(), 1u);
  EXPECT_EQ(gw.in_flight(), 0u);
}

TEST_F(GatewayTest, NoTimeoutByDefault) {
  ColdStartBackend backend(engine_);
  Gateway gw(sim_, backend);
  bool ok = false;
  gw.submit(1, 0, python_spec(), engine::apps::random_number(),
            [&](Result<CompletedRequest> r) { ok = r.ok(); });
  sim_.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(gw.timeouts(), 0u);
}

}  // namespace
}  // namespace hotc::faas

// Request-record lifetime: whichever way a request ends, the client
// callback runs exactly once and the gateway's record of the request (which
// owns the callback, and through it `token`) is freed.  Double frees and
// leaks are also caught by the address-sanitizer build.
namespace hotc::faas {
namespace {

/// Answers every dispatch after `delay`, with success or an error.
class ScriptedBackend final : public Backend {
 public:
  ScriptedBackend(sim::Simulator& sim, Duration delay, bool fail)
      : sim_(sim), delay_(delay), fail_(fail) {}
  [[nodiscard]] std::string name() const override { return "scripted"; }
  void dispatch(const spec::RunSpec&, const engine::AppModel&,
                Callback cb) override {
    sim_.after(delay_, [this, cb = std::move(cb)]() {
      if (fail_) {
        cb(make_error<DispatchReport>("backend.down", "scripted failure"));
        return;
      }
      DispatchReport report;
      report.exec = delay_;
      cb(report);
    });
  }
  [[nodiscard]] std::uint64_t cold_starts() const override { return 0; }

 private:
  sim::Simulator& sim_;
  Duration delay_;
  bool fail_;
};

struct Outcome {
  int calls = 0;
  std::string error;  // empty when the request completed
};

/// Submits one request whose callback holds `token`; returns its outcome
/// after the simulator drains.
Outcome run_one(sim::Simulator& sim, Gateway& gw,
                const std::shared_ptr<int>& token) {
  Outcome out;
  gw.submit(1, 0, python_spec(), engine::apps::random_number(),
            [&out, token](Result<CompletedRequest> r) {
              ++out.calls;
              if (!r.ok()) out.error = r.error().code;
            });
  EXPECT_GT(token.use_count(), 1);  // held by the in-flight record
  sim.run();
  return out;
}

TEST(GatewayRecord, TimeoutBeforeCompletion) {
  sim::Simulator sim;
  ScriptedBackend backend(sim, seconds(1), /*fail=*/false);
  GatewayOptions opt;
  opt.request_timeout = milliseconds(10);
  Gateway gw(sim, backend, opt);
  auto token = std::make_shared<int>(0);
  const Outcome out = run_one(sim, gw, token);
  EXPECT_EQ(out.calls, 1);
  EXPECT_EQ(out.error, "faas.timeout");
  EXPECT_EQ(gw.timeouts(), 1u);
  EXPECT_EQ(gw.in_flight(), 0u);  // the late completion released the slot
  EXPECT_EQ(token.use_count(), 1);
}

TEST(GatewayRecord, CompletionBeforeTimeout) {
  sim::Simulator sim;
  ScriptedBackend backend(sim, milliseconds(1), /*fail=*/false);
  GatewayOptions opt;
  opt.request_timeout = seconds(10);
  Gateway gw(sim, backend, opt);
  auto token = std::make_shared<int>(0);
  const Outcome out = run_one(sim, gw, token);
  EXPECT_EQ(out.calls, 1);
  EXPECT_EQ(out.error, "");
  EXPECT_EQ(gw.timeouts(), 0u);
  EXPECT_EQ(gw.handled(), 1u);
  EXPECT_EQ(sim.now(), seconds(10));  // the stood-down timer still fired
  EXPECT_EQ(token.use_count(), 1);
}

TEST(GatewayRecord, BackendError) {
  sim::Simulator sim;
  ScriptedBackend backend(sim, milliseconds(1), /*fail=*/true);
  GatewayOptions opt;
  opt.request_timeout = seconds(10);
  Gateway gw(sim, backend, opt);
  auto token = std::make_shared<int>(0);
  const Outcome out = run_one(sim, gw, token);
  EXPECT_EQ(out.calls, 1);
  EXPECT_EQ(out.error, "backend.down");
  EXPECT_EQ(gw.timeouts(), 0u);
  EXPECT_EQ(gw.in_flight(), 0u);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(GatewayRecord, FreedWhenSimulationStopsMidFlight) {
  auto token = std::make_shared<int>(0);
  int calls = 0;
  {
    sim::Simulator sim;
    ScriptedBackend backend(sim, seconds(1), /*fail=*/false);
    GatewayOptions opt;
    opt.max_concurrent = 1;  // the second request waits for a slot
    Gateway gw(sim, backend, opt);
    for (std::uint64_t id = 1; id <= 2; ++id) {
      gw.submit(id, 0, python_spec(), engine::apps::random_number(),
                [&calls, token](Result<CompletedRequest>) { ++calls; });
    }
    sim.run_until(milliseconds(100));
    EXPECT_EQ(gw.queued(), 1u);
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace hotc::faas
