#include "faas/gateway.hpp"

#include <string>
#include <utility>

namespace hotc::faas {

struct Gateway::Request {
  CompletedRequest rec;
  spec::RunSpec spec;
  engine::AppModel app;
  Callback cb;
  /// The client has its answer.  With a deadline, whichever of
  /// {completion, timer} comes first answers; the loser stands down.
  bool answered = false;

  void answer(Result<CompletedRequest> r) {
    if (answered) return;
    answered = true;
    cb(std::move(r));
  }
};

Gateway::Gateway(sim::Simulator& sim, Backend& backend,
                 GatewayOptions options)
    : sim_(sim),
      backend_(backend),
      options_(options),
      slots_(options.max_concurrent) {}

void Gateway::submit(std::uint64_t request_id, std::size_t config_index,
                     const spec::RunSpec& spec, const engine::AppModel& app,
                     Callback cb) {
  auto req = std::make_shared<Request>();
  req->rec.id = request_id;
  req->rec.config_index = config_index;
  req->rec.submitted = sim_.now();
  req->spec = spec;
  req->app = app;
  req->cb = std::move(cb);

  if (options_.request_timeout > kZeroDuration) {
    sim_.after(options_.request_timeout, [this, req]() {
      if (req->answered) return;
      if (options_.tracer != nullptr) {
        options_.tracer->span(req->rec.id, obs::Stage::kReturn, sim_.now(),
                              kZeroDuration, 0, obs::kNoShard,
                              obs::kSpanError);
      }
      {
        const RankedGuard lock(mu_);
        ++timeouts_;
      }
      req->answer(make_error<CompletedRequest>(
          "faas.timeout",
          "request " + std::to_string(req->rec.id) + " exceeded deadline"));
    });
  }

  // The request reaches the gateway, then waits for a proxy worker slot —
  // this queueing is the congestion visible during bursts.
  sim_.after(options_.client_to_gateway,
             [this, req = std::move(req)]() mutable {
               req->rec.t1 = sim_.now();
               slots_.acquire([this, req = std::move(req)]() mutable {
                 sim_.after(options_.gateway_proxy +
                                options_.gateway_to_watchdog,
                            [this, req = std::move(req)]() mutable {
                              to_watchdog(std::move(req));
                            });
               });
             });
}

void Gateway::to_watchdog(RequestPtr req) {
  CompletedRequest& rec = req->rec;
  rec.t2 = sim_.now();
  // Moments (1) -> (2): the client-to-watchdog forwarding hops.
  if (options_.tracer != nullptr) {
    options_.tracer->span(rec.id, obs::Stage::kForward, rec.submitted,
                          rec.t2 - rec.submitted);
  }
  // `req` stays held here while the backend reads spec and app, even if
  // it answers synchronously and drops the callback.
  backend_.dispatch_traced(rec.id, req->spec, req->app,
                           [this, req](Result<DispatchReport> r) {
                             on_dispatched(req, std::move(r));
                           });
}

void Gateway::on_dispatched(RequestPtr req, Result<DispatchReport> r) {
  if (!r.ok()) {
    if (options_.tracer != nullptr) {
      options_.tracer->span(req->rec.id, obs::Stage::kReturn, sim_.now(),
                            kZeroDuration, 0, obs::kNoShard, obs::kSpanError);
    }
    slots_.release();
    req->answer(Result<CompletedRequest>(r.error()));
    return;
  }
  const DispatchReport& report = r.value();
  // The backend completed provisioning + execution by "now"; recover the
  // interior timestamps from its phase durations.
  CompletedRequest& rec = req->rec;
  rec.t4 = sim_.now();
  rec.t3 = rec.t4 - report.exec;
  rec.cold = report.cold;
  rec.provision = report.provision;

  const Duration back = options_.watchdog_shell +
                        options_.watchdog_to_gateway +
                        options_.gateway_to_client;
  sim_.after(back, [this, req = std::move(req)]() {
    CompletedRequest& done = req->rec;
    done.t5 = done.t4 + options_.watchdog_shell;
    done.t6 = sim_.now();
    // Moments (4) -> (6): the watchdog-to-client return hops.
    if (options_.tracer != nullptr) {
      options_.tracer->span(done.id, obs::Stage::kReturn, done.t4,
                            done.t6 - done.t4, 0, obs::kNoShard,
                            done.cold ? obs::kSpanCold : 0);
    }
    {
      const RankedGuard lock(mu_);
      ++handled_;
    }
    slots_.release();
    req->answer(done);
  });
}

}  // namespace hotc::faas
