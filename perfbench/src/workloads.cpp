#include "workloads.hpp"

#include <sched.h>
#include <time.h>

#include <bit>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <vector>

#include "engine/image.hpp"
#include "faas/platform.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"
#include "report.hpp"
#include "runtime/real_hotc.hpp"
#include "spans.hpp"
#include "workload/mix.hpp"
#include "workload/patterns.hpp"
#include "workload/population.hpp"

namespace perfbench {

using namespace hotc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

/// Per-layer summary of the span samples kept in memory during the run.
JsonObject span_summary(const SpanLog& spans) {
  JsonObject out;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    const auto layer = static_cast<Layer>(i);
    const SpanLog::LayerTimes& t = spans.layer(layer);
    if (t.calls() == 0) continue;
    std::vector<double> us(t.samples_ns.begin(), t.samples_ns.end());
    for (double& v : us) v /= 1e3;
    JsonObject j;
    j["calls"] = Json(static_cast<std::int64_t>(t.calls()));
    j["total_s"] = Json(static_cast<double>(t.total_ns) / 1e9);
    j["self_s"] = Json(static_cast<double>(t.self_ns) / 1e9);
    j["mean_us"] = Json(t.mean_us());
    j["p50_us"] = Json(select_quantile(us, 0.50));
    j["p99_us"] = Json(select_quantile(us, 0.99));
    j["max_us"] = Json(select_quantile(us, 1.0));
    out[layer_name(layer)] = Json(std::move(j));
  }
  return out;
}

/// Latency statistics of one repetition: nearest-rank percentiles, the
/// mean, and the mean of the slowest 1 % (the tail as a continuous
/// quantity: the simulator's percentiles sit on a few modelled values).
void add_latency_metrics(std::vector<double>& latency_ms, RepResult& out) {
  out.e2e["latency_p50_ms"] = select_quantile(latency_ms, 0.50);
  out.e2e["latency_p99_ms"] = select_quantile(latency_ms, 0.99);
  out.e2e["latency_p999_ms"] = select_quantile(latency_ms, 0.999);
  std::sort(latency_ms.begin(), latency_ms.end());
  double sum = 0.0;
  for (double v : latency_ms) sum += v;
  out.e2e["latency_mean_ms"] =
      latency_ms.empty() ? 0.0 : sum / static_cast<double>(latency_ms.size());
  out.e2e["latency_tail_ms"] = tail_mean(latency_ms, 0.01);
}

// --- simulated workloads -------------------------------------------------

struct SimInputs {
  workload::ArrivalList arrivals;
  workload::ConfigMix mix;
  faas::PlatformOptions options;
  bool observability = false;
};

/// Section V-B web service: six QR keys, Zipf 0.9, Poisson 200 req/s for
/// 60 virtual minutes; paper-default HotC.
SimInputs steady_web(std::uint64_t seed) {
  SimInputs in;
  Rng rng(seed);
  in.mix = workload::ConfigMix::qr_web_service(6);
  in.arrivals = workload::poisson(200.0, minutes(60), rng, in.mix.size(), 0.9);
  in.options.policy = faas::PolicyKind::kHotC;
  return in;
}

/// Arrivals of a fixed tenant population, drawn from `seed`: Poisson
/// traffic for steady and rare functions, cron timers with a random phase
/// for periodic ones, and a Poisson trickle plus one to three 150 ms-spaced
/// storms for bursty ones — the classes of workload::FunctionPopulation.
workload::ArrivalList tenant_arrivals(
    const std::vector<workload::FunctionProfile>& profiles, Duration horizon,
    std::uint64_t seed) {
  Rng rng(seed);
  workload::ArrivalList all;
  const double horizon_min = to_seconds(horizon) / 60.0;
  const auto poisson_minutes = [&](const workload::FunctionProfile& p) {
    for (double t = rng.exponential(p.rate_per_minute); t < horizon_min;
         t += rng.exponential(p.rate_per_minute)) {
      all.push_back(workload::Arrival{seconds_f(t * 60.0), p.config_index});
    }
  };
  for (const auto& p : profiles) {
    switch (p.klass) {
      case workload::InvocationClass::kSteady:
      case workload::InvocationClass::kRare:
        poisson_minutes(p);
        break;
      case workload::InvocationClass::kPeriodic:
        for (TimePoint t = seconds_f(rng.uniform(0.0, to_seconds(p.period)));
             t < horizon; t += p.period) {
          all.push_back(workload::Arrival{t, p.config_index});
        }
        break;
      case workload::InvocationClass::kBursty: {
        poisson_minutes(p);
        const auto storms = static_cast<std::size_t>(rng.uniform_int(1, 3));
        for (std::size_t s = 0; s < storms; ++s) {
          const double start_s = rng.uniform(0.0, to_seconds(horizon));
          const auto size = static_cast<std::int64_t>(
              std::max(1.0, p.burst_factor * rng.uniform(0.5, 1.5)));
          for (std::int64_t k = 0; k < size; ++k) {
            all.push_back(workload::Arrival{
                seconds_f(start_s) + milliseconds(150) * k, p.config_index});
          }
        }
        break;
      }
    }
  }
  std::sort(all.begin(), all.end());
  return all;
}

/// 1000 tenant functions under a ~100-container cap, with sharing,
/// tiering and the production observability stack.  The population (each
/// function's class and rate) is the workload's fixed definition, drawn
/// once with FunctionPopulation's default seed; the run's seed draws the
/// arrivals.  A seed-drawn population would move the request count by
/// ~12 % between seeds (the steady head is Binomial(1000, 0.08)).
SimInputs tenants_pressure(std::uint64_t seed) {
  SimInputs in;
  workload::PopulationOptions popt;
  popt.functions = 1000;
  popt.horizon = hours(1);
  const auto population = workload::FunctionPopulation::generate(popt);
  in.arrivals = tenant_arrivals(population.profiles(), popt.horizon, seed);
  in.mix = workload::ConfigMix::qr_web_service(popt.functions);
  in.options.policy = faas::PolicyKind::kHotC;
  in.options.hotc.limits.max_live = 100;
  in.options.hotc.enable_sharing = true;
  in.options.hotc.tiering.enabled = true;
  in.options.hotc.tiering.alpha = 0.5;
  in.options.hotc.tiering.store.capacity_bytes = gib(1);
  in.observability = true;
  return in;
}

SimInputs sim_inputs(Workload w, std::uint64_t seed) {
  return w == Workload::kSteadyWeb ? steady_web(seed) : tenants_pressure(seed);
}

/// The production observability stack, wired the way a deployment would.
struct ObsStack {
  obs::Registry registry;
  obs::Tracer tracer{8192, &registry};
  obs::SloEngine slo{registry, obs::default_slos()};
  obs::DecisionJournal journal{4096};
  obs::TimeSeriesStore tsdb{registry, obs::TsdbOptions{}, &slo};

  void wire(faas::PlatformOptions& o) {
    o.registry = &registry;
    o.tracer = &tracer;
    o.hotc.journal = &journal;
    o.hotc.slo = &slo;
    o.hotc.tsdb = &tsdb;
  }
};

/// Simulated end-to-end outcome, exact for a seed.
void summarize_sim(const metrics::LatencyRecorder& recorder,
                   std::uint64_t attempted, std::uint64_t failed,
                   HotCController& controller,
                   const engine::ContainerEngine& engine, RepResult& out) {
  out.attempted = attempted;
  out.failed = failed;
  const auto& points = recorder.points();
  if (points.size() + failed != attempted) {
    out.correct = false;
    out.error = "completed + failed != attempted";
  }
  std::vector<double> latency_ms;
  latency_ms.reserve(points.size());
  Fnv fp;
  for (const auto& p : points) {
    latency_ms.push_back(to_milliseconds(p.latency));
    fp.add(static_cast<std::uint64_t>(p.latency.count()));
  }
  const ControllerStats& stats = controller.stats();
  // Restores are counted in cold_starts by the controller but paid no
  // full launch; donor conversions are never in cold_starts.
  const std::uint64_t full_colds = stats.cold_starts - stats.restores;
  out.e2e["cold_ratio"] = ratio(static_cast<double>(full_colds),
                                static_cast<double>(attempted));
  add_latency_metrics(latency_ms, out);
  out.e2e["idle_container_s"] = stats.idle_container_seconds;
  out.e2e["sim_mem_peak_mb"] = to_mib(engine.memory_high_watermark());
  fp.add(attempted);
  fp.add(failed);
  fp.add(full_colds);
  for (const auto& [name, value] : out.e2e) fp.add(value);
  out.fingerprint = fp.h;
}

RepResult run_sim_untraced(Workload w, std::uint64_t seed) {
  RepResult out;
  const auto t0 = Clock::now();
  SimInputs in = sim_inputs(w, seed);
  std::unique_ptr<ObsStack> obs;
  if (in.observability) {
    obs = std::make_unique<ObsStack>();
    obs->wire(in.options);
  }
  faas::FaasPlatform platform(in.options);
  const auto t1 = Clock::now();
  const metrics::LatencyRecorder recorder = platform.run(in.arrivals, in.mix);
  const auto t2 = Clock::now();
  out.setup_s = seconds_between(t0, t1);
  out.run_s = seconds_between(t1, t2);
  summarize_sim(recorder, in.arrivals.size(), platform.failed_requests(),
                *platform.hotc_controller(), platform.engine(), out);
  return out;
}

/// Decorator backend: times each dispatch into the wrapped backend.
class TimedBackend final : public faas::Backend {
 public:
  TimedBackend(faas::Backend& inner, SpanLog& spans)
      : inner_(inner), spans_(spans) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void dispatch(const spec::RunSpec& spec, const engine::AppModel& app,
                Callback cb) override {
    const SpanLog::Span span(spans_, Layer::kBackendDispatch);
    inner_.dispatch(spec, app, std::move(cb));
  }
  void dispatch_traced(std::uint64_t trace_id, const spec::RunSpec& spec,
                       const engine::AppModel& app, Callback cb) override {
    const SpanLog::Span span(spans_, Layer::kBackendDispatch);
    inner_.dispatch_traced(trace_id, spec, app, std::move(cb));
  }
  [[nodiscard]] std::uint64_t cold_starts() const override {
    return inner_.cold_starts();
  }

 private:
  faas::Backend& inner_;
  SpanLog& spans_;
};

/// Decorator predictor: times observe() and predict(); one observe() is
/// one per-key step of the adaptive tick.
class TimedPredictor final : public predict::Predictor {
 public:
  TimedPredictor(predict::PredictorPtr inner, SpanLog& spans,
                 std::uint64_t& steps)
      : inner_(std::move(inner)), spans_(spans), steps_(steps) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void observe(double actual) override {
    ++steps_;
    const SpanLog::Span span(spans_, Layer::kPredictorStep);
    inner_->observe(actual);
  }
  [[nodiscard]] double predict() const override {
    const SpanLog::Span span(spans_, Layer::kPredictorStep);
    return inner_->predict();
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::size_t observations() const override {
    return inner_->observations();
  }
  void restart_smoothing() override { inner_->restart_smoothing(); }
  [[nodiscard]] double smoothed_value() const override {
    return inner_->smoothed_value();
  }
  [[nodiscard]] int markov_region() const override {
    return inner_->markov_region();
  }

 private:
  predict::PredictorPtr inner_;
  SpanLog& spans_;
  std::uint64_t& steps_;
};

/// The traced assembly: the same program FaasPlatform builds, put
/// together from its public parts so each layer call can be timed.  Each
/// step mirrors FaasPlatform's constructor and run() in order, so the
/// simulated outcome must match the untraced run bit for bit.
RepResult run_sim_traced(Workload w, std::uint64_t seed) {
  RepResult out;
  SpanLog spans;
  std::uint64_t predictor_steps = 0;
  const auto t0 = Clock::now();
  SimInputs in = sim_inputs(w, seed);
  std::unique_ptr<ObsStack> obs;
  if (in.observability) {
    obs = std::make_unique<ObsStack>();
    obs->wire(in.options);
  }
  faas::PlatformOptions& opt = in.options;
  sim::Simulator sim;
  engine::ContainerEngine engine(sim, opt.host);
  if (opt.registry != nullptr) {
    opt.hotc.registry = opt.registry;
    engine.attach_metrics(*opt.registry);
  }
  if (opt.tracer != nullptr) {
    opt.hotc.tracer = opt.tracer;
    opt.gateway.tracer = opt.tracer;
  }
  opt.hotc.predictor_factory = [inner = opt.hotc.predictor_factory, &spans,
                                &predictor_steps]() -> predict::PredictorPtr {
    return std::make_unique<TimedPredictor>(inner(), spans, predictor_steps);
  };
  faas::HotCBackend hotc(engine, opt.hotc);
  TimedBackend backend(hotc, spans);
  faas::Gateway gateway(sim, backend, opt.gateway);
  const std::size_t n = in.arrivals.size();
  spans.reserve(Layer::kGatewaySubmit, n);
  spans.reserve(Layer::kBackendDispatch, n);
  spans.reserve(Layer::kRecorderAdd, n);
  const auto t1 = Clock::now();

  metrics::LatencyRecorder recorder;
  // FaasPlatform keeps every CompletedRequest; so does the traced run, so
  // that both do the same work.
  std::vector<faas::CompletedRequest> completed;
  std::uint64_t failures = 0;
  std::size_t queue_max = 0;
  obs::LogHistogram* duration_hist =
      opt.registry != nullptr
          ? &opt.registry->histogram(
                "hotc_request_duration_ms",
                "End-to-end request latency (ms), gateway submit to reply")
          : nullptr;
  if (opt.preload_images) {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < in.mix.size(); ++i) {
      const auto& ref = in.mix.at(i).spec.image;
      if (seen.insert(ref.full()).second) engine.preload_image(ref);
    }
  }
  const TimePoint horizon = in.arrivals.back().at + opt.trailing_slack;
  HotCController& controller = hotc.controller();
  // Exactly what HotCController::start_adaptive_loop schedules.
  sim.every(
      controller.options().adaptive_interval,
      [&sim, horizon]() { return sim.now() <= horizon; },
      [&spans, &controller]() {
        const SpanLog::Span span(spans, Layer::kAdaptiveTick);
        controller.adaptive_tick();
      });
  std::uint64_t next_id = 1;
  for (const auto& arrival : in.arrivals) {
    const std::uint64_t id = next_id++;
    sim.at(arrival.at, [&, id, arrival]() {
      const auto& entry = in.mix.at(arrival.config_index);
      {
        const SpanLog::Span span(spans, Layer::kGatewaySubmit);
        gateway.submit(
            id, arrival.config_index, entry.spec, entry.app,
            [&](Result<faas::CompletedRequest> done) {
              if (!done.ok()) {
                ++failures;
                return;
              }
              completed.push_back(done.value());
              metrics::LatencyPoint p;
              p.request_id = done.value().id;
              p.arrival = done.value().submitted;
              p.latency = done.value().total();
              p.cold = done.value().cold;
              p.config_index = done.value().config_index;
              if (duration_hist != nullptr) {
                duration_hist->observe(to_milliseconds(p.latency),
                                       p.request_id);
              }
              const SpanLog::Span add(spans, Layer::kRecorderAdd);
              recorder.add(p);
            });
      }
      queue_max = std::max(queue_max, gateway.queued());
    });
  }
  const auto r0 = Clock::now();
  const std::size_t events = sim.run();
  const auto r1 = Clock::now();
  out.setup_s = seconds_between(t0, t1);
  out.run_s = seconds_between(t1, r1);
  summarize_sim(recorder, n, failures, controller, engine, out);

  const double reqs = static_cast<double>(n);
  const std::uint64_t sim_ns = ns_between(r0, r1);
  const ControllerStats& stats = controller.stats();
  const pool::PoolStats pool_stats = controller.pool_view().stats_snapshot();
  const auto* store = controller.checkpoint_store();
  const double demotes = store != nullptr ? store->demotes() : 0.0;
  const double restores = store != nullptr ? store->restores() : 0.0;
  const auto& tick = spans.layer(Layer::kAdaptiveTick);
  auto& l = out.layers;
  l["sim.events_per_req"] = ratio(static_cast<double>(events), reqs);
  l["sim.event_ns"] = ratio(static_cast<double>(sim_ns),
                            static_cast<double>(events));
  l["sim.self_s"] =
      static_cast<double>(sim_ns - std::min(sim_ns, spans.outermost_ns())) /
      1e9;
  l["faas.submit_us"] = spans.layer(Layer::kGatewaySubmit).mean_us();
  l["faas.dispatch_us"] = spans.layer(Layer::kBackendDispatch).mean_us();
  l["faas.queue_max"] = static_cast<double>(queue_max);
  l["hotc.tick_ms"] = tick.mean_us() / 1e3;
  l["hotc.tick_share"] = ratio(static_cast<double>(tick.total_ns),
                               static_cast<double>(sim_ns));
  l["hotc.reuse_ratio"] = ratio(static_cast<double>(stats.reuses),
                                static_cast<double>(stats.requests));
  l["hotc.prewarm_launches"] = static_cast<double>(stats.prewarm_launches);
  l["hotc.retired"] = static_cast<double>(stats.retired);
  l["hotc.evicted"] = static_cast<double>(stats.evicted);
  l["predict.step_us"] =
      ratio(static_cast<double>(spans.layer(Layer::kPredictorStep).total_ns) /
                1e3,
            static_cast<double>(predictor_steps));
  l["predict.calls"] = static_cast<double>(predictor_steps);
  l["pool.hit_ratio"] = pool_stats.hit_rate();
  l["pool.evictions_per_kreq"] =
      ratio(1e3 * static_cast<double>(pool_stats.evictions), reqs);
  l["pool.returns"] = static_cast<double>(pool_stats.returns);
  l["share.donor_lookups"] = static_cast<double>(stats.donor_lookups);
  l["share.donor_hit_ratio"] = ratio(static_cast<double>(stats.donor_hits),
                                     static_cast<double>(stats.donor_lookups));
  l["share.respec_rejected"] = static_cast<double>(stats.respec_rejected);
  l["snapshot.demotes"] = demotes;
  l["snapshot.restores"] = restores;
  l["snapshot.restore_per_demote"] = ratio(restores, demotes);
  l["engine.launches_per_kreq"] =
      ratio(1e3 * static_cast<double>(engine.launches()), reqs);
  l["engine.execs"] = static_cast<double>(engine.execs());
  if (obs) {
    l["obs.spans_per_req"] = ratio(
        static_cast<double>(obs->tracer.recorder().recorded()), reqs);
    l["obs.spans_dropped"] =
        static_cast<double>(obs->tracer.recorder().dropped());
  }
  l["metrics.record_us"] = spans.layer(Layer::kRecorderAdd).mean_us();
  out.spans = span_summary(spans);
  return out;
}

// --- real_churn -------------------------------------------------------------

constexpr std::size_t kChurnKeys = 32;
constexpr std::size_t kChurnRequests = 100'000;
constexpr std::size_t kChurnWindow = 64;
constexpr std::size_t kChurnMaxWarm = 16;
constexpr std::size_t kMemorySampleEvery = 256;

/// Pins the calling thread to one CPU for its lifetime, restoring the
/// previous affinity on destruction; threads created meanwhile inherit
/// the pin.
class CpuPin {
 public:
  explicit CpuPin(int cpu) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~CpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;
  [[nodiscard]] bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Wall-clock RealHotC: one pinned generator keeps kChurnWindow requests
/// outstanding over 32 keys with a warm set of 16, so misses are set by
/// capacity; the two workers inherit the generator's single-CPU affinity.
RepResult run_real_churn(std::uint64_t seed, bool traced, int cpu) {
  RepResult out;
  const CpuPin pin(cpu);
  if (!pin.pinned()) {
    out.correct = false;
    out.error = "could not pin to the chosen CPU";
    return out;
  }
  SpanLog spans;
  const auto t0 = Clock::now();
  const auto mix = workload::ConfigMix::qr_web_service(kChurnKeys);
  Rng rng(seed);
  std::vector<std::uint32_t> sequence(kChurnRequests);
  for (auto& index : sequence) {
    index = static_cast<std::uint32_t>(mix.sample(rng, 0.9));
  }
  std::vector<spec::RuntimeKey> keys;
  std::vector<double> image_mib;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    keys.push_back(spec::RuntimeKey::from_spec(mix.at(i).spec));
    image_mib.push_back(
        to_mib(engine::image_for_name(mix.at(i).spec.image).base_memory));
  }
  runtime::RealOptions options;
  options.worker_threads = 2;
  options.cold_start_scale = 0.0;
  options.max_warm = kChurnMaxWarm;
  auto hotc = std::make_unique<runtime::RealHotC>(options);
  const runtime::RealHotC::Handler echo = [](const std::string& arg) {
    return arg;
  };
  std::vector<double> latency_ms;
  latency_ms.reserve(kChurnRequests);
  std::vector<std::future<runtime::RealOutcome>> window(kChurnWindow);
  std::vector<Clock::time_point> sent(kChurnWindow);
  const pool::PoolView& warm = hotc->warm_pool();
  std::uint64_t mismatches = 0;
  double idle_runtime_ns = 0.0;
  double mem_peak_mib = 0.0;
  const auto t1 = Clock::now();
  const double cpu0 = process_cpu_seconds();

  Clock::time_point last_sample = t1;
  std::size_t last_warm = 0;
  const auto retire = [&](std::size_t i) {
    const std::size_t slot = i % kChurnWindow;
    runtime::RealOutcome outcome;
    {
      std::optional<SpanLog::Span> span;
      if (traced) span.emplace(spans, Layer::kRuntimeWait);
      outcome = window[slot].get();
    }
    const auto now = Clock::now();
    latency_ms.push_back(
        std::chrono::duration<double, std::milli>(now - sent[slot]).count());
    if (outcome.payload != std::to_string(i)) ++mismatches;
    idle_runtime_ns += static_cast<double>(last_warm) *
                       static_cast<double>(ns_between(last_sample, now));
    last_sample = now;
    last_warm = warm.total_available();
    if (i % kMemorySampleEvery == 0) {
      double mib_now = 0.0;
      for (std::size_t k = 0; k < keys.size(); ++k) {
        mib_now += static_cast<double>(warm.num_available(keys[k])) *
                   image_mib[k];
      }
      mem_peak_mib = std::max(mem_peak_mib, mib_now);
    }
  };
  for (std::size_t i = 0; i < kChurnRequests; ++i) {
    if (i >= kChurnWindow) retire(i - kChurnWindow);
    const auto& entry = mix.at(sequence[i]);
    const std::size_t slot = i % kChurnWindow;
    sent[slot] = Clock::now();
    std::optional<SpanLog::Span> span;
    if (traced) span.emplace(spans, Layer::kRuntimeSubmit);
    window[slot] = hotc->submit(entry.spec, entry.app, echo, std::to_string(i));
  }
  for (std::size_t i = kChurnRequests - std::min(kChurnRequests, kChurnWindow);
       i < kChurnRequests; ++i) {
    retire(i);
  }
  const auto t2 = Clock::now();
  const double cpu1 = process_cpu_seconds();
  hotc->shutdown();

  out.setup_s = seconds_between(t0, t1);
  out.run_s = seconds_between(t1, t2);
  out.attempted = kChurnRequests;
  out.failed = mismatches;
  if (mismatches != 0) {
    out.correct = false;
    out.error = "a future returned another request's payload";
  } else if (hotc->reuses() + hotc->cold_starts() != kChurnRequests) {
    out.correct = false;
    out.error = "reuses + cold_starts != requests";
  } else if (hotc->warm_count() > kChurnMaxWarm) {
    out.correct = false;
    out.error = "warm set above max_warm";
  }
  const double reqs = static_cast<double>(kChurnRequests);
  out.e2e["cold_ratio"] = static_cast<double>(hotc->cold_starts()) / reqs;
  add_latency_metrics(latency_ms, out);
  out.e2e["idle_container_s"] = idle_runtime_ns / 1e9;
  out.e2e["sim_mem_peak_mb"] = mem_peak_mib;
  if (traced) {
    const pool::PoolStats pool_stats = warm.stats_snapshot();
    auto& l = out.layers;
    l["pool.hit_ratio"] = pool_stats.hit_rate();
    l["pool.evictions_per_kreq"] =
        1e3 * static_cast<double>(pool_stats.evictions) / reqs;
    l["pool.returns"] = static_cast<double>(pool_stats.returns);
    l["runtime.submit_us"] = spans.layer(Layer::kRuntimeSubmit).mean_us();
    l["runtime.wait_us"] = spans.layer(Layer::kRuntimeWait).mean_us();
    l["runtime.cpu_s"] = cpu1 - cpu0;
    out.spans = span_summary(spans);
  }
  return out;
}

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  if (name == "steady_web") {
    *out = Workload::kSteadyWeb;
  } else if (name == "tenants_pressure") {
    *out = Workload::kTenantsPressure;
  } else if (name == "real_churn") {
    *out = Workload::kRealChurn;
  } else {
    return false;
  }
  return true;
}

RepResult run_repetition(Workload workload, std::uint64_t seed, bool traced,
                         int pinned_cpu) {
  if (workload == Workload::kRealChurn) {
    return run_real_churn(seed, traced, pinned_cpu);
  }
  if (!traced) return run_sim_untraced(workload, seed);
  RepResult out = run_sim_traced(workload, seed);
  if (workload == Workload::kSteadyWeb) {
    // real_churn's host-time figures are too unsteady to gate on, so
    // steady_web's traced run also drives its RealHotC loop: the runtime
    // layer is then measured on a gated workload.
    const RepResult real = run_real_churn(seed, true, pinned_cpu);
    for (const char* name :
         {"runtime.submit_us", "runtime.wait_us", "runtime.cpu_s"}) {
      out.layers[name] = real.layers.at(name);
    }
    if (!real.correct) {
      out.correct = false;
      out.error = "RealHotC loop: " + real.error;
    }
  }
  return out;
}

}  // namespace perfbench
