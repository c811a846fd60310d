// Golden digests of whole FaasPlatform runs.
//
// Each case replays a fixed workload under HotC and pins four outcomes:
// the cold count, an FNV-1a hash of the per-request latency sequence (in
// completion order), the controller's idle container-seconds and the
// engine's memory high-watermark.  The simulator is deterministic, so any
// change to event ordering, tie-breaking or request plumbing that moves a
// single latency or the firing order of two simultaneous events shows up
// here.  The observability case also pins what the tick tail writes: the
// TSDB's raw buffers, every SLO series' state and alert, every journal
// record and the final Prometheus rendering.  A change that is meant to
// alter simulated behaviour or observability output must re-pin these
// values and say why.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "core/rng.hpp"
#include "faas/platform.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"
#include "workload/mix.hpp"
#include "workload/patterns.hpp"
#include "workload/population.hpp"

namespace hotc::faas {
namespace {

struct Digest {
  std::size_t cold = 0;
  std::uint64_t latency_fnv = 0;
  double idle_container_seconds = 0.0;
  Bytes memory_high_watermark = 0;
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                          std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a_str(std::uint64_t h, const std::string& s) {
  return fnv1a(fnv1a_bytes(h, s.data(), s.size()), s.size());
}

std::uint64_t fnv1a_f64(std::uint64_t h, double v) {
  return fnv1a(h, std::bit_cast<std::uint64_t>(v));
}

/// What the observability stack holds after a run.
struct ObsDigest {
  std::size_t cold = 0;
  std::uint64_t latency_fnv = 0;
  std::uint64_t tsdb_fnv = 0;     // ring, frame, series and name buffers
  std::uint64_t slo_fnv = 0;      // every series' status, then every alert
  std::size_t slo_series = 0;
  std::uint64_t alerts_fired = 0;
  std::uint64_t journal_fnv = 0;  // every record, in append order
  std::size_t journal_records = 0;
  std::uint64_t prometheus_fnv = 0;
};

/// 200 tenant functions under a 20-container cap, with sharing, tiering
/// and the full observability stack: the miss ladder, eviction and the
/// adaptive tick's tail all run, and per-key instruments keep appearing
/// between ticks.
ObsDigest run_obs_digest() {
  obs::Registry registry;
  obs::Tracer tracer{8192, &registry};
  obs::SloEngine slo{registry, obs::default_slos()};
  obs::DecisionJournal journal{1 << 15};
  obs::TimeSeriesStore tsdb{registry, obs::TsdbOptions{}, &slo};

  workload::PopulationOptions popt;
  popt.functions = 200;
  popt.horizon = minutes(30);
  const auto population = workload::FunctionPopulation::generate(popt);

  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  opt.hotc.limits.max_live = 20;
  opt.hotc.enable_sharing = true;
  opt.hotc.tiering.enabled = true;
  opt.hotc.tiering.alpha = 0.5;
  opt.hotc.tiering.store.capacity_bytes = gib(1);
  opt.registry = &registry;
  opt.tracer = &tracer;
  opt.hotc.journal = &journal;
  opt.hotc.slo = &slo;
  opt.hotc.tsdb = &tsdb;
  FaasPlatform platform(opt);
  const auto arrivals = population.arrivals();
  const auto recorder = platform.run(
      arrivals, workload::ConfigMix::qr_web_service(popt.functions));
  EXPECT_EQ(platform.failed_requests(), 0u);
  EXPECT_EQ(recorder.points().size(), arrivals.size());

  ObsDigest d;
  d.latency_fnv = kFnvBasis;
  for (const auto& p : recorder.points()) {
    if (p.cold) ++d.cold;
    d.latency_fnv = fnv1a(d.latency_fnv,
                          static_cast<std::uint64_t>(p.latency.count()));
  }

  d.tsdb_fnv = kFnvBasis;
  for (const auto& region : {tsdb.ring_region(), tsdb.frame_region(),
                             tsdb.series_region(), tsdb.name_region()}) {
    d.tsdb_fnv = fnv1a_bytes(d.tsdb_fnv, region.data, region.bytes);
  }

  d.slo_fnv = kFnvBasis;
  const auto statuses = slo.status();
  d.slo_series = statuses.size();
  for (const obs::SloStatus& st : statuses) {
    d.slo_fnv = fnv1a_str(d.slo_fnv, st.slo);
    d.slo_fnv = fnv1a_str(d.slo_fnv, st.labels);
    d.slo_fnv = fnv1a_f64(d.slo_fnv, st.value);
    d.slo_fnv = fnv1a_f64(d.slo_fnv, st.fast_burn);
    d.slo_fnv = fnv1a_f64(d.slo_fnv, st.slow_burn);
    d.slo_fnv = fnv1a(d.slo_fnv, st.firing ? 1 : 0);
    d.slo_fnv = fnv1a(d.slo_fnv, st.ticks);
  }
  for (const obs::SloAlert& a : slo.alerts()) {
    d.slo_fnv = fnv1a(d.slo_fnv, a.tick);
    d.slo_fnv = fnv1a_str(d.slo_fnv, a.slo);
    d.slo_fnv = fnv1a_str(d.slo_fnv, a.labels);
    d.slo_fnv = fnv1a_f64(d.slo_fnv, a.fast_burn);
    d.slo_fnv = fnv1a_f64(d.slo_fnv, a.slow_burn);
    d.slo_fnv = fnv1a(d.slo_fnv, static_cast<std::uint64_t>(a.kind));
  }
  d.alerts_fired = slo.alerts_fired();

  EXPECT_EQ(journal.dropped(), 0u);
  EXPECT_EQ(journal.rejected(), 0u);
  d.journal_fnv = kFnvBasis;
  const auto records = journal.snapshot();
  d.journal_records = records.size();
  for (const obs::DecisionRecord& r : records) {
    for (const std::uint64_t v :
         {r.tick, r.key_hash, std::uint64_t{r.key_id},
          std::bit_cast<std::uint64_t>(r.demand),
          std::bit_cast<std::uint64_t>(r.smoothed),
          std::bit_cast<std::uint64_t>(r.forecast),
          static_cast<std::uint64_t>(r.markov_region), std::uint64_t{r.have},
          std::uint64_t{r.available}, std::uint64_t{r.headroom},
          std::uint64_t{r.prewarms}, std::uint64_t{r.retires},
          std::uint64_t{r.evictions}, std::uint64_t{r.donations},
          std::uint64_t{r.flags}}) {
      d.journal_fnv = fnv1a(d.journal_fnv, v);
    }
  }

  d.prometheus_fnv = fnv1a_str(kFnvBasis, obs::to_prometheus(registry));
  return d;
}

Digest run_digest(const workload::ArrivalList& arrivals) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  FaasPlatform platform(opt);
  const auto recorder =
      platform.run(arrivals, workload::ConfigMix::qr_web_service(6));
  EXPECT_EQ(platform.failed_requests(), 0u);
  EXPECT_EQ(recorder.points().size(), arrivals.size());
  Digest d;
  d.latency_fnv = 1469598103934665603ull;
  for (const auto& p : recorder.points()) {
    if (p.cold) ++d.cold;
    d.latency_fnv = fnv1a(d.latency_fnv,
                          static_cast<std::uint64_t>(p.latency.count()));
  }
  d.idle_container_seconds =
      platform.hotc_controller()->stats().idle_container_seconds;
  d.memory_high_watermark = platform.engine().memory_high_watermark();
  return d;
}

/// Section V-B web service, scaled down: six QR keys, Poisson 200 req/s
/// for five virtual minutes.
workload::ArrivalList web_arrivals(std::uint64_t seed) {
  Rng rng(seed);
  return workload::poisson(200.0, minutes(5), rng, 6, 0.9);
}

void expect_digest(const Digest& got, const Digest& want) {
  EXPECT_EQ(got.cold, want.cold);
  EXPECT_EQ(got.latency_fnv, want.latency_fnv);
  EXPECT_EQ(got.idle_container_seconds, want.idle_container_seconds);
  EXPECT_EQ(got.memory_high_watermark, want.memory_high_watermark);
}

// Metric labels and journal records carry interned KeyIds, which number
// keys in first-sight order within the process.  ctest runs each case in
// its own process, and this case is declared first so that a plain run of
// the whole binary also interns its keys from a fresh table.
TEST(PlatformGolden, TenantsWithFullObservability) {
  const ObsDigest d = run_obs_digest();
  EXPECT_EQ(d.cold, 2295u);
  EXPECT_EQ(d.latency_fnv, 9097711661374711ull);
  EXPECT_EQ(d.tsdb_fnv, 15947634666718727499ull);
  EXPECT_EQ(d.slo_fnv, 10273200958243877923ull);
  EXPECT_EQ(d.slo_series, 122u);
  EXPECT_EQ(d.alerts_fired, 423u);
  EXPECT_EQ(d.journal_fnv, 8034998327561234943ull);
  EXPECT_EQ(d.journal_records, 6000u);
  EXPECT_EQ(d.prometheus_fnv, 11233327862458378546ull);
}

TEST(PlatformGolden, WebServiceSeed1) {
  expect_digest(run_digest(web_arrivals(1)),
                Digest{180, 2150629796893934379ull, 17580.0, 2733629440});
}

TEST(PlatformGolden, WebServiceSeed2) {
  expect_digest(run_digest(web_arrivals(2)),
                Digest{187, 5575331412251321639ull, 17310.0, 2481254400});
}

// An unsorted list with exact ties: every 25th arrival is duplicated onto
// another key at the same instant, then the whole list is shuffled.  The
// platform fires arrivals in (time, list index) order, and its adaptive
// loop runs to the latest arrival plus the slack.
TEST(PlatformGolden, ShuffledListWithTies) {
  workload::ArrivalList arrivals = web_arrivals(3);
  const std::size_t n = arrivals.size();
  for (std::size_t i = 0; i < n; i += 25) {
    arrivals.push_back(workload::Arrival{
        arrivals[i].at, (arrivals[i].config_index + 1) % 6});
  }
  Rng rng(99);
  for (std::size_t i = arrivals.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(arrivals[i], arrivals[j]);
  }
  expect_digest(run_digest(arrivals),
                Digest{185, 7577036093482371403ull, 17430.0, 2569441280});
}

// Arrivals on an exact 2 ms grid for two virtual minutes, keys in
// rotation: each request's 2 ms client-to-gateway hop lands on the next
// arrival's instant, and every 30 s adaptive tick lands on an arrival: a
// run full of exactly simultaneous events, which the Poisson cases lack.
TEST(PlatformGolden, GridArrivalsTieWithHopsAndTicks) {
  workload::ArrivalList arrivals;
  for (std::int64_t i = 0; i < 60000; ++i) {
    arrivals.push_back(workload::Arrival{
        milliseconds(2) * i, static_cast<std::size_t>(i % 6)});
  }
  expect_digest(run_digest(arrivals),
                Digest{94, 4610472142470245413ull, 4110.0, 2936176640});
}

}  // namespace
}  // namespace hotc::faas
