// Golden digests of whole FaasPlatform runs.
//
// Each case replays a fixed workload under HotC and pins four outcomes:
// the cold count, an FNV-1a hash of the per-request latency sequence (in
// completion order), the controller's idle container-seconds and the
// engine's memory high-watermark.  The simulator is deterministic, so any
// change to event ordering, tie-breaking or request plumbing that moves a
// single latency or the firing order of two simultaneous events shows up
// here.  A change that is meant to alter simulated behaviour must re-pin
// these values and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/rng.hpp"
#include "faas/platform.hpp"
#include "workload/mix.hpp"
#include "workload/patterns.hpp"

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
// platform fires arrivals in (time, list index) order.
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
                Digest{180, 1995965134237285316ull, 12720.0, 2569441280});
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
