#include "faas/platform.hpp"

#include <gtest/gtest.h>

namespace hotc::faas {
namespace {

workload::ConfigMix qr_mix() { return workload::ConfigMix::qr_web_service(3); }

TEST(Platform, ColdAlwaysEveryRequestCold) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kColdAlways;
  FaasPlatform platform(opt);
  const auto arrivals = workload::serial(5, seconds(30));
  const auto recorder = platform.run(arrivals, qr_mix());
  const auto s = recorder.summary();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.cold_count, 5u);
  EXPECT_EQ(platform.failed_requests(), 0u);
}

TEST(Platform, HotCOnlyFirstRequestCold) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  FaasPlatform platform(opt);
  const auto arrivals = workload::serial(5, seconds(30));
  const auto recorder = platform.run(arrivals, qr_mix());
  const auto s = recorder.summary();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.cold_count, 1u);
  EXPECT_LT(s.warm_mean_ms, s.cold_mean_ms);
}

TEST(Platform, HotCControllerAccessible) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  FaasPlatform platform(opt);
  EXPECT_NE(platform.hotc_controller(), nullptr);

  PlatformOptions cold;
  cold.policy = PolicyKind::kColdAlways;
  FaasPlatform other(cold);
  EXPECT_EQ(other.hotc_controller(), nullptr);
}

TEST(Platform, KeepAliveBetweenColdAndHotC) {
  const auto arrivals = workload::serial(8, seconds(30));

  PlatformOptions cold_opt;
  cold_opt.policy = PolicyKind::kColdAlways;
  const auto cold = FaasPlatform(cold_opt).run(arrivals, qr_mix()).summary();

  PlatformOptions ka_opt;
  ka_opt.policy = PolicyKind::kKeepAlive;
  ka_opt.keep_alive = minutes(15);
  const auto ka = FaasPlatform(ka_opt).run(arrivals, qr_mix()).summary();

  PlatformOptions hot_opt;
  hot_opt.policy = PolicyKind::kHotC;
  const auto hot = FaasPlatform(hot_opt).run(arrivals, qr_mix()).summary();

  EXPECT_LT(ka.mean_ms, cold.mean_ms);
  EXPECT_LE(hot.cold_count, ka.cold_count);
  EXPECT_LT(hot.mean_ms, cold.mean_ms);
}

TEST(Platform, MonitorCollectsWhenEnabled) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  opt.monitor_period = seconds(5);
  FaasPlatform platform(opt);
  platform.run(workload::serial(4, seconds(30)), qr_mix());
  ASSERT_NE(platform.monitor(), nullptr);
  EXPECT_GT(platform.monitor()->cpu().size(), 10u);
}

// The run horizon follows the latest arrival, wherever it is listed: the
// adaptive loop must keep ticking through it, exactly as for the same
// arrivals listed in time order.
TEST(Platform, HorizonFollowsLatestArrivalNotLastListed) {
  const workload::ArrivalList sorted = {{seconds(0), 0},
                                        {minutes(2), 1},
                                        {minutes(5), 0}};
  const workload::ArrivalList unsorted = {sorted[2], sorted[1], sorted[0]};
  std::uint64_t ticks[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    PlatformOptions opt;
    opt.policy = PolicyKind::kHotC;
    FaasPlatform platform(opt);
    const auto recorder = platform.run(i == 0 ? sorted : unsorted, qr_mix());
    EXPECT_EQ(recorder.size(), 3u);
    ticks[i] = platform.hotc_controller()->adaptive_ticks();
  }
  // 30 s ticks through the latest arrival (5 min) plus the 2 min slack.
  EXPECT_EQ(ticks[0], 14u);
  EXPECT_EQ(ticks[1], ticks[0]);
}

TEST(Platform, EmptyWorkload) {
  PlatformOptions opt;
  FaasPlatform platform(opt);
  const auto recorder = platform.run({}, qr_mix());
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(Platform, ParallelConfigsIsolated) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kHotC;
  FaasPlatform platform(opt);
  // Two rounds of 3 threads, each thread its own config: round 1 all cold,
  // round 2 all warm.
  const auto arrivals = workload::parallel(3, 2, seconds(60));
  const auto recorder = platform.run(arrivals, qr_mix());
  const auto round1 = recorder.summary_between(kZeroDuration, seconds(30));
  const auto round2 = recorder.summary_between(seconds(30), seconds(120));
  EXPECT_EQ(round1.cold_count, 3u);
  EXPECT_EQ(round2.cold_count, 0u);
}

TEST(Platform, PolicyNames) {
  EXPECT_STREQ(to_string(PolicyKind::kColdAlways), "cold-always");
  EXPECT_STREQ(to_string(PolicyKind::kHotC), "hotc");
}

}  // namespace
}  // namespace hotc::faas

namespace hotc::faas {
namespace {

TEST(Platform, PeriodicWarmupRegistersPingsForWholeMix) {
  PlatformOptions opt;
  opt.policy = PolicyKind::kPeriodicWarmup;
  opt.warmup_period = minutes(5);
  opt.keep_alive = minutes(15);
  FaasPlatform platform(opt);
  // One real request at minute 50, long after the first ping round: the
  // warmup timers must have kept the runtime warm.
  workload::ArrivalList arrivals{{minutes(50), 0}};
  const auto mix = workload::ConfigMix::qr_web_service(2);
  const auto recorder = platform.run(arrivals, mix);
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_FALSE(recorder.points()[0].cold);
  auto* backend = dynamic_cast<PeriodicWarmupBackend*>(&platform.backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_GE(backend->warmup_pings(), 18u);  // 2 functions x ~10 rounds
}

TEST(Platform, PeriodicWarmupCostsPingsThatHotcAvoids) {
  const auto arrivals = workload::serial(4, minutes(10));
  const auto mix = workload::ConfigMix::qr_web_service(1);

  PlatformOptions warm_opt;
  warm_opt.policy = PolicyKind::kPeriodicWarmup;
  warm_opt.warmup_period = minutes(5);
  FaasPlatform warm(warm_opt);
  warm.run(arrivals, mix);

  PlatformOptions hot_opt;
  hot_opt.policy = PolicyKind::kHotC;
  FaasPlatform hot(hot_opt);
  hot.run(arrivals, mix);

  // Both keep the function warm, but the warmup policy burns extra execs.
  EXPECT_GT(warm.engine().execs(), hot.engine().execs());
}

}  // namespace
}  // namespace hotc::faas
