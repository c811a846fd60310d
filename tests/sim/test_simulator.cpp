#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace hotc::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), kZeroDuration);
}

TEST(Simulator, AdvancesToEventTime) {
  Simulator sim;
  TimePoint observed = kZeroDuration;
  sim.at(seconds(5), [&]() { observed = sim.now(); });
  sim.run();
  EXPECT_EQ(observed, seconds(5));
  EXPECT_EQ(sim.now(), seconds(5));
}

TEST(Simulator, AfterIsRelative) {
  Simulator sim;
  std::vector<TimePoint> times;
  sim.at(seconds(2), [&]() {
    sim.after(seconds(3), [&]() { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], seconds(5));
}

TEST(Simulator, NestedSchedulingRuns) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 10) sim.after(seconds(1), recurse);
  };
  sim.after(seconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), seconds(10));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.at(seconds(i), [&]() { ++fired; });
  }
  sim.run_until(seconds(4));
  EXPECT_EQ(fired, 4);  // events at exactly the deadline still fire
  EXPECT_EQ(sim.now(), seconds(4));
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunUntilAdvancesClockPastQuietGap) {
  Simulator sim;
  sim.run_until(seconds(100));
  EXPECT_EQ(sim.now(), seconds(100));
}

TEST(Simulator, EveryRepeatsUntilPredicateFalse) {
  Simulator sim;
  int ticks = 0;
  sim.every(seconds(10), [&]() { return ticks < 5; },
            [&]() { ++ticks; });
  sim.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.now(), seconds(60));  // 6th wake-up sees the false predicate
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.at(seconds(1), [&]() { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunReturnsEventCount) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.at(seconds(i + 1), []() {});
  EXPECT_EQ(sim.run(), 7u);
}

TEST(Simulator, StepProcessesOne) {
  Simulator sim;
  int fired = 0;
  sim.at(seconds(1), [&]() { ++fired; });
  sim.at(seconds(2), [&]() { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SameInstantFifo) {
  Simulator sim;
  std::vector<int> order;
  sim.at(seconds(1), [&]() { order.push_back(1); });
  sim.at(seconds(1), [&]() { order.push_back(2); });
  sim.at(seconds(1), [&]() { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ReservedSeriesFedLazilyKeepsUpFrontOrder) {
  // Three events at one instant, scheduled one at a time from inside each
  // other under reserved seqs, interleave with an ordinary event exactly
  // as if all four had been scheduled up front in reserve-then-at order.
  Simulator sim;
  std::vector<int> order;
  const EventSeq first = sim.reserve(3);
  sim.at(seconds(1), [&]() { order.push_back(9); });
  std::function<void(int)> feed = [&](int k) {
    sim.at_reserved(seconds(1), first + static_cast<EventSeq>(k), [&, k]() {
      order.push_back(k);
      if (k < 2) feed(k + 1);
    });
  };
  feed(0);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}

TEST(Simulator, EveryChainFreedWhenItEnds) {
  auto token = std::make_shared<int>(0);
  Simulator sim;
  int ticks = 0;
  sim.every(seconds(1), [&ticks]() { return ticks < 3; },
            [&ticks, token]() { ++ticks; });
  EXPECT_EQ(token.use_count(), 2);
  sim.run();
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace hotc::sim
