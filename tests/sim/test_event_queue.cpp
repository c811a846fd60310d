#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

namespace hotc::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(seconds(3), [&]() { fired.push_back(3); });
  q.push(seconds(1), [&]() { fired.push_back(1); });
  q.push(seconds(2), [&]() { fired.push_back(2); });
  while (!q.empty()) {
    auto [t, fn] = q.pop();
    fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreak) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.push(seconds(1), [&fired, i]() { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelDropsEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(seconds(1), [&]() { fired = true; });
  q.push(seconds(2), []() {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceIsFalse) {
  EventQueue q;
  const EventId id = q.push(seconds(1), []() {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireIsFalse) {
  EventQueue q;
  const EventId id = q.push(seconds(1), []() {});
  q.pop().second();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.push(seconds(1), []() {});
  q.push(seconds(5), []() {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), seconds(5));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  const EventId a = q.push(seconds(1), []() {});
  q.push(seconds(2), []() {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, IdsGrowInInsertionOrder) {
  EventQueue q;
  const EventId a = q.push(seconds(5), []() {});
  const EventId b = q.push(seconds(1), []() {});
  const EventId c = q.push(seconds(3), []() {});
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(EventQueue, MoveOnlyCapture) {
  EventQueue q;
  int seen = 0;
  auto owned = std::make_unique<int>(42);
  q.push(seconds(1), [&seen, p = std::move(owned)]() { seen = *p; });
  q.pop().second();
  EXPECT_EQ(seen, 42);
}

TEST(EventQueue, LargeCaptureTakesHeapFallback) {
  std::array<std::uint64_t, 16> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i + 1;
  std::uint64_t sum = 0;
  auto big = [&sum, payload]() {
    for (const auto v : payload) sum += v;
  };
  auto small = [&sum]() { ++sum; };
  static_assert(!EventFn::fits_inline<decltype(big)>);
  static_assert(EventFn::fits_inline<decltype(small)>);

  // Enough pending events to force the slab to grow (and relocate) while
  // the boxed callable is parked in it.
  EventQueue q;
  q.push(seconds(2), big);
  for (int i = 0; i < 100; ++i) q.push(seconds(1), small);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(sum, 100u + 136u);
}

TEST(EventQueue, ReservedSeqsTieWithPushes) {
  EventQueue q;
  std::vector<char> fired;
  const auto record = [&fired](char c) {
    return [&fired, c]() { fired.push_back(c); };
  };
  q.push(seconds(1), record('a'));             // seq 1
  const EventSeq first = q.reserve(3);         // seqs 2, 3, 4
  q.push(seconds(1), record('e'));             // seq 5
  q.push_reserved(seconds(1), first + 2, record('d'));
  q.push_reserved(seconds(1), first, record('b'));
  q.push_reserved(seconds(0), first + 1, record('z'));  // earlier time wins
  EXPECT_EQ(first, 2u);
  EXPECT_EQ(q.size(), 5u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<char>{'z', 'a', 'b', 'd', 'e'}));
}

TEST(EventQueue, StaleIdCannotCancelSlotsNewOccupant) {
  EventQueue q;
  const EventId fired_id = q.push(seconds(1), []() {});
  q.pop().second();
  bool ran = false;
  const EventId reused = q.push(seconds(2), [&ran]() { ran = true; });
  EXPECT_NE(reused, fired_id);
  EXPECT_FALSE(q.cancel(fired_id));
  EXPECT_EQ(q.size(), 1u);

  // Same after a cancellation frees the slot.
  EXPECT_TRUE(q.cancel(reused));
  const EventId third = q.push(seconds(3), [&ran]() { ran = true; });
  EXPECT_FALSE(q.cancel(reused));
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), seconds(3));
  q.pop().second();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(q.cancel(third));
}

TEST(EventQueue, CancelDestroysCallableAtOnce) {
  auto token = std::make_shared<int>(0);
  EventQueue q;
  const EventId id = q.push(seconds(1), [token]() {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, PendingClosuresDestroyedWithQueue) {
  auto token = std::make_shared<int>(0);
  {
    EventQueue q;
    std::array<char, 128> pad{};
    q.push(seconds(1), [token]() {});
    q.push(seconds(2), [token, pad]() { (void)pad; });  // boxed on the heap
    q.push(seconds(3), [token]() {});
    q.pop();  // popped and dropped without firing
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace hotc::sim
