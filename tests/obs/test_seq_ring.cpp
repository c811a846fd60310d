// SeqRing (core/seq_ring.hpp) over both codecs: wraparound semantics,
// field round trips and multi-writer safety, run once as the span
// FlightRecorder and once as the DecisionJournal.
//
// The concurrent tests are the reason this binary carries the `tsan`
// ctest label: under -DHOTC_SANITIZE=thread they prove the publish
// protocol (ticket fetch_add + CAS slot claim + seqlock slot writes) is
// race-free, and the payload invariant check proves readers never observe
// a torn record even while writers lap the ring.
#include "core/seq_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace hotc::obs {
namespace {

// Each ring's record carries an id and spreads values derived from it
// over several payload words; any torn read (a mix of two writers' words
// surviving validation) breaks whole().
template <class Ring>
struct RingTraits;

template <>
struct RingTraits<FlightRecorder> {
  using Record = SpanRecord;
  static void put(FlightRecorder& ring, const Record& rec) {
    ring.publish(rec);
  }
  static Record make(std::uint64_t id) {
    SpanRecord rec;
    rec.trace_id = id;
    rec.key_hash = id * 2654435761u;
    rec.start_ns = static_cast<std::int64_t>(id & 0x7fffffff);
    rec.dur_ns = 1;
    rec.stage = Stage::kExec;
    rec.shard = static_cast<std::uint16_t>(id >> 32);
    return rec;
  }
  static std::uint64_t id(const Record& rec) { return rec.trace_id; }
  static bool whole(const Record& rec) {
    return rec.key_hash == rec.trace_id * 2654435761u &&
           rec.start_ns ==
               static_cast<std::int64_t>(rec.trace_id & 0x7fffffff) &&
           rec.shard == static_cast<std::uint16_t>(rec.trace_id >> 32);
  }
  /// Every field away from its default; span_seq is the first ticket.
  static Record full() {
    SpanRecord rec;
    rec.trace_id = 0xfeedface12345678ull;
    rec.key_hash = 0xdeadbeefcafef00dull;
    rec.start_ns = -1'000'000'007;
    rec.dur_ns = 0x7fffffffffffffffll;
    rec.span_seq = 0;
    rec.shard = 0xfffe;
    rec.stage = Stage::kCheckpoint;
    rec.flags = kSpanCold | kSpanError;
    return rec;
  }
  static void expect_same(const Record& got, const Record& want) {
    EXPECT_EQ(got.trace_id, want.trace_id);
    EXPECT_EQ(got.key_hash, want.key_hash);
    EXPECT_EQ(got.start_ns, want.start_ns);
    EXPECT_EQ(got.dur_ns, want.dur_ns);
    EXPECT_EQ(got.span_seq, want.span_seq);
    EXPECT_EQ(got.shard, want.shard);
    EXPECT_EQ(got.stage, want.stage);
    EXPECT_EQ(got.flags, want.flags);
  }
};

template <>
struct RingTraits<DecisionJournal> {
  using Record = DecisionRecord;
  // One tick for every record keeps racing writers inside the audit.
  static void put(DecisionJournal& ring, const Record& rec) {
    ring.append(rec);
  }
  static Record make(std::uint64_t id) {
    DecisionRecord rec;
    rec.tick = 1;
    rec.key_hash = id;
    rec.demand = static_cast<double>(id & 0xffffffff);
    rec.available = static_cast<std::uint16_t>(id >> 32);
    rec.key_id = static_cast<std::uint32_t>(id * 2654435761u);
    return rec;
  }
  static std::uint64_t id(const Record& rec) { return rec.key_hash; }
  static bool whole(const Record& rec) {
    return rec.tick == 1 &&
           rec.demand == static_cast<double>(rec.key_hash & 0xffffffff) &&
           rec.available == static_cast<std::uint16_t>(rec.key_hash >> 32) &&
           rec.key_id == static_cast<std::uint32_t>(rec.key_hash * 2654435761u);
  }
  static Record full() {
    DecisionRecord r;
    r.tick = 42;
    r.key_hash = 0xdeadbeefcafef00dull;
    r.key_id = 0xfffffffe;
    r.demand = 7.25;
    r.smoothed = 6.875;
    r.forecast = 0.1;  // not exactly representable: bit fidelity matters
    r.markov_region = -1;
    r.have = 65535;
    r.available = 12345;
    r.headroom = 1;
    r.prewarms = 3;
    r.retires = 65000;
    r.evictions = 7;
    r.donations = 2;
    r.flags = kJournalDriftRestart | kJournalDonorNominated;
    return r;
  }
  static void expect_same(const Record& got, const Record& want) {
    EXPECT_EQ(got.tick, want.tick);
    EXPECT_EQ(got.key_hash, want.key_hash);
    EXPECT_EQ(got.key_id, want.key_id);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.demand),
              std::bit_cast<std::uint64_t>(want.demand));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.smoothed),
              std::bit_cast<std::uint64_t>(want.smoothed));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.forecast),
              std::bit_cast<std::uint64_t>(want.forecast));
    EXPECT_EQ(got.markov_region, want.markov_region);
    EXPECT_EQ(got.have, want.have);
    EXPECT_EQ(got.available, want.available);
    EXPECT_EQ(got.headroom, want.headroom);
    EXPECT_EQ(got.prewarms, want.prewarms);
    EXPECT_EQ(got.retires, want.retires);
    EXPECT_EQ(got.evictions, want.evictions);
    EXPECT_EQ(got.donations, want.donations);
    EXPECT_EQ(got.flags, want.flags);
  }
};

template <class Ring>
class SeqRingTest : public ::testing::Test {
 protected:
  using Traits = RingTraits<Ring>;

  /// `writers` threads each publish `count` records; writer w's ids are
  /// (w << 32) | i.
  static void hammer(Ring& ring, std::uint64_t writers, int count) {
    std::vector<std::thread> threads;
    for (std::uint64_t w = 1; w <= writers; ++w) {
      threads.emplace_back([&ring, w, count] {
        for (int i = 0; i < count; ++i) {
          Traits::put(ring, Traits::make((w << 32) | static_cast<std::uint64_t>(i)));
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  static void check_no_torn_records(const Ring& ring) {
    for (const auto& rec : ring.snapshot()) {
      ASSERT_TRUE(Traits::whole(rec))
          << "torn record: id " << Traits::id(rec);
    }
  }
};

using Rings = ::testing::Types<FlightRecorder, DecisionJournal>;
TYPED_TEST_SUITE(SeqRingTest, Rings);

TYPED_TEST(SeqRingTest, PackUnpackRoundTripsEveryField) {
  using T = RingTraits<TypeParam>;
  TypeParam ring(8);
  T::put(ring, T::full());
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  T::expect_same(snap[0], T::full());
}

TYPED_TEST(SeqRingTest, WraparoundKeepsOnlyTheLastCapacity) {
  using T = RingTraits<TypeParam>;
  TypeParam ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    T::put(ring, T::make(i));
  }
  EXPECT_EQ(ring.recorded(), 20u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Oldest surviving record is #13: 20 - 8 + 1.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(T::id(snap[i]), 13 + i);
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

TYPED_TEST(SeqRingTest, ManyWrapsStayConsistent) {
  using T = RingTraits<TypeParam>;
  TypeParam ring(4);
  for (std::uint64_t i = 1; i <= 1003; ++i) {
    T::put(ring, T::make(i));
  }
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(T::id(snap.front()), 1000u);
  EXPECT_EQ(T::id(snap.back()), 1003u);
}

TYPED_TEST(SeqRingTest, ConcurrentWritersNeverTearRecords) {
  TypeParam ring(64);  // small ring: writers lap it constantly
  this->hammer(ring, 4, 20000);
  EXPECT_EQ(ring.recorded(), 4u * 20000u);
  const auto snap = ring.snapshot();
  EXPECT_LE(snap.size(), ring.capacity());
  EXPECT_FALSE(snap.empty());
  this->check_no_torn_records(ring);
  // Drops only happen under lapping, which this test does not force
  // deterministically.
  EXPECT_LE(ring.dropped(), ring.recorded());
}

TYPED_TEST(SeqRingTest, DroppedIsMonotoneUnderLapping) {
  // A tiny ring hammered by several writers laps constantly; a stalled
  // writer abandons its slot and counts a drop.  The span drop counter
  // feeds hotc_trace_dropped_total and the trace_drop_ratio SLO, so it
  // must read as a well-formed counter: non-decreasing across polls and
  // never exceeding recorded().  (Whether any drop actually happens is
  // scheduler luck, not gated.)
  TypeParam ring(4);
  std::atomic<bool> stop{false};
  std::thread poller([&ring, &stop] {
    std::uint64_t last_dropped = 0;
    std::uint64_t last_recorded = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t dropped = ring.dropped();
      const std::uint64_t recorded = ring.recorded();
      ASSERT_GE(dropped, last_dropped);
      ASSERT_GE(recorded, last_recorded);
      last_dropped = dropped;
      last_recorded = recorded;
    }
  });
  this->hammer(ring, 3, 30000);
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  EXPECT_EQ(ring.recorded(), 90000u);
  EXPECT_LE(ring.dropped(), ring.recorded());
}

TYPED_TEST(SeqRingTest, ConcurrentReadersSeeOnlyWholeRecords) {
  TypeParam ring(32);
  std::atomic<bool> stop{false};
  std::thread reader([&ring, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      TestFixture::check_no_torn_records(ring);
    }
    TestFixture::check_no_torn_records(ring);
  });
  this->hammer(ring, 3, 30000);
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(ring.recorded(), 90000u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(1000).capacity(), 1024u);
}

TEST(FlightRecorder, SnapshotReturnsSpansOldestFirst) {
  FlightRecorder ring(8);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    SpanRecord rec;
    rec.trace_id = i;
    rec.start_ns = static_cast<std::int64_t>(i) * 100;
    ring.publish(rec);
  }
  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 5u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].trace_id, i + 1);
    // span_seq is the publication ticket.
    EXPECT_EQ(spans[i].span_seq, i);
  }
}

TEST(Tracer, DisabledSpanIsANoOp) {
  Tracer tracer(16);
  tracer.set_enabled(false);
  tracer.span(1, Stage::kExec, seconds(1), milliseconds(5));
  EXPECT_EQ(tracer.recorder().recorded(), 0u);
  tracer.set_enabled(true);
  tracer.span(1, Stage::kExec, seconds(1), milliseconds(5));
  EXPECT_EQ(tracer.recorder().recorded(), 1u);
}

TEST(Tracer, FeedsStageHistogramsForTimedSpansOnly) {
  Registry reg;
  Tracer tracer(16, &reg);
  tracer.span(1, Stage::kExec, seconds(1), milliseconds(5));
  tracer.span(1, Stage::kPoolLookup, seconds(1), kZeroDuration);  // marker
  for (const auto& s : reg.snapshot()) {
    // The tracer also registers hotc_trace_recorded/dropped_total.
    if (s.name != "hotc_stage_duration_ms") continue;
    if (s.labels == "stage=\"exec\"") {
      EXPECT_EQ(s.histogram.total, 1u);
      EXPECT_DOUBLE_EQ(s.histogram.sum, 5.0);
    } else {
      // Instant markers contribute no duration sample.
      EXPECT_EQ(s.histogram.total, 0u);
    }
  }
}

TEST(Tracer, NextTraceIdIsUniqueAndNonZero) {
  Tracer tracer(16);
  const auto a = tracer.next_trace_id();
  const auto b = tracer.next_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace hotc::obs
