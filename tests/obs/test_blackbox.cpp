#include "obs/blackbox.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"

namespace hotc::obs {
namespace {

std::string temp_dump_path(const char* tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "hotc_bb_" + info->test_suite_name() + "_" +
         info->name() + "_" + tag + ".dump";
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void spew(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Full observability stack with deterministic traffic, wired to a
/// BlackBox at a per-test temp path.
struct CrashHarness {
  Registry registry;
  FlightRecorder tracer;
  DecisionJournal journal;
  SloEngine slo;
  Counter& reqs;
  TimeSeriesStore tsdb;
  std::string path;
  BlackBox box;

  CrashHarness()
      : tracer(256),
        journal(64),
        slo(registry, default_slos()),
        reqs(registry.counter("hotc_test_bb_total", "bb")),
        tsdb(registry, TsdbOptions{}, &slo),
        path(temp_dump_path("main")),
        box(path) {
    box.attach_ring(tracer);
    box.attach_ring(journal.ring());
    box.attach_tsdb(tsdb);
  }

  ~CrashHarness() { std::remove(path.c_str()); }

  void traffic(std::uint64_t ticks) {
    for (std::uint64_t t = 1; t <= ticks; ++t) {
      SpanRecord span;
      span.trace_id = 0x1000 + t;
      span.key_hash = 0xabcd;
      span.start_ns = static_cast<std::int64_t>(t) * 1000;
      span.dur_ns = 500;
      tracer.publish(span);

      DecisionRecord rec;
      rec.tick = t;
      rec.key_hash = 0xabcd;
      rec.demand = 2.0;
      journal.append(rec);

      reqs.inc(10 + t % 3);
      tsdb.sample(t);
      box.note_tick(t);
    }
  }
};

TEST(BlackBox, DumpDecodesBackToLiveState) {
  CrashHarness h;
  ASSERT_TRUE(h.box.ok());
  h.traffic(12);

  ASSERT_TRUE(h.box.dump_now(0, "test", "deliberate dump"));
  EXPECT_TRUE(h.box.dumped());

  DumpImage image;
  std::string error;
  ASSERT_TRUE(decode_dump(h.path, &image, &error)) << error;

  EXPECT_EQ(image.header.version, kDumpVersion);
  EXPECT_EQ(image.header.signal, 0);
  EXPECT_EQ(image.header.tick, 12u);
  EXPECT_NE(std::string(image.header.reason).find("test"),
            std::string::npos);
  EXPECT_NE(std::string(image.header.reason).find("deliberate dump"),
            std::string::npos);

  // Rings decode in publication order with nothing torn (no crash here).
  ASSERT_EQ(image.spans.size(), 12u);
  EXPECT_EQ(image.spans_torn, 0u);
  EXPECT_EQ(image.spans.front().trace_id, 0x1001u);
  EXPECT_EQ(image.spans.back().trace_id, 0x100cu);
  ASSERT_EQ(image.decisions.size(), 12u);
  EXPECT_EQ(image.decisions_torn, 0u);
  EXPECT_EQ(image.decisions.back().tick, 12u);

  // TSDB regions reconstruct the counter exactly as the live store would.
  ASSERT_TRUE(image.has_tsdb);
  EXPECT_EQ(image.tsdb.frames_torn, 0u);
  EXPECT_EQ(image.tsdb.frames_decoded, 12u);
  const PostmortemSeries* found = nullptr;
  for (const auto& s : image.tsdb.series) {
    if (s.name == "hotc_test_bb_total") found = &s;
  }
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->ticks.size(), 12u);
  const auto live = h.tsdb.range("hotc_test_bb_total", "");
  ASSERT_EQ(live.size(), 12u);
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(found->ticks[i], live[i].tick);
    EXPECT_DOUBLE_EQ(found->values[i], live[i].value);
  }
}

TEST(BlackBox, DumpIsOneShot) {
  CrashHarness h;
  h.traffic(3);
  ASSERT_TRUE(h.box.dump_now(0, "test", "first"));
  EXPECT_FALSE(h.box.dump_now(0, "test", "second"));
  EXPECT_FALSE(h.box.dump_now(11, "test", "third"));

  DumpImage image;
  std::string error;
  ASSERT_TRUE(decode_dump(h.path, &image, &error)) << error;
  EXPECT_NE(std::string(image.header.reason).find("first"),
            std::string::npos);
}

TEST(BlackBox, MirrorsCarrySloState) {
  CrashHarness h;
  h.traffic(5);
  h.box.update_slo_mirror(h.slo.status(), h.slo.alerts_fired());
  ASSERT_TRUE(h.box.dump_now(0, "test", "mirrors"));

  DumpImage image;
  std::string error;
  ASSERT_TRUE(decode_dump(h.path, &image, &error)) << error;
  ASSERT_TRUE(image.has_slo);
  EXPECT_EQ(image.slo.series_count, h.slo.status().size());
}

TEST(BlackBox, RejectsTruncatedDump) {
  CrashHarness h;
  h.traffic(6);
  ASSERT_TRUE(h.box.dump_now(0, "test", "to truncate"));

  std::vector<char> bytes = slurp(h.path);
  ASSERT_GT(bytes.size(), 64u);
  const std::string cut = temp_dump_path("cut");
  bytes.resize(bytes.size() - 64);
  spew(cut, bytes);

  DumpImage image;
  std::string error;
  EXPECT_FALSE(decode_dump(cut, &image, &error));
  EXPECT_FALSE(error.empty());
  std::remove(cut.c_str());
}

TEST(BlackBox, RejectsBadMagic) {
  CrashHarness h;
  h.traffic(2);
  ASSERT_TRUE(h.box.dump_now(0, "test", "to corrupt"));

  std::vector<char> bytes = slurp(h.path);
  ASSERT_GT(bytes.size(), 8u);
  bytes[0] = 'X';
  const std::string bad = temp_dump_path("bad");
  spew(bad, bytes);

  DumpImage image;
  std::string error;
  EXPECT_FALSE(decode_dump(bad, &image, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);
  std::remove(bad.c_str());
}

TEST(BlackBox, RejectsMissingFile) {
  DumpImage image;
  std::string error;
  EXPECT_FALSE(decode_dump(::testing::TempDir() + "hotc_bb_nonexistent.dump",
                           &image, &error));
  EXPECT_FALSE(error.empty());
}

TEST(BlackBox, ImpossibleRingGeometryDecodesAsEmptyRing) {
  // One readable-looking 64-byte span slot, described by geometry that
  // does not fit it.  The first case is the overflow: 2^58 slots of 64
  // bytes wrap capacity * stride to 0.
  std::uint64_t slot[8] = {2, 1, 2, 3, 4, 5, 0, 0};
  const std::uint64_t cases[][4] = {
      {std::uint64_t{1} << 58, 0, 5, 64},  // capacity * stride overflows
      {std::uint64_t{1} << 58, 58, 5, 64},
      {2, 1, 5, 64},    // two slots in one slot's bytes
      {1, 64, 5, 64},   // shift past the word size
      {2, 0, 5, 64},    // capacity != 1 << shift
      {1, 0, 8, 64},    // words of another codec
      {1, 0, 5, 40},    // stride shorter than seq + payload
  };
  for (const auto& params : cases) {
    const std::string path = temp_dump_path("geometry");
    {
      BlackBox box(path);
      box.attach_region(kRegionFlightRing, "flight_ring", slot, sizeof(slot),
                        params);
      ASSERT_TRUE(box.dump_now(0, "test", "crafted ring"));
    }
    DumpImage image;
    std::string error;
    ASSERT_TRUE(decode_dump(path, &image, &error)) << error;
    EXPECT_TRUE(image.spans.empty()) << "capacity " << params[0];
    EXPECT_EQ(image.spans_torn, 0u);
    std::remove(path.c_str());
  }
}

TEST(BlackBox, BadPathDegradesToNoop) {
  BlackBox box("/nonexistent-dir/sub/OBS_blackbox.dump");
  EXPECT_FALSE(box.ok());
  EXPECT_FALSE(box.dump_now(0, "test", "no fd"));
}

}  // namespace
}  // namespace hotc::obs
