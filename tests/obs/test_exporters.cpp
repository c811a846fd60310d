#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/json.hpp"

namespace hotc::obs {
namespace {

std::vector<SpanRecord> sample_spans() {
  FlightRecorder ring(8);
  SpanRecord a;
  a.trace_id = 7;
  a.key_hash = 0xdeadbeefull;
  a.start_ns = 1'000'000;
  a.dur_ns = 250'000;
  a.shard = 3;
  a.stage = Stage::kColdStart;
  a.flags = kSpanCold;
  ring.publish(a);
  SpanRecord b;
  b.trace_id = 7;
  b.start_ns = 1'250'000;
  b.dur_ns = 0;
  b.stage = Stage::kReadmit;
  ring.publish(b);
  return ring.snapshot();
}

// --- Prometheus text format -------------------------------------------------

TEST(PrometheusExport, GoldenCounterAndGauge) {
  Registry reg;
  reg.counter("hotc_demo_total", "Demo events").inc(3);
  reg.gauge("hotc_demo_level", "Demo level", "shard=\"2\"").set(1.5);
  const std::string text = to_prometheus(reg, "instance=\"t\"");
  const std::string expected =
      "# HELP hotc_demo_level Demo level\n"
      "# TYPE hotc_demo_level gauge\n"
      "hotc_demo_level{instance=\"t\",shard=\"2\"} 1.5\n"
      "# HELP hotc_demo_total Demo events\n"
      "# TYPE hotc_demo_total counter\n"
      "hotc_demo_total{instance=\"t\"} 3\n";
  EXPECT_EQ(text, expected);
}

TEST(PrometheusExport, HistogramRendersCumulativeLeBuckets) {
  Registry reg;
  LogHistogram& h = reg.histogram("hotc_demo_ms", "Demo latency");
  h.observe(1.0);
  h.observe(1.0);
  h.observe(100.0);
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE hotc_demo_ms histogram"), std::string::npos);
  // Two non-empty buckets (1.0 twice, 100.0 once) rendered cumulatively,
  // then the fixed +Inf / _sum / _count tail.
  EXPECT_NE(text.find("hotc_demo_ms_bucket{le=\"1.25\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("hotc_demo_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("hotc_demo_ms_sum 102"), std::string::npos);
  EXPECT_NE(text.find("hotc_demo_ms_count 3"), std::string::npos);
  // Empty buckets are elided: exactly 2 finite-le bucket lines.
  std::size_t bucket_lines = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("_bucket{le=") != std::string::npos &&
        line.find("+Inf") == std::string::npos) {
      ++bucket_lines;
    }
  }
  EXPECT_EQ(bucket_lines, 2u);
}

TEST(PrometheusExport, EveryLineIsWellFormed) {
  Registry reg;
  reg.counter("hotc_a_total", "a").inc();
  reg.histogram("hotc_b_ms", "b").observe(2.0);
  reg.gauge("hotc_c", "c").set(0.25);
  std::istringstream lines(to_prometheus(reg, "instance=\"x\""));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find("{instance=\"x\""), std::string::npos) << line;
    EXPECT_NE(line.find("} "), std::string::npos) << line;
  }
}

// --- JSONL span dump --------------------------------------------------------

TEST(JsonlExport, OneParseableObjectPerSpan) {
  const auto spans = sample_spans();
  ASSERT_EQ(spans.size(), 2u);
  std::istringstream lines(spans_to_jsonl(spans));
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    const auto parsed = Json::parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ASSERT_TRUE(parsed.value().is_object());
    EXPECT_TRUE(parsed.value().contains("trace"));
    EXPECT_TRUE(parsed.value().contains("stage"));
    EXPECT_TRUE(parsed.value().contains("start_ns"));
    ++n;
  }
  EXPECT_EQ(n, spans.size());
}

TEST(JsonlExport, GoldenFieldEncoding) {
  const auto spans = sample_spans();
  std::istringstream lines(spans_to_jsonl(spans));
  std::string first;
  ASSERT_TRUE(std::getline(lines, first));
  const Json obj = Json::parse(first).value();
  EXPECT_DOUBLE_EQ(obj["trace"].as_number(), 7.0);
  EXPECT_EQ(obj["stage"].as_string(), "cold_start");
  EXPECT_DOUBLE_EQ(obj["dur_ns"].as_number(), 250000.0);
  EXPECT_EQ(obj["key"].as_string(), "00000000deadbeef");
  EXPECT_DOUBLE_EQ(obj["shard"].as_number(), 3.0);
  EXPECT_TRUE(obj["cold"].as_bool());
  // Optional fields are omitted, not emitted as defaults.
  std::string second;
  ASSERT_TRUE(std::getline(lines, second));
  const Json readmit = Json::parse(second).value();
  EXPECT_EQ(readmit["stage"].as_string(), "readmit");
  EXPECT_FALSE(readmit.contains("key"));
  EXPECT_FALSE(readmit.contains("shard"));
  EXPECT_FALSE(readmit.contains("cold"));
}

// --- chrome://tracing -------------------------------------------------------

TEST(ChromeTraceExport, LoadableCompleteEvents) {
  const auto spans = sample_spans();
  const auto parsed = Json::parse(spans_to_chrome_trace(spans));
  ASSERT_TRUE(parsed.ok());
  const Json& root = parsed.value();
  ASSERT_TRUE(root.contains("traceEvents"));
  const JsonArray& events = root["traceEvents"].as_array();
  ASSERT_EQ(events.size(), spans.size());
  const Json& ev = events[0];
  EXPECT_EQ(ev["ph"].as_string(), "X");
  EXPECT_EQ(ev["name"].as_string(), "cold_start");
  EXPECT_EQ(ev["cat"].as_string(), "hotc");
  // ts/dur are microseconds.
  EXPECT_DOUBLE_EQ(ev["ts"].as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(ev["dur"].as_number(), 250.0);
  EXPECT_DOUBLE_EQ(ev["args"]["trace"].as_number(), 7.0);
  EXPECT_TRUE(ev["args"]["cold"].as_bool());
}

}  // namespace
}  // namespace hotc::obs
