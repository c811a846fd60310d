// Fuzz-style robustness for the black-box crash-dump decoder: mutated
// bytes and mutated region geometry of a valid dump must never make
// decode_dump read out of bounds or crash.  It either rejects the file
// or decodes it, with every decoded ring no larger than its region.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "obs/blackbox.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"

namespace hotc::obs {
namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A small but complete dump: both rings wrapped, TSDB frames, mirrors.
std::vector<std::uint8_t> valid_dump(const std::string& path) {
  Registry registry;
  Counter& reqs = registry.counter("hotc_fuzz_total", "fuzz");
  TsdbOptions small;
  small.frame_capacity = 16;
  small.ring_bytes = 4096;
  small.max_series = 32;
  small.name_bytes = 2048;
  TimeSeriesStore tsdb(registry, small);
  FlightRecorder spans(16);
  DecisionJournal journal(8, /*audit=*/false);
  {
    BlackBox box(path);
    box.attach_ring(spans);
    box.attach_ring(journal.ring());
    box.attach_tsdb(tsdb);
    for (std::uint64_t t = 1; t <= 24; ++t) {
      SpanRecord span;
      span.trace_id = t;
      span.dur_ns = 100;
      spans.publish(span);
      DecisionRecord rec;
      rec.tick = t;
      rec.key_hash = 0xabcd;
      journal.append(rec);
      reqs.inc(t % 5);
      tsdb.sample(t);
    }
    EXPECT_TRUE(box.dump_now(0, "fuzz", "seed dump"));
  }
  return read_file(path);
}

/// Byte offsets of every RegionHeader in a structurally valid dump.
std::vector<std::size_t> region_offsets(
    const std::vector<std::uint8_t>& bytes) {
  DumpHeader hdr;
  std::memcpy(&hdr, bytes.data(), sizeof(hdr));
  std::vector<std::size_t> out;
  std::size_t off = sizeof(DumpHeader);
  for (std::uint32_t i = 0; i < hdr.region_count; ++i) {
    RegionHeader rh;
    std::memcpy(&rh, bytes.data() + off, sizeof(rh));
    out.push_back(off);
    off += sizeof(RegionHeader) + rh.bytes;
  }
  return out;
}

/// Geometry values that sit on the decoder's boundaries: zero, one,
/// overflowing products, shifts at and past the word size, off-by-one
/// strides.
std::uint64_t edge_value(Rng& rng) {
  constexpr std::uint64_t kEdges[] = {0,  1,  2,  5,  8,  47, 48,  63,
                                      64, 65, 72, 127, 128, 4096,
                                      std::uint64_t{1} << 58,
                                      std::uint64_t{1} << 63, ~0ull};
  if (rng.uniform_int(0, 3) == 0) return rng.next();
  return kEdges[rng.index(std::size(kEdges))];
}

class DumpFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DumpFuzz, DecodeNeverReadsOutOfBounds) {
  const std::string base = ::testing::TempDir() + "hotc_dumpfuzz_" +
                           std::to_string(GetParam());
  const std::vector<std::uint8_t> valid = valid_dump(base + ".dump");
  ASSERT_GT(valid.size(), sizeof(DumpHeader) + sizeof(DumpTrailer));
  const std::vector<std::size_t> regions = region_offsets(valid);
  ASSERT_FALSE(regions.empty());

  Rng rng(GetParam());
  const std::string path = base + "_mut.dump";
  for (int i = 0; i < 400; ++i) {
    std::vector<std::uint8_t> bytes = valid;
    const int edits = 1 + static_cast<int>(rng.index(4));
    for (int e = 0; e < edits; ++e) {
      const std::size_t rh = regions[rng.index(regions.size())];
      switch (rng.uniform_int(0, 2)) {
        case 0: {  // a region's byte count or geometry parameter
          const std::size_t field = offsetof(RegionHeader, bytes) +
                                    sizeof(std::uint64_t) * rng.index(5);
          const std::uint64_t v = edge_value(rng);
          std::memcpy(bytes.data() + rh + field, &v, sizeof(v));
          break;
        }
        case 1:  // a random byte anywhere
          bytes[rng.index(bytes.size())] =
              static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          break;
        default: {  // a random byte at or after a region payload
          const std::size_t from = rh + sizeof(RegionHeader);
          bytes[from + rng.index(bytes.size() - from)] =
              static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
      }
    }
    if (rng.uniform_int(0, 7) == 0) bytes.resize(rng.index(bytes.size() + 1));
    write_file(path, bytes);
    DumpImage image;
    std::string error;
    if (decode_dump(path, &image, &error)) {
      EXPECT_LE(image.spans.size() + image.spans_torn, bytes.size() / 48);
      EXPECT_LE(image.decisions.size() + image.decisions_torn,
                bytes.size() / 72);
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
  std::remove(path.c_str());
  std::remove((base + ".dump").c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DumpFuzz,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace hotc::obs
