// Self-test of the benchmark's pure helpers (src/report.hpp): percentile
// selection, the metric-name and unit patterns, and the result line's
// shape.  Build and run with
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "report.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void test_percentiles() {
  using perfbench::nearest_rank_index;
  using perfbench::select_quantile;
  check(nearest_rank_index(1, 0.5) == 0, "one sample is every quantile");
  check(nearest_rank_index(10, 0.5) == 4, "p50 of 10 is the 5th");
  check(nearest_rank_index(10, 0.9) == 8, "p90 of 10 is the 9th");
  check(nearest_rank_index(1000, 0.99) == 989, "p99 of 1000 is the 990th");
  check(nearest_rank_index(1000, 0.999) == 998, "p999 of 1000 is the 999th");
  check(nearest_rank_index(100, 1.0) == 99, "p100 is the maximum");
  check(nearest_rank_index(100, 0.0) == 0, "p0 is the minimum");

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // descending input
  check(select_quantile(v, 0.5) == 500.0, "select p50 of 1..1000");
  check(select_quantile(v, 0.99) == 990.0, "select p99 of 1..1000");
  check(select_quantile(v, 0.999) == 999.0, "select p999 of 1..1000");
  std::vector<double> empty;
  check(select_quantile(empty, 0.5) == 0.0, "empty input selects 0");

  std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  check(perfbench::tail_mean(sorted, 0.2) == 9.5, "tail mean of top 20%");
  check(perfbench::tail_mean(sorted, 0.01) == 10.0,
        "tail mean keeps at least one sample");
  check(perfbench::median({3, 1, 2}) == 2.0, "median of odd count");
  check(perfbench::median({4, 1, 3, 2}) == 2.5, "median of even count");
}

void test_names() {
  using perfbench::valid_metric_name;
  using perfbench::valid_unit;
  check(valid_metric_name("req_per_s"), "plain name");
  check(valid_metric_name("sim.events_per_req"), "dotted name");
  check(valid_metric_name("9-lives_x.y"), "leading digit, dash");
  check(!valid_metric_name(""), "empty name");
  check(!valid_metric_name("_hidden"), "leading underscore");
  check(!valid_metric_name(".dot"), "leading dot");
  check(!valid_metric_name("has space"), "space");
  check(!valid_metric_name("quote\""), "quote");
  check(!valid_metric_name("p/s"), "slash is for units only");
  check(valid_metric_name(std::string(64, 'a')), "64 characters");
  check(!valid_metric_name(std::string(65, 'a')), "65 characters");
  check(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"), "units");
  check(!valid_unit("") && !valid_unit("m s") &&
            !valid_unit(std::string(17, 'a')),
        "bad units");
}

void test_result_line() {
  using perfbench::Metric;
  using perfbench::result_line;
  const std::string line =
      result_line(true, 1000, 0,
                  {{"latency_ms", 1.2034, "ms"}, {"setup_s", 0.1, "s"}});
  check(line ==
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.10000000000000001, "
            "\"unit\": \"s\"}}}",
        "result line shape, all digits kept");
  check(result_line(false, 1, 1, {}) ==
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
            "\"metrics\": {}}",
        "incorrect run, no metrics");
  check(result_line(true, 1, 0, {{"bad name", 1.0, "s"}}).empty(),
        "invalid name refused");
  check(result_line(true, 1, 0, {{"x", 1.0, "s"}, {"x", 2.0, "s"}}).empty(),
        "repeated name refused");
  check(result_line(true, 1, 0,
                    {{"x", std::numeric_limits<double>::quiet_NaN(), "s"}})
            .empty(),
        "NaN refused");
  check(result_line(true, 1, 0, {{"x", 1.0, "bad unit"}}).empty(),
        "invalid unit refused");
}

}  // namespace

int main() {
  test_percentiles();
  test_names();
  test_result_line();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
