// Pure helpers of the benchmark program: percentile selection, medians,
// metric-name validation and the one-line JSON result.  Header-only and
// free of HotC dependencies so tests/selftest.cpp can check them alone.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Zero-based index of the nearest-rank q-quantile of n sorted samples:
/// the smallest index i with (i + 1) / n >= q.  Requires n > 0.
inline std::size_t nearest_rank_index(std::size_t n, double q) {
  if (q <= 0.0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::min(n, std::max<std::size_t>(rank, 1)) - 1;
}

/// Nearest-rank q-quantile of `values` (reordered in place).  Selection,
/// not a sort: the benchmark asks for three quantiles of ~10^6 samples.
inline double select_quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto k = values.begin() + static_cast<std::ptrdiff_t>(
                                      nearest_rank_index(values.size(), q));
  std::nth_element(values.begin(), k, values.end());
  return *k;
}

/// Mean of the largest `share` of `sorted` (ascending), at least one
/// sample: the expected shortfall beyond the (1 - share) quantile.
inline double tail_mean(const std::vector<double>& sorted, double share) {
  if (sorted.empty()) return 0.0;
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(share * static_cast<double>(sorted.size())));
  double sum = 0.0;
  for (std::size_t i = sorted.size() - k; i < sorted.size(); ++i) {
    sum += sorted[i];
  }
  return sum / static_cast<double>(k);
}

/// Median of a handful of per-repetition values (mean of the middle pair
/// for an even count).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Metric names: 1-64 characters from [A-Za-z0-9_.-], starting with a
/// letter or digit.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Units: 1-16 characters from [A-Za-z0-9_/%.-] ("ms", "1/s", "count").
inline bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
/// Values keep all 17 significant digits.  Returns an empty string when a
/// name or unit is invalid, a name repeats, or a value is not finite; the
/// caller then fails the run instead of printing a malformed result.
inline std::string result_line(bool correct, std::uint64_t attempted,
                               std::uint64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  std::vector<std::string_view> seen;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name) || !valid_unit(m.unit) ||
        !std::isfinite(m.value)) {
      return {};
    }
    if (std::find(seen.begin(), seen.end(), m.name) != seen.end()) return {};
    seen.emplace_back(m.name);
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
