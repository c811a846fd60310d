#include "workload/patterns.hpp"

#include <algorithm>
#include <cmath>

#include "core/assert.hpp"

namespace hotc::workload {
namespace {

/// Spread `count` arrivals uniformly across [start, start + period).
void spread_round(ArrivalList& out, TimePoint start, Duration period,
                  std::size_t count, std::size_t configs, Rng* rng,
                  double config_zipf) {
  if (count == 0) return;
  const Duration gap = period / static_cast<std::int64_t>(count);
  for (std::size_t i = 0; i < count; ++i) {
    Arrival a;
    a.at = start + gap * static_cast<std::int64_t>(i);
    if (configs > 1) {
      a.config_index = rng != nullptr ? rng->zipf(configs, config_zipf)
                                      : i % configs;
    }
    out.push_back(a);
  }
}

}  // namespace

ArrivalList serial(std::size_t count, Duration period,
                   std::size_t config_index) {
  ArrivalList out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(Arrival{period * static_cast<std::int64_t>(i),
                          config_index});
  }
  return out;
}

ArrivalList parallel(std::size_t threads, std::size_t rounds,
                     Duration period) {
  ArrivalList out;
  out.reserve(threads * rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const TimePoint t0 = period * static_cast<std::int64_t>(r);
    for (std::size_t th = 0; th < threads; ++th) {
      // Each thread fires at the top of the round; its own configuration.
      out.push_back(Arrival{t0 + microseconds(static_cast<std::int64_t>(th)),
                            th});
    }
  }
  return out;
}

ArrivalList linear_increasing(std::size_t start, std::size_t step,
                              std::size_t rounds, Duration period,
                              std::size_t configs) {
  ArrivalList out;
  for (std::size_t r = 0; r < rounds; ++r) {
    spread_round(out, period * static_cast<std::int64_t>(r), period,
                 start + step * r, configs, nullptr, 0.0);
  }
  return out;
}

ArrivalList linear_decreasing(std::size_t start, std::size_t step,
                              std::size_t rounds, Duration period,
                              std::size_t configs) {
  ArrivalList out;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t n = step * r >= start ? 0 : start - step * r;
    spread_round(out, period * static_cast<std::int64_t>(r), period, n,
                 configs, nullptr, 0.0);
  }
  return out;
}

ArrivalList exponential_increasing(std::size_t rounds, Duration period,
                                   std::size_t configs) {
  HOTC_ASSERT_MSG(rounds < 24, "exponential rounds capped to keep sane sizes");
  ArrivalList out;
  for (std::size_t r = 0; r < rounds; ++r) {
    spread_round(out, period * static_cast<std::int64_t>(r), period,
                 static_cast<std::size_t>(1) << r, configs, nullptr, 0.0);
  }
  return out;
}

ArrivalList exponential_decreasing(std::size_t rounds, Duration period,
                                   std::size_t configs) {
  HOTC_ASSERT_MSG(rounds < 24, "exponential rounds capped to keep sane sizes");
  ArrivalList out;
  for (std::size_t r = 0; r < rounds; ++r) {
    spread_round(out, period * static_cast<std::int64_t>(r), period,
                 static_cast<std::size_t>(1) << (rounds - 1 - r), configs,
                 nullptr, 0.0);
  }
  return out;
}

ArrivalList burst(std::size_t base, double burst_factor,
                  const std::vector<std::size_t>& burst_rounds,
                  std::size_t rounds, Duration period, std::size_t configs) {
  HOTC_ASSERT(base > 0);
  ArrivalList out;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::size_t n = base;
    if (std::find(burst_rounds.begin(), burst_rounds.end(), r) !=
        burst_rounds.end()) {
      n = static_cast<std::size_t>(
          std::llround(static_cast<double>(base) * burst_factor));
    }
    // The paper's client "keeps sending eight requests each time": requests
    // land in concurrent batches of `base` fired back-to-back, so a 10x
    // burst piles ~10 batches into the first second of the round —
    // concurrency spikes, unlike the evenly-spread generators above.
    const std::size_t batches = (n + base - 1) / base;
    const TimePoint t0 = period * static_cast<std::int64_t>(r);
    const Duration gap = milliseconds(40);
    std::size_t emitted = 0;
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t in_batch = std::min(base, n - emitted);
      for (std::size_t i = 0; i < in_batch; ++i) {
        Arrival a;
        a.at = t0 + gap * static_cast<std::int64_t>(b);
        if (configs > 1) a.config_index = (emitted + i) % configs;
        out.push_back(a);
      }
      emitted += in_batch;
    }
  }
  return out;
}

ArrivalList poisson(double rate, Duration duration, Rng& rng,
                    std::size_t configs, double config_zipf) {
  HOTC_ASSERT(rate > 0.0);
  ArrivalList out;
  double t = 0.0;
  const double horizon = to_seconds(duration);
  // The count is Poisson(rate * horizon); reserving its mean plus four
  // standard deviations avoids regrowing (and re-touching) a list that
  // can run to millions of arrivals.
  const double mean = std::max(0.0, rate * horizon);
  out.reserve(static_cast<std::size_t>(mean + 4.0 * std::sqrt(mean)) + 16);
  while (true) {
    t += rng.exponential(rate);
    if (t >= horizon) break;
    Arrival a;
    a.at = seconds_f(t);
    a.config_index = configs > 1 ? rng.zipf(configs, config_zipf) : 0;
    out.push_back(a);
  }
  return out;
}

ArrivalList from_counts(const std::vector<double>& counts, Duration interval,
                        std::size_t configs, Rng* rng, double config_zipf) {
  ArrivalList out;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto n = static_cast<std::size_t>(
        std::max(0.0, std::llround(counts[i]) * 1.0));
    spread_round(out, interval * static_cast<std::int64_t>(i), interval, n,
                 configs, rng, config_zipf);
  }
  return out;
}

std::vector<double> counts_per_interval(const ArrivalList& arrivals,
                                        Duration interval,
                                        std::size_t intervals) {
  HOTC_ASSERT(interval > kZeroDuration);
  std::vector<double> out(intervals, 0.0);
  for (const auto& a : arrivals) {
    const auto idx = static_cast<std::size_t>(a.at.count() /
                                              interval.count());
    if (idx < intervals) out[idx] += 1.0;
  }
  return out;
}

}  // namespace hotc::workload
