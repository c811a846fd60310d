// The benchmark's three workloads (see perfbench/README.md for why each
// was chosen).  One call runs one repetition: generate the inputs from the
// seed, build the system, drive it, and check its outputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/json.hpp"

namespace perfbench {

enum class Workload { kSteadyWeb, kTenantsPressure, kRealChurn };

/// Parses a workload name; returns false for an unknown one.
bool parse_workload(const std::string& name, Workload* out);

struct RepResult {
  double setup_s = 0.0;  // input generation + system construction
  double run_s = 0.0;    // timed phase (host wall time)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string error;  // why `correct` is false
  /// End-to-end values other than req_per_s / setup_s / peak_rss_mb.  On
  /// the simulated workloads they are exact for a seed.
  std::map<std::string, double> e2e;
  /// Per-layer values; filled only by traced repetitions, and only for
  /// the layers that run on the workload.
  std::map<std::string, double> layers;
  /// Traced repetitions: per timed layer, call count, total and self
  /// time and duration quantiles of the in-memory span samples.
  hotc::JsonObject spans;
  /// Simulated workloads: hash of the exact simulated outcome (cold
  /// count, percentiles, idle seconds, memory peak, per-request latency
  /// sequence).  Two runs of one seed must agree, traced or not.
  std::uint64_t fingerprint = 0;
};

/// `pinned_cpu` is the CPU the RealHotC loop's generator and workers run
/// on (real_churn, and steady_web's traced repetitions).
RepResult run_repetition(Workload workload, std::uint64_t seed, bool traced,
                         int pinned_cpu);

}  // namespace perfbench
