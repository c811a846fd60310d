// Scenario: a whole experiment described as data (JSON).
//
// Downstream users drive the library three ways: the C++ API, the bench
// binaries, and this — a declarative description of host, policy, HotC
// knobs, workload pattern and config mix that can be stored in a file,
// versioned and diffed.  examples/scenario_runner is a thin main() over
// this module.
//
// Schema by example (all fields optional unless noted; a key outside the
// schema, at any level, is refused with scenario.unknown_option):
//
//   {
//     "name": "my experiment",
//     "host": "server" | "edge_pi" | "edge_tx2",
//     "host_memory_mb": 512,                 // cap the host's memory
//     "policy": "hotc",                      // or "policies": ["a","b"];
//                                            // "hotc-sharing" = hotc with
//                                            // cross-key sharing forced on;
//                                            // "hotc-tiering" = sharing +
//                                            // snapshot tiering forced on
//     "keep_alive_minutes": 15,
//     "hotc": {
//       "max_live": 500, "memory_threshold": 0.8,
//       "prewarm": true, "retire": true, "subset_key": false,
//       "sharing": false, "share_max_cost_ratio": 0.8,
//       "adaptive_interval_seconds": 30, "pause_idle_minutes": 0,
//       "tiering": false, "tiering_alpha": 0.5,
//       "snapshot_capacity_mb": 4096, "snapshot_per_tenant_mb": 0,
//       "alpha": 0.8, "predictor": "hybrid" | "meta" | "seasonal" | "es"
//     },
//     "workload": { "pattern": "...", ...pattern params },   // required
//     "mix": {"kind": "qr" | "image-recognition" | "siblings",
//             "variants": 10,            // qr
//             "functions": 20, "images": 5},  // siblings
//     "seed": 2021
//   }
#pragma once

#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/result.hpp"
#include "faas/platform.hpp"
#include "workload/mix.hpp"
#include "workload/patterns.hpp"

namespace hotc::scenario {

/// A fully-resolved scenario, ready to run.
struct Scenario {
  std::string name;
  engine::HostProfile host;
  std::vector<faas::PolicyKind> policies;
  std::vector<std::string> policy_labels;
  faas::PlatformOptions base_options;  // policy overwritten per run
  workload::ArrivalList arrivals;
  workload::ConfigMix mix;
};

/// Parse and validate a scenario document.
[[nodiscard]] Result<Scenario> parse_scenario(const Json& doc);
[[nodiscard]] Result<Scenario> parse_scenario_text(const std::string& text);

/// One policy's results.
struct PolicyResult {
  std::string policy;
  metrics::LatencySummary summary;
  std::uint64_t failed = 0;
  /// Cross-key sharing counters (zero for non-HotC policies or when
  /// sharing is off).
  std::uint64_t donor_lookups = 0;
  std::uint64_t donor_hits = 0;
  std::uint64_t respec_rejected = 0;
  /// Snapshot-tier counters (zero unless tiering ran).
  std::uint64_t checkpoints = 0;
  std::uint64_t restores = 0;
};

struct ScenarioResult {
  std::string name;
  std::vector<PolicyResult> runs;

  /// Machine-readable form (array of per-policy objects).
  [[nodiscard]] Json to_json() const;
};

/// Run every policy in the scenario over the same workload.
ScenarioResult run_scenario(const Scenario& scenario);

}  // namespace hotc::scenario
