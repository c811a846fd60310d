// Shared helpers for the figure-regeneration benches.
//
// Every bench prints its paper figure's rows through hotc::Table so output
// is uniform and diffable into EXPERIMENTS.md.  Absolute numbers come from
// the calibrated simulator, not the authors' testbed — the *shape* (who
// wins, by what rough factor, where crossovers fall) is the reproduction
// target.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench_meta.hpp"
#include "core/json.hpp"
#include "core/table.hpp"
#include "faas/platform.hpp"
#include "workload/mix.hpp"
#include "workload/patterns.hpp"

// Where the machine-readable artifacts (BENCH_*.json, OBS_* dumps) land.
// The build system bakes in the source root so benches run from any build
// directory still write to the repo root, where the perf trajectory is
// tracked; HOTC_BENCH_DIR overrides it (CI writes to a scratch dir).
#ifndef HOTC_SOURCE_DIR
#define HOTC_SOURCE_DIR "."
#endif

namespace hotc::bench {

inline std::string output_dir() {
  if (const char* dir = std::getenv("HOTC_BENCH_DIR");
      dir != nullptr && dir[0] != '\0') {
    return dir;
  }
  return HOTC_SOURCE_DIR;
}

/// HOTC_SMOKE=1 shrinks iteration counts so CI can validate the output
/// format in seconds; the numbers are then format-valid but meaningless.
inline bool smoke_mode() {
  const char* v = std::getenv("HOTC_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

inline bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return out.good();
}

/// The commit checked out in the git work tree at `root`, or "unknown".
/// Reads `root/.git` directly: HEAD holds either the commit itself
/// (detached) or a branch ref, which is resolved from its loose ref file
/// or, after `git gc` / `git pack-refs`, from `packed-refs`.
inline std::string git_sha_at(const std::string& root) {
  const std::string git = root + "/.git";
  std::ifstream head(git + "/HEAD");
  std::string line;
  if (!head || !std::getline(head, line) || line.empty()) return "unknown";
  if (line.rfind("ref: ", 0) != 0) return line;
  const std::string ref = line.substr(5);
  std::ifstream loose(git + "/" + ref);
  std::string sha;
  if (loose && std::getline(loose, sha) && !sha.empty()) return sha;
  // packed-refs lines are "<sha> <ref>"; the "# pack-refs" header and
  // "^<sha>" peeled-tag lines never match a ref name.
  std::ifstream packed(git + "/packed-refs");
  while (std::getline(packed, line)) {
    const auto space = line.find(' ');
    if (space != std::string::npos && line.substr(space + 1) == ref) {
      return line.substr(0, space);
    }
  }
  return "unknown";
}

/// The commit the bench binary's source tree is at — read at run time, so
/// a stale binary over a moved tree reports the tree, which is what
/// provenance wants.
inline std::string git_sha() { return git_sha_at(HOTC_SOURCE_DIR); }

/// Host/build provenance block, embedded verbatim in every BENCH_*.json:
/// a perf number without the machine and build that produced it is noise.
inline JsonObject provenance() {
  JsonObject p;
  p["timestamp"] = Json(iso8601_utc_now());
  p["host_cores"] = Json(static_cast<std::int64_t>(
      std::thread::hardware_concurrency()));
  p["smoke"] = Json(smoke_mode());
#ifdef HOTC_BUILD_TYPE
  p["build_type"] = Json(std::string(HOTC_BUILD_TYPE));
#else
  p["build_type"] = Json(std::string("unknown"));
#endif
  p["git_sha"] = Json(git_sha());
  p["build_flags"] = Json(build_flags());
  return p;
}

/// Loud, unmissable stderr warning for concurrency benches: contention
/// numbers measured on one hardware thread say nothing about contention.
inline void warn_if_single_core(const std::string& bench) {
  if (std::thread::hardware_concurrency() > 1) return;
  std::cerr << "\n"
            << "*** WARNING: " << bench << " is running on a single\n"
            << "*** hardware thread.  Its concurrency numbers measure\n"
            << "*** scheduler interleaving, not parallel contention, and\n"
            << "*** must not be compared against multi-core baselines.\n\n";
}

inline void print_header(const std::string& figure,
                         const std::string& caption) {
  std::cout << banner("HotC reproduction — " + figure) << caption << "\n\n";
}

/// Run one policy over a workload and return the platform (for stats) plus
/// the recorder, printing nothing.
struct PolicyRun {
  metrics::LatencyRecorder recorder;
  std::uint64_t backend_cold_starts = 0;
};

inline PolicyRun run_policy(faas::PolicyKind policy,
                            const workload::ArrivalList& arrivals,
                            const workload::ConfigMix& mix,
                            faas::PlatformOptions base = {}) {
  base.policy = policy;
  faas::FaasPlatform platform(base);
  PolicyRun out;
  out.recorder = platform.run(arrivals, mix);
  out.backend_cold_starts = platform.backend().cold_starts();
  return out;
}

inline std::string ms(double v) { return Table::num(v, 1) + "ms"; }
inline std::string pct(double v) { return Table::num(v * 100.0, 1) + "%"; }

}  // namespace hotc::bench
