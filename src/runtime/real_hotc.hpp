// Real-execution HotC: the middleware running on wall-clock time.
//
// This is the embeddable form of the library: user code submits a runtime
// configuration plus a C++ callable ("the function"), and RealHotC applies
// Algorithm 1 — reuse a warm runtime of the same canonical key when one is
// available, otherwise pay a cold start (modelled as a real delay taken
// from the same CostModel the simulator uses, scaled by
// `cold_start_scale` so demos run fast).  Warm runtimes carry per-app
// state (the "loaded model"), so a warm hit also skips the app-init delay.
//
// Thread-safe: submissions may come from any thread; execution happens on
// the worker pool.  The warm set is the same lock-striped
// ShardedRuntimePool the rest of the library uses — workers touching
// distinct runtime keys never contend on a shared lock (the seed version
// funnelled every lookup through one global mutex + std::map).
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "core/flat_map.hpp"
#include "core/ranked_mutex.hpp"
#include "core/time.hpp"
#include "engine/app.hpp"
#include "engine/cost_model.hpp"
#include "pool/sharded_pool.hpp"
#include "runtime/thread_pool.hpp"
#include "snapshot/checkpoint_store.hpp"
#include "snapshot/tiering.hpp"
#include "spec/runspec.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::runtime {

struct RealOptions {
  std::size_t worker_threads = 4;
  engine::HostProfile host = engine::HostProfile::server();
  /// Multiplier applied to modelled cold-start / init delays before
  /// sleeping them for real.  0.01 turns a 700 ms cold start into 7 ms.
  double cold_start_scale = 0.01;
  /// Maximum warm runtimes kept alive across all keys (0 = never pool).
  std::size_t max_warm = 64;
  /// Tiered warm state (DESIGN.md §16): trim victims that pass the
  /// economic gate are demoted into a modelled checkpoint store instead of
  /// being discarded outright, and the miss path tries a restore —
  /// pool-hit -> checkpoint-restore -> cold — before paying the full cold
  /// start.  Off by default — eviction semantics unchanged.
  snapshot::TieringOptions tiering;
};

struct RealOutcome {
  bool reused = false;
  /// Revived from the snapshot tier: a restore was paid (≪ cold) instead
  /// of a full cold start.
  bool restored = false;
  bool app_was_warm = false;
  Duration wall_time = kZeroDuration;   // measured, not modelled
  Duration modeled_cold = kZeroDuration;  // the cold cost that was (not) paid
  std::string payload;                  // what the function returned
};

class RealHotC {
 public:
  explicit RealHotC(RealOptions options = {});
  ~RealHotC();

  RealHotC(const RealHotC&) = delete;
  RealHotC& operator=(const RealHotC&) = delete;

  /// The function body: receives the request argument, returns the payload.
  using Handler = std::function<std::string(const std::string&)>;

  /// Submit a request.  The future resolves when the function has run.
  std::future<RealOutcome> submit(const spec::RunSpec& spec,
                                  const engine::AppModel& app,
                                  Handler handler, std::string argument);

  /// Drain outstanding work and stop the workers.
  void shutdown();

  [[nodiscard]] std::uint64_t cold_starts() const { return cold_starts_; }
  [[nodiscard]] std::uint64_t reuses() const { return reuses_; }
  /// Snapshot-tier traffic (zero when tiering is disabled).
  [[nodiscard]] std::uint64_t demotes() const { return snapshots_.demotes(); }
  [[nodiscard]] std::uint64_t restores() const {
    return snapshots_.restores();
  }
  /// The modelled checkpoint store behind the tiering path.
  [[nodiscard]] const snapshot::CheckpointStore& snapshot_store() const {
    return snapshots_;
  }
  [[nodiscard]] std::size_t warm_count() const {
    return warm_.total_available();
  }
  /// The warm set behind the PoolView seam (hit rate, per-key counts...).
  [[nodiscard]] const pool::PoolView& warm_pool() const { return warm_; }

 private:
  /// Wall-clock now as the library-wide TimePoint (offset from epoch).
  static TimePoint wall_now() {
    return std::chrono::duration_cast<Duration>(
        std::chrono::steady_clock::now().time_since_epoch());
  }

  /// Oldest-first trim back to max_warm after a return (paper eviction).
  /// With tiering on, victims that pass the economic gate are demoted
  /// into the snapshot store instead of being dropped.
  void trim_warm();

  /// Per-key tiering economics, captured at submit time (the only point
  /// where the spec is in scope; trim victims arrive as bare pool
  /// entries).  All fields derive deterministically from the canonical
  /// spec, so last-writer-wins refresh is idempotent.
  struct KeyCosts {
    Bytes image_bytes = 0;   // modelled checkpoint image size
    double cold_s = 0.0;     // full cold start, seconds
    double restore_s = 0.0;  // checkpoint restore, seconds
    std::uint64_t tenant = 0;
  };
  void record_costs(const spec::RuntimeKey& key, const spec::RunSpec& spec,
                    const engine::Image& image, Duration cold_total);
  [[nodiscard]] std::optional<KeyCosts> costs_for(spec::KeyId key) const;

  /// Demote one trim victim into the snapshot store.  Returns false when
  /// the economic gate fails (caller falls back to a plain eviction) or
  /// the victim was claimed by a racing worker.
  bool demote_victim(const pool::PoolEntry& victim);

  RealOptions options_;
  engine::CostModel cost_;
  ThreadPool pool_;
  pool::ShardedRuntimePool warm_;
  /// The disk-resident middle tier (always constructed; empty and idle
  /// unless options_.tiering.enabled routes traffic through it).
  snapshot::CheckpointStore snapshots_;
  /// Guards the key -> KeyCosts table.  Band 55 with a sequence past any
  /// store stripe; held only for the copy-in/copy-out, never across a
  /// pool or store call.
  mutable RankedMutex costs_mu_;
  IdSlotMap cost_index_ HOTC_GUARDED_BY(costs_mu_);  // KeyId -> costs_ slot
  std::vector<KeyCosts> costs_ HOTC_GUARDED_BY(costs_mu_);
  std::atomic<engine::ContainerId> next_runtime_id_{1};
  std::atomic<std::uint64_t> cold_starts_{0};
  std::atomic<std::uint64_t> reuses_{0};
};

}  // namespace hotc::runtime
