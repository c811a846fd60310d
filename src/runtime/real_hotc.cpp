#include "runtime/real_hotc.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "engine/image.hpp"
#include "obs/prof.hpp"

namespace hotc::runtime {

namespace {

pool::PoolLimits warm_limits(const RealOptions& options) {
  pool::PoolLimits limits;
  // The pool asserts max_live > 0; max_warm == 0 is handled by never
  // returning runtimes to the pool at all.
  limits.max_live = std::max<std::size_t>(options.max_warm, 1);
  return limits;
}

}  // namespace

RealHotC::RealHotC(RealOptions options)
    : options_(options),
      cost_(options.host),
      pool_(options.worker_threads),
      warm_(warm_limits(options), options.pool_shards),
      snapshots_(options.tiering.store),
      costs_mu_(LockRank::kSnapshotStore, 0x10000, "runtime.tiercosts") {}

RealHotC::~RealHotC() { shutdown(); }

void RealHotC::shutdown() { pool_.shutdown(); }

void RealHotC::trim_warm() {
  // Returns race with other workers' returns, so a few attempts may lose
  // a select/remove race; the loser re-selects.  Bounded so a pathological
  // schedule cannot spin forever — the next return trims again anyway.
  for (int attempts = 0; attempts < 64; ++attempts) {
    if (warm_.total_available() <= options_.max_warm) return;
    const auto victim =
        warm_.select_victim(pool::EvictionPolicy::kOldestFirst);
    if (!victim.has_value()) return;
    // Tiering: a victim worth keeping on disk is demoted, not dropped.
    if (options_.tiering.enabled && demote_victim(*victim)) continue;
    if (warm_.remove(victim->key, victim->id)) warm_.count_eviction();
  }
}

void RealHotC::record_costs(const spec::RuntimeKey& key,
                            const spec::RunSpec& spec,
                            const engine::Image& image, Duration cold_total) {
  KeyCosts kc;
  // Mirror the engine's checkpoint model: the image is the idle resident
  // set plus ~2 MiB of dump metadata.
  kc.image_bytes = image.base_memory + mib(2);
  kc.cold_s = to_seconds(cold_total);
  kc.restore_s = to_seconds(cost_.restore_time(kc.image_bytes, spec));
  kc.tenant = snapshot::tenant_of(spec);
  const RankedGuard lock(costs_mu_);
  const std::uint32_t slot = cost_index_.find(key.id());
  if (slot != IdSlotMap::kNotFound) {
    costs_[slot] = kc;
    return;
  }
  // hot-path-alloc: allow — table growth, once per distinct key
  costs_.push_back(kc);
  cost_index_.insert(key.id(), static_cast<std::uint32_t>(costs_.size() - 1));
}

std::optional<RealHotC::KeyCosts> RealHotC::costs_for(
    spec::KeyId key) const {
  const RankedGuard lock(costs_mu_);
  const std::uint32_t slot = cost_index_.find(key);
  if (slot == IdSlotMap::kNotFound) return std::nullopt;
  return costs_[slot];
}

bool RealHotC::demote_victim(const pool::PoolEntry& victim) {
  const auto costs = costs_for(victim.key.id());
  if (!costs.has_value()) return false;
  if (!snapshot::gate_passes(costs->restore_s, costs->cold_s,
                             options_.tiering.alpha)) {
    return false;
  }
  if (costs->image_bytes > snapshots_.capacity_bytes()) return false;
  // The ledger flow: remove_for_checkpoint counts the demotion as a
  // checkpointed removal (checkpointed ⊆ removed).  A racing worker may
  // have claimed the victim already — the caller just re-selects.
  if (!warm_.remove_for_checkpoint(victim.key, victim.id)) return false;
  const obs::StageScope stage(obs::Stage::kCheckpoint);
  snapshot::SnapshotMeta meta;
  meta.key = victim.key.id();
  meta.tenant = costs->tenant;
  meta.container = victim.id;
  meta.bytes = costs->image_bytes;
  meta.created_at = wall_now();
  meta.last_access = meta.created_at;
  meta.restore_estimate_s = costs->restore_s;
  meta.cold_estimate_s = costs->cold_s;
  // Store-side evictions are purely modelled here (no engine images to
  // discard); a rejected admit still evicted the victim from the warm
  // set, which is what trim_warm needed.
  snapshots_.admit(meta, wall_now());
  return true;
}

std::future<RealOutcome> RealHotC::submit(const spec::RunSpec& spec,
                                          const engine::AppModel& app,
                                          Handler handler,
                                          // hot-path-alloc: allow — caller
                                          std::string argument) {  // hands
                                          // off payload ownership by value.
  // One shared promise per submission: the future seam needs shared
  // ownership between caller and worker.  hot-path-alloc: allow
  auto promise = std::make_shared<std::promise<RealOutcome>>();
  auto future = promise->get_future();
  const spec::RuntimeKey key = spec::RuntimeKey::from_spec(spec);

  const bool posted = pool_.post([this, key, spec, app,
                                  handler = std::move(handler),
                                  argument = std::move(argument),
                                  promise]() mutable {
    const auto start = std::chrono::steady_clock::now();

    // Algorithm 1, wall-clock edition: claim a warm runtime from the
    // striped pool (one shard lock), pay delays outside any lock.
    const std::uint64_t app_tag = spec::fnv1a(app.name);
    const spec::CompatClass cls = options_.enable_sharing
                                      ? spec::CompatClass::from_spec(spec)
                                      : spec::CompatClass();
    if (options_.enable_sharing) donors_.record(key, cls, spec);
    std::optional<pool::PoolEntry> warm;
    {
      const obs::StageScope stage(obs::Stage::kPoolLookup);
      warm = warm_.acquire(key, wall_now());
    }
    const bool reused = warm.has_value();
    const bool app_warm = reused && warm->app_tag == app_tag;

    const engine::Image image = engine::image_for_name(spec.image);
    const engine::StartupBreakdown cold =
        cost_.startup(spec, image, /*bytes_to_pull=*/0);
    // Tiering needs the key's economics at trim time, when only the bare
    // pool entry is in scope — capture them here, where the spec is.
    if (options_.tiering.enabled) record_costs(key, spec, image, cold.total());

    // Miss: before paying the cold start, try converting an idle
    // compatible sibling (donor registry + lease-for-donation seam).
    bool respecialized = false;
    Duration respec_cost = kZeroDuration;
    if (!reused && options_.enable_sharing) {
      const obs::StageScope stage(obs::Stage::kDonorLookup);
      ++donor_lookups_;
      const auto cand = donors_.find_donor(cls, key, warm_);
      if (cand.has_value()) {
        // Wall-clock conversion = volume wipe/remount + env/exec delta
        // (image layers never differ inside a compatibility class' tag
        // delta here — the cost model charges them via reconfigure).
        const Duration respec = cost_.cleanup_time(/*dirty_bytes=*/0) +
                                cost_.reconfigure_time(cand->spec, spec);
        const bool viable =
            cold.total() > kZeroDuration &&
            static_cast<double>(respec.count()) <=
                options_.share_max_cost_ratio *
                    static_cast<double>(cold.total().count());
        if (viable) {
          auto donor = warm_.acquire_for_donation(cand->key, wall_now());
          if (donor.has_value()) {
            respecialized = true;
            respec_cost = respec;
            warm = donor;
            warm->key = key;            // re-keyed to the requested config
            warm->respecialized = true;  // counted once at return
            warm->app_tag = 0;           // donor's app state is gone
          }
        }
      }
    }

    // Still a miss: revive a checkpointed runtime of this exact key from
    // the snapshot tier (consuming take), paying the restore cost — well
    // under the cold start whenever the demotion gate admitted it.
    bool restored = false;
    Duration restore_cost = kZeroDuration;
    std::optional<snapshot::SnapshotMeta> snap;
    if (!reused && !respecialized && options_.tiering.enabled) {
      snap = snapshots_.take(key.id(), wall_now());
      if (snap.has_value()) {
        restored = true;
        restore_cost = cost_.restore_time(snap->bytes, spec);
      }
    }

    if (reused) {
      ++reuses_;
    } else if (respecialized) {
      ++donor_hits_;
      const obs::StageScope stage(obs::Stage::kRespecialize);
      std::this_thread::sleep_for(scale(respec_cost, options_.cold_start_scale));
    } else if (restored) {
      const obs::StageScope stage(obs::Stage::kRestore);
      std::this_thread::sleep_for(
          scale(restore_cost, options_.cold_start_scale));
    } else {
      ++cold_starts_;
      const obs::StageScope stage(obs::Stage::kColdStart);
      std::this_thread::sleep_for(
          scale(cold.total(), options_.cold_start_scale));
    }
    if (!app_warm) {
      std::this_thread::sleep_for(scale(
          cost_.compute_time(app.app_init_seconds), options_.cold_start_scale));
    }

    RealOutcome outcome;
    outcome.reused = reused;
    outcome.respecialized = respecialized;
    outcome.restored = restored;
    outcome.app_was_warm = app_warm;
    outcome.modeled_cold = cold.total();
    {
      const obs::StageScope stage(obs::Stage::kExec);
      outcome.payload = handler(argument);
    }

    // Return the runtime to the warm set (cleanup is instantaneous here —
    // the volume machinery lives in the simulator substrate), then trim
    // the oldest runtimes back under max_warm.
    if (options_.max_warm > 0) {
      const obs::StageScope stage(obs::Stage::kReadmit);
      pool::PoolEntry entry;
      if (reused || respecialized) {
        entry = *warm;  // keeps created_at and reuse_count
      } else if (restored) {
        entry.id = snap->container;  // the checkpointed runtime lives on
        entry.key = key;
        entry.created_at = wall_now();
        entry.restored = true;  // counted once at re-admission
      } else {
        entry.id = next_runtime_id_.fetch_add(1, std::memory_order_relaxed);
        entry.key = key;
        entry.created_at = wall_now();
      }
      entry.app_tag = app_tag;  // this app's init state is now resident
      warm_.add_available(entry, wall_now());
      trim_warm();
    }

    outcome.wall_time = std::chrono::duration_cast<Duration>(
        std::chrono::steady_clock::now() - start);
    promise->set_value(std::move(outcome));
  }, "hotc.submit");

  if (!posted) {
    promise->set_value(RealOutcome{});  // pool already shut down
  }
  return future;
}

}  // namespace hotc::runtime
