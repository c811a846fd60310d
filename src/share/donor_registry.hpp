// Cross-key donor registry: the secondary index behind container sharing.
//
// The runtime pool is exact-match — a request's runtime key either has an
// idle container or it cold-starts.  The registry adds the cross-key view:
// it maps each compatibility class (spec/compat.hpp) to the runtime keys
// known to belong to it, so a miss on one key can locate an idle *sibling*
// container to donate and re-specialize instead of paying the full cold
// start.
//
// The registry never touches the pool.  It records only (key, spec) pairs
// the controller has seen; whether a candidate key actually has an idle
// container is checked at lookup time through the read-only PoolView seam,
// and the donor itself is leased by the controller through the pool's own
// acquire_for_donation() path.  That keeps every pool mutation behind the
// lease/return seam (enforced by tools/hotc_lint.py's share-pool-seam
// rule) and makes registry staleness harmless: a stale candidate just
// fails the liveness probe.
//
// Concurrency: lock-striped by compatibility-class hash.  Stripe locks
// rank kShareRegistry (45) — strictly below the pool shards (50) because a
// stripe lock is held across PoolView liveness reads, which take a shard
// lock (see core/ranked_mutex.hpp's band table).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/annotations.hpp"
#include "core/ranked_mutex.hpp"
#include "obs/metrics.hpp"
#include "pool/pool_view.hpp"
#include "spec/compat.hpp"
#include "spec/runspec.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::share {

/// A donor key the registry selected for a request: a sibling runtime key
/// in the same compatibility class with at least one idle container at
/// lookup time.
struct DonorCandidate {
  spec::RuntimeKey key;
  spec::RunSpec spec;
  /// The adaptive controller forecast this key as over-provisioned and
  /// marked its surplus as preferred donor stock (Algorithm 3 cooperation).
  bool nominated = false;
};

class DonorRegistry {
 public:
  /// `stripe_count` 0 picks a small default sized for tens of classes.
  explicit DonorRegistry(std::size_t stripe_count = 0);

  DonorRegistry(const DonorRegistry&) = delete;
  DonorRegistry& operator=(const DonorRegistry&) = delete;

  // Every call names the key's compatibility class, `CompatClass::
  // from_spec` of its spec: callers derive it once per key and keep it,
  // so the per-tick nomination updates never rebuild the class text.

  /// Make a key discoverable as a potential donor (idempotent upsert; the
  /// stored spec is refreshed).  Called whenever the controller first sees
  /// a key and whenever a converted container re-enters under a new key.
  void record(const spec::RuntimeKey& key, const spec::CompatClass& cls,
              const spec::RunSpec& spec);

  /// Mark or clear Algorithm-3 nomination: the hybrid predictor forecasts
  /// this key as over-provisioned, so its idle surplus should be donated
  /// first.  No-op if the key was never recorded.
  void nominate(const spec::RuntimeKey& key, const spec::CompatClass& cls,
                bool on);

  /// Drift mute (obs/drift.hpp feedback): a muted key is skipped by
  /// find_donor entirely — its surplus derives from a forecast the drift
  /// detector just distrusted.  No-op if the key was never recorded.
  void set_muted(const spec::RuntimeKey& key, const spec::CompatClass& cls,
                 bool on);

  /// Drop a key from the index (its function was retired).
  void forget(const spec::RuntimeKey& key, const spec::CompatClass& cls);

  /// Find an idle donor for a request of class `cls`: a recorded sibling
  /// key in that class, not `exclude` (the request's own key), with
  /// `view.num_available(key) > 0` right now.  Nominated keys win over
  /// merely-live ones.  The liveness probe is advisory — the caller must
  /// still handle an empty lease (the container may be taken concurrently).
  [[nodiscard]] std::optional<DonorCandidate> find_donor(
      const spec::CompatClass& cls, const spec::RuntimeKey& exclude,
      const pool::PoolView& view) const;

  // --- introspection ----------------------------------------------------
  [[nodiscard]] std::uint64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t found() const {
    return found_.load(std::memory_order_relaxed);
  }
  /// Keys currently indexed, across all classes and stripes.
  [[nodiscard]] std::size_t known_keys() const;
  [[nodiscard]] std::size_t stripe_count() const { return stripes_.size(); }

  /// Register `hotc_share_registry_*` counters with the registry and start
  /// feeding them.  The registry must outlive this index.
  void attach_metrics(obs::Registry& registry);

 private:
  struct Member {
    spec::RunSpec spec;
    bool nominated = false;
    bool muted = false;  // drift cooldown: excluded from donation
  };
  using ClassMembers = std::unordered_map<spec::RuntimeKey, Member>;

  struct alignas(64) Stripe {
    explicit Stripe(std::uint32_t index)
        : mu(LockRank::kShareRegistry, index, "share.registry") {}
    mutable RankedMutex mu;
    std::unordered_map<spec::CompatClass, ClassMembers> classes
        HOTC_GUARDED_BY(mu);
  };

  [[nodiscard]] Stripe& stripe_for(const spec::CompatClass& cls) const {
    return *stripes_[cls.hash() % stripes_.size()];
  }

  std::vector<std::unique_ptr<Stripe>> stripes_;
  mutable std::atomic<std::uint64_t> lookups_{0};
  mutable std::atomic<std::uint64_t> found_{0};
  std::atomic<obs::Counter*> lookup_counter_{nullptr};
  std::atomic<obs::Counter*> found_counter_{nullptr};
};

}  // namespace hotc::share
