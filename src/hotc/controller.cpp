#include "hotc/controller.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "core/log.hpp"

namespace hotc {

namespace {

std::string key_label(const spec::RuntimeKey& key) {
  // Decimal interned KeyId: matches DecisionRecord::key_id, so hotc_top
  // can join metric labels with journal records without hex munging.
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key=\"%" PRIu32 "\"", key.id());
  return buf;
}

}  // namespace

HotCController::HotCController(engine::ContainerEngine& engine,
                               ControllerOptions options)
    : engine_(engine),
      sim_(engine.simulator()),
      options_(std::move(options)),
      pool_(options_.limits),
      rng_(options_.rng_seed) {
  HOTC_ASSERT(options_.predictor_factory != nullptr);
  if (options_.enable_sharing) {
    donors_ = std::make_unique<share::DonorRegistry>();
    respec_ = std::make_unique<share::Respecializer>(
        engine_, options_.share_max_cost_ratio);
  }
  if (options_.tiering.enabled) {
    store_ = std::make_unique<snapshot::CheckpointStore>(
        options_.tiering.store);
  }
  if (options_.registry != nullptr) {
    obs::Registry& reg = *options_.registry;
    obs_.prewarms = &reg.counter("hotc_controller_prewarm_total",
                                 "Algorithm 3 predictive warm-up launches");
    obs_.retires = &reg.counter(
        "hotc_controller_retire_total",
        "Pooled runtimes retired by the adaptive loop (no pressure)");
    obs_.evictions = &reg.counter(
        "hotc_controller_evict_total",
        "Pooled runtimes evicted under capacity/memory pressure");
    obs_.prediction_samples = &reg.counter(
        "hotc_controller_prediction_samples_total",
        "Forecasts scored against the demand they predicted");
    obs_.prediction_error_sum = &reg.gauge(
        "hotc_controller_prediction_abs_error_sum",
        "Accumulated |forecast - observed demand| across all scored ticks");
    obs_.predicted_containers = &reg.gauge(
        "hotc_controller_predicted_containers",
        "Sum of per-key forecast targets at the last adaptive tick");
    obs_.live_containers = &reg.gauge(
        "hotc_controller_live_containers",
        "Live containers at the last adaptive tick");
    obs_.pooled_containers = &reg.gauge(
        "hotc_controller_pooled_containers",
        "Existing-Available containers at the last adaptive tick");
    obs_.donor_lookups = &reg.counter(
        "hotc_share_donor_lookups_total",
        "Cross-key donor searches on the miss path");
    obs_.donor_hits = &reg.counter(
        "hotc_share_donor_hits_total",
        "Requests served by a re-specialized sibling container");
    obs_.respec_rejected = &reg.counter(
        "hotc_share_respec_rejected_total",
        "Donors rejected by the re-specialization cost gate");
    obs_.respec_duration_ms = &reg.histogram(
        "hotc_share_respec_duration_ms",
        "Donor conversion duration (milliseconds)");
    obs_.drift_restarts = &reg.counter(
        "hotc_drift_restarts_total",
        "Predictor restarts forced by the forecast-drift detector");
    obs_.snapshot_checkpoint_ms = &reg.histogram(
        "hotc_snapshot_checkpoint_duration_ms",
        "Demotion dump duration (milliseconds)");
    obs_.snapshot_restore_ms = &reg.histogram(
        "hotc_snapshot_restore_duration_ms",
        "Checkpoint-restore duration on the miss path (milliseconds)");
    if (donors_ != nullptr) donors_->attach_metrics(reg);
    if (store_ != nullptr) store_->attach_metrics(reg);
    engine_.attach_metrics(reg);
  }
}

void HotCController::emit_span(std::uint64_t trace_id, obs::Stage stage,
                               TimePoint start, Duration dur,
                               std::uint64_t key_hash, std::uint8_t flags) {
  if (options_.tracer != nullptr) {
    options_.tracer->span(trace_id, stage, start, dur, key_hash,
                          obs::kNoShard, flags);
  }
}

spec::RuntimeKey HotCController::key_for(const spec::RunSpec& spec) const {
  return options_.use_subset_key ? spec::RuntimeKey::subset_from_spec(spec)
                                 : spec::RuntimeKey::from_spec(spec);
}

HotCController::KeyState& HotCController::key_state(
    const spec::RuntimeKey& key, const spec::RunSpec& spec) {
  auto it = keys_.find(key.id());
  if (it == keys_.end()) {
    KeyState state;
    state.canonical_spec = spec;
    state.predictor = options_.predictor_factory();
    state.drift = obs::PageHinkley(options_.drift);
    // Every key the controller has seen is a potential donor for its
    // compatibility-class siblings.
    if (donors_ != nullptr) {
      state.compat = spec::CompatClass::from_spec(spec);
      donors_->record(key, state.compat, spec);
    }
    it = keys_.emplace(key.id(), std::move(state)).first;
  }
  return it->second;
}

void HotCController::handle(const spec::RunSpec& spec,
                            const engine::AppModel& app, Callback cb) {
  handle_traced(spec, app, /*trace_id=*/0, std::move(cb));
}

void HotCController::handle_traced(const spec::RunSpec& spec,
                                   const engine::AppModel& app,
                                   std::uint64_t trace_id, Callback cb) {
  if (trace_id == 0 && options_.tracer != nullptr) {
    trace_id = options_.tracer->next_trace_id();
  }
  const TimePoint arrival = sim_.now();
  const spec::RuntimeKey key = key_for(spec);
  KeyState& state = key_state(key, spec);
  if (options_.registry != nullptr) {
    if (state.req_counter == nullptr) {
      state.req_counter = &options_.registry->counter(
          "hotc_key_requests_total", "Requests handled, per runtime key",
          key_label(key));
      state.cold_counter = &options_.registry->counter(
          "hotc_key_cold_total", "True cold starts paid, per runtime key",
          key_label(key));
    }
    state.req_counter->inc();
  }
  ++stats_.requests;
  ++state.busy_now;
  state.interval_peak = std::max(state.interval_peak, state.busy_now);
  ++state.interval_requests;
  // Canonicalisation is synchronous, so the parse span is instantaneous
  // in virtual time; it still anchors the trace to its runtime key.
  emit_span(trace_id, obs::Stage::kParse, arrival, kZeroDuration,
            key.hash());

  // Algorithm 1: reuse when Existing-Available, else start a new runtime.
  auto entry = pool_.acquire(key, arrival);
  emit_span(trace_id, obs::Stage::kPoolLookup, arrival, kZeroDuration,
            key.hash(), entry.has_value() ? obs::kSpanHit : 0);
  if (entry.has_value()) {
    ++stats_.reuses;
    emit_span(trace_id, obs::Stage::kReuse, arrival, kZeroDuration,
              key.hash(), obs::kSpanHit);
    notify_pool_change(key);
    run_on(*entry, spec, app, entry->prewarmed, kZeroDuration, arrival,
           trace_id, std::move(cb));
    return;
  }

  // Cross-key sharing: a compatible sibling's idle container may be
  // convertible for less than a cold start (src/share/).
  if (donors_ != nullptr) {
    // The subset key leaves the volumes out, and with them the volume
    // topology the class includes, so there a request's class is not
    // always its key's.
    const spec::CompatClass cls = options_.use_subset_key
                                      ? spec::CompatClass::from_spec(spec)
                                      : state.compat;
    if (try_donor(spec, app, key, cls, arrival, trace_id, cb)) return;
  }

  provision_cold(spec, app, key, arrival, trace_id, std::move(cb));
}

void HotCController::provision_cold(const spec::RunSpec& spec,
                                    const engine::AppModel& app,
                                    const spec::RuntimeKey& key,
                                    TimePoint arrival,
                                    std::uint64_t trace_id, Callback cb) {
  ++stats_.cold_starts;
  {
    const auto it = keys_.find(key.id());
    if (it != keys_.end() && it->second.cold_counter != nullptr) {
      it->second.cold_counter->inc();
    }
  }
  enforce_pressure();  // make room before allocating a new runtime

  // Tiered warm state: a demoted runtime parked in the checkpoint store
  // beats both the legacy clone-restore and a full cold boot — the restore
  // is consuming, so the conservation ledger sees demotes == restores +
  // evictions + still-stored.
  if (store_ != nullptr) {
    const auto snap = store_->take(key.id(), sim_.now());
    if (snap.has_value()) {
      const TimePoint restore_start = sim_.now();
      engine_.restore_container(
          snap->container,
          [this, spec, app, key, arrival, restore_start, trace_id,
           cb = std::move(cb)](Result<engine::LaunchReport> r) mutable {
            if (!r.ok()) {
              // The parked container died out from under the store (the
              // snapshot was already consumed); fall back to a plain
              // launch — the cold start was counted above.
              emit_span(trace_id, obs::Stage::kRestore, restore_start,
                        sim_.now() - restore_start, key.hash(),
                        obs::kSpanCold | obs::kSpanError);
              launch_cold(spec, app, key, arrival, trace_id, std::move(cb));
              return;
            }
            ++stats_.restores;
            const Duration paid = r.value().breakdown.total();
            stats_.cold_start_seconds += to_seconds(paid);
            if (obs_.snapshot_restore_ms != nullptr) {
              obs_.snapshot_restore_ms->observe(to_milliseconds(paid));
            }
            emit_span(trace_id, obs::Stage::kRestore, restore_start, paid,
                      key.hash(), obs::kSpanCold);
            pool::PoolEntry fresh;
            fresh.id = r.value().container;
            fresh.key = key;
            fresh.created_at = sim_.now();
            fresh.restored = true;  // counted once at re-admission
            run_on(fresh, spec, app, /*was_prewarmed=*/false, paid, arrival,
                   trace_id, std::move(cb), /*was_resumed=*/false,
                   /*was_restored=*/true);
          });
      return;
    }
  }

  launch_cold(spec, app, key, arrival, trace_id, std::move(cb));
}

void HotCController::launch_cold(const spec::RunSpec& spec,
                                 const engine::AppModel& app,
                                 const spec::RuntimeKey& key,
                                 TimePoint arrival, std::uint64_t trace_id,
                                 Callback cb) {
  // Checkpoint/restore extension: a retired runtime's dump beats a full
  // cold boot when one exists for this key.
  const auto ckpt = checkpoints_.find(key.id());
  const bool restoring =
      options_.use_checkpoint_restore && ckpt != checkpoints_.end();

  auto on_provisioned = [this, key, spec, app, arrival, restoring, trace_id,
                         cb = std::move(cb)](
                            Result<engine::LaunchReport> r) {
    const obs::Stage stage =
        restoring ? obs::Stage::kRestore : obs::Stage::kColdStart;
    if (!r.ok()) {
      emit_span(trace_id, stage, arrival, sim_.now() - arrival, key.hash(),
                obs::kSpanCold | obs::kSpanError);
      auto it = keys_.find(key.id());
      if (it != keys_.end() && it->second.busy_now > 0) {
        --it->second.busy_now;
      }
      cb(Result<RequestOutcome>(r.error()));
      return;
    }
    if (restoring) ++stats_.restores;
    stats_.cold_start_seconds += to_seconds(r.value().breakdown.total());
    emit_span(trace_id, stage, arrival, r.value().breakdown.total(),
              key.hash(), obs::kSpanCold);
    pool::PoolEntry fresh;
    fresh.id = r.value().container;
    fresh.key = key;
    fresh.created_at = sim_.now();
    run_on(fresh, spec, app, /*was_prewarmed=*/false,
           r.value().breakdown.total(), arrival, trace_id, cb,
           /*was_resumed=*/false, /*was_restored=*/restoring);
  };
  if (restoring) {
    engine_.restore(ckpt->second, std::move(on_provisioned));
  } else {
    engine_.launch(spec, std::move(on_provisioned));
  }
}

bool HotCController::try_donor(const spec::RunSpec& spec,
                               const engine::AppModel& app,
                               const spec::RuntimeKey& key,
                               const spec::CompatClass& cls,
                               TimePoint arrival, std::uint64_t trace_id,
                               Callback& cb) {
  const TimePoint lookup_start = sim_.now();
  ++stats_.donor_lookups;
  if (obs_.donor_lookups != nullptr) obs_.donor_lookups->inc();
  const auto cand = donors_->find_donor(cls, key, pool_);
  emit_span(trace_id, obs::Stage::kDonorLookup, lookup_start,
            sim_.now() - lookup_start, key.hash(),
            cand.has_value() ? obs::kSpanHit : 0);
  if (!cand.has_value()) return false;

  const share::RespecEstimate est = respec_->estimate(cand->spec, spec);
  if (!est.viable) {
    ++stats_.respec_rejected;
    if (obs_.respec_rejected != nullptr) obs_.respec_rejected->inc();
    return false;
  }

  auto donor = pool_.acquire_for_donation(cand->key, sim_.now());
  if (!donor.has_value()) return false;  // stock vanished since the probe
  notify_pool_change(cand->key);
  if (donor->paused) {
    // A frozen donor would pay a thaw on top of the conversion; put it
    // back untouched and let the cold path run.
    pool_.add_available(*donor, sim_.now());
    notify_pool_change(cand->key);
    return false;
  }

  const TimePoint respec_start = sim_.now();
  const pool::PoolEntry donor_entry = *donor;
  respec_->convert(
      donor_entry.id, spec,
      [this, donor_entry, spec, app, key, cls, arrival, respec_start,
       trace_id, cb = std::move(cb)](Result<engine::RespecReport> r) mutable {
        if (!r.ok()) {
          emit_span(trace_id, obs::Stage::kRespecialize, respec_start,
                    sim_.now() - respec_start, key.hash(), obs::kSpanError);
          // The donor is in an unknown state; drop it and fall back to an
          // ordinary cold start for the request.
          engine_.stop_and_remove(donor_entry.id, [](Result<bool>) {});
          provision_cold(spec, app, key, arrival, trace_id, std::move(cb));
          return;
        }
        const Duration paid = r.value().total();
        ++stats_.donor_hits;
        stats_.donor_respec_seconds += to_seconds(paid);
        if (obs_.donor_hits != nullptr) obs_.donor_hits->inc();
        if (obs_.respec_duration_ms != nullptr) {
          obs_.respec_duration_ms->observe(to_milliseconds(paid));
        }
        emit_span(trace_id, obs::Stage::kRespecialize, respec_start, paid,
                  key.hash(), obs::kSpanHit);
        pool::PoolEntry converted = donor_entry;
        converted.key = key;
        converted.respecialized = true;  // counted once at re-admission
        converted.prewarmed = false;
        converted.paused = false;
        converted.app_tag = 0;  // the wipe discarded the donor's app state
        donors_->record(key, cls, spec);
        run_on(converted, spec, app, /*was_prewarmed=*/false, paid, arrival,
               trace_id, std::move(cb), /*was_resumed=*/false,
               /*was_restored=*/false, /*was_respecialized=*/true);
      });
  return true;
}

void HotCController::run_on(const pool::PoolEntry& entry,
                            const spec::RunSpec& spec,
                            const engine::AppModel& app, bool was_prewarmed,
                            Duration startup_paid, TimePoint arrival,
                            std::uint64_t trace_id, Callback cb,
                            bool was_resumed, bool was_restored,
                            bool was_respecialized) {
  if (entry.paused) {
    // The pooled runtime is frozen: thaw before execution.  The fault-in
    // latency lands on this request, still far below a cold start.
    const TimePoint resume_start = sim_.now();
    engine_.resume(entry.id, [this, entry, spec, app, was_prewarmed,
                              startup_paid, arrival, resume_start, trace_id,
                              was_respecialized,
                              cb = std::move(cb)](Result<bool> r) mutable {
      pool::PoolEntry thawed = entry;
      thawed.paused = false;
      if (!r.ok()) {
        emit_span(trace_id, obs::Stage::kResume, resume_start,
                  sim_.now() - resume_start, entry.key.hash(),
                  obs::kSpanError);
        // A runtime that cannot thaw is not trusted; replace it with a
        // fresh cold start.
        engine_.stop_and_remove(entry.id, [](Result<bool>) {});
        const TimePoint relaunch_start = sim_.now();
        engine_.launch(spec, [this, spec, app, arrival, relaunch_start,
                              trace_id, key = entry.key, cb = std::move(cb)](
                                 Result<engine::LaunchReport> launched) {
          if (!launched.ok()) {
            emit_span(trace_id, obs::Stage::kColdStart, relaunch_start,
                      sim_.now() - relaunch_start, key.hash(),
                      obs::kSpanCold | obs::kSpanError);
            auto it = keys_.find(key.id());
            if (it != keys_.end() && it->second.busy_now > 0) {
              --it->second.busy_now;
            }
            cb(Result<RequestOutcome>(launched.error()));
            return;
          }
          emit_span(trace_id, obs::Stage::kColdStart, relaunch_start,
                    launched.value().breakdown.total(), key.hash(),
                    obs::kSpanCold);
          pool::PoolEntry fresh;
          fresh.id = launched.value().container;
          fresh.key = key;
          fresh.created_at = sim_.now();
          run_on(fresh, spec, app, false,
                 launched.value().breakdown.total(), arrival, trace_id, cb);
        });
        return;
      }
      emit_span(trace_id, obs::Stage::kResume, resume_start,
                sim_.now() - resume_start, entry.key.hash());
      run_on(thawed, spec, app, was_prewarmed, startup_paid, arrival,
             trace_id, std::move(cb), /*was_resumed=*/true,
             /*was_restored=*/false, was_respecialized);
    });
    return;
  }

  const spec::RuntimeKey key = entry.key;
  const TimePoint exec_start = sim_.now();
  auto exec_cb = [this, entry, key, was_prewarmed, startup_paid, arrival,
                  exec_start, trace_id, was_resumed, was_restored,
                  was_respecialized,
                  cb = std::move(cb)](Result<engine::ExecReport> r) {
    auto it = keys_.find(key.id());
    if (it != keys_.end() && it->second.busy_now > 0) {
      --it->second.busy_now;
    }
    const std::uint8_t cold_flag =
        startup_paid == kZeroDuration ? obs::kSpanHit : obs::kSpanCold;
    if (!r.ok()) {
      emit_span(trace_id, obs::Stage::kExec, exec_start,
                sim_.now() - exec_start, key.hash(),
                cold_flag | obs::kSpanError);
      // A container that failed to execute is not trusted back into the
      // pool; tear it down.
      engine_.stop_and_remove(entry.id, [](Result<bool>) {});
      cb(Result<RequestOutcome>(r.error()));
      return;
    }
    emit_span(trace_id, obs::Stage::kExec, exec_start, r.value().total(),
              key.hash(), cold_flag);

    RequestOutcome outcome;
    outcome.reused = startup_paid == kZeroDuration;
    outcome.prewarmed = was_prewarmed;
    outcome.resumed = was_resumed;
    outcome.restored = was_restored;
    outcome.respecialized = was_respecialized;
    outcome.startup = startup_paid;
    outcome.exec_total = r.value().total();
    outcome.total = sim_.now() - arrival;
    outcome.container = entry.id;

    // The response goes back to the client *now*; cleanup (Algorithm 2)
    // happens off the critical path and only then does the container
    // become Existing-Available again.
    cb(outcome);

    pool::PoolEntry returned = entry;
    const TimePoint clean_start = sim_.now();
    engine_.clean(entry.id, [this, returned, clean_start,
                             trace_id](Result<bool> cleaned) {
      if (!cleaned.ok()) {
        emit_span(trace_id, obs::Stage::kClean, clean_start,
                  sim_.now() - clean_start, returned.key.hash(),
                  obs::kSpanError);
        engine_.stop_and_remove(returned.id, [](Result<bool>) {});
        return;
      }
      emit_span(trace_id, obs::Stage::kClean, clean_start,
                sim_.now() - clean_start, returned.key.hash());
      pool::PoolEntry e = returned;
      e.prewarmed = false;  // once used, it is an ordinary pooled runtime
      pool_.add_available(e, sim_.now());
      emit_span(trace_id, obs::Stage::kReadmit, sim_.now(), kZeroDuration,
                e.key.hash());
      notify_pool_change(e.key);
    });
  };
  if (options_.use_subset_key) {
    // Subset-key reuse: the pooled container may differ in re-applicable
    // fields; the engine applies the delta and charges it to this request.
    engine_.exec_as(entry.id, app, spec, std::move(exec_cb));
  } else {
    engine_.exec(entry.id, app, std::move(exec_cb));
  }
}

void HotCController::enforce_pressure() {
  // Victims are stopped asynchronously, so track what this pass already
  // committed to releasing and decide on the adjusted numbers.
  std::size_t pending_stops = 0;
  Bytes pending_bytes = 0;
  const Bytes total_mem = engine_.host().memory_total;

  while (pool_.total_available() > 0) {
    const std::size_t live = engine_.live_count() - pending_stops;
    const double mem_util =
        static_cast<double>(engine_.memory_used() - pending_bytes) /
        static_cast<double>(total_mem);
    const bool over_capacity = live > options_.limits.max_live;
    const bool over_memory =
        mem_util > options_.limits.memory_threshold ||
        engine_.swap_used() > 0;
    if (!over_capacity && !over_memory) break;

    auto victim = pool_.select_victim(options_.eviction, &rng_);
    if (!victim.has_value()) break;
    const engine::Container* c = engine_.find(victim->id);
    pending_bytes += c != nullptr ? c->idle_memory : 0;
    ++pending_stops;
    ++stats_.evicted;
    pool_.count_eviction();
    retire_entry(*victim, /*pressure=*/true);
  }
}

void HotCController::retire_entry(const pool::PoolEntry& entry,
                                  bool pressure) {
  // Tiered warm state: a victim that passes the economic gate parks in
  // the checkpoint store instead of dying.  Paused entries skip the tier
  // (the engine demotes Idle only).
  if (store_ != nullptr && !entry.paused && demote_entry(entry, pressure)) {
    return;
  }
  if (!pool_.remove(entry.key, entry.id)) return;  // raced with acquire
  if (!pressure) ++stats_.retired;
  // Evict spans carry no request attribution (trace id 0): the controller
  // initiates them, not a client.
  emit_span(0, obs::Stage::kEvict, sim_.now(), kZeroDuration,
            entry.key.hash());
  if (obs_.retires != nullptr) {
    (pressure ? obs_.evictions : obs_.retires)->inc();
  }
  notify_pool_change(entry.key);
  // Checkpoint/restore extension: dump the warm state before losing it
  // (first retirement per key only — the image stays valid thereafter).
  // A Paused container must skip the dump: the engine checkpoints Idle.
  if (options_.use_checkpoint_restore && !entry.paused &&
      checkpoints_.find(entry.key.id()) == checkpoints_.end()) {
    ++stats_.checkpoints;
    engine_.checkpoint(
        entry.id,
        [this, entry](Result<engine::ContainerEngine::CheckpointId> r) {
          if (r.ok()) checkpoints_[entry.key.id()] = r.value();
          engine_.stop_and_remove(entry.id, [](Result<bool>) {});
        });
    return;
  }
  engine_.stop_and_remove(entry.id, [](Result<bool>) {});
}

bool HotCController::demote_entry(const pool::PoolEntry& entry,
                                  bool pressure) {
  // Gate first (no side effects): demote only when the modelled restore is
  // decisively cheaper than the cold start it would replace and the
  // snapshot could ever fit the disk budget.
  const auto state_it = keys_.find(entry.key.id());
  const engine::Container* c = engine_.find(entry.id);
  if (state_it == keys_.end() || c == nullptr) return false;
  const spec::RunSpec& spec = state_it->second.canonical_spec;
  const Bytes image_estimate = c->idle_memory + mib(2);
  const double cold_s =
      to_seconds(engine_.estimate_startup(spec).total());
  const double restore_s =
      to_seconds(engine_.cost_model().restore_time(image_estimate, spec));
  if (!snapshot::gate_passes(restore_s, cold_s, options_.tiering.alpha) ||
      image_estimate > store_->capacity_bytes()) {
    return false;
  }

  if (!pool_.remove_for_checkpoint(entry.key, entry.id)) {
    return true;  // raced with acquire; nothing left to retire
  }
  if (!pressure) ++stats_.retired;
  if (obs_.retires != nullptr) {
    (pressure ? obs_.evictions : obs_.retires)->inc();
  }
  notify_pool_change(entry.key);

  ++stats_.checkpoints;
  const TimePoint demote_start = sim_.now();
  const std::uint64_t tenant = snapshot::tenant_of(spec);
  engine_.demote(
      entry.id,
      [this, entry, tenant, restore_s, cold_s,
       demote_start](Result<engine::ContainerEngine::DemoteReport> r) {
        if (!r.ok()) {
          emit_span(0, obs::Stage::kCheckpoint, demote_start,
                    sim_.now() - demote_start, entry.key.hash(),
                    obs::kSpanError);
          engine_.stop_and_remove(entry.id, [](Result<bool>) {});
          return;
        }
        emit_span(0, obs::Stage::kCheckpoint, demote_start,
                  r.value().duration, entry.key.hash());
        if (obs_.snapshot_checkpoint_ms != nullptr) {
          obs_.snapshot_checkpoint_ms->observe(
              to_milliseconds(r.value().duration));
        }
        snapshot::SnapshotMeta meta;
        meta.key = entry.key.id();
        meta.tenant = tenant;
        meta.container = entry.id;
        meta.bytes = r.value().image_size;
        meta.created_at = sim_.now();
        meta.restore_estimate_s = restore_s;
        meta.cold_estimate_s = cold_s;
        const auto admitted = store_->admit(meta, sim_.now());
        discard_snapshots(admitted.evicted);
        if (!admitted.accepted) {
          // Quota/budget said no after the dump (e.g. the per-tenant
          // quota filled meanwhile): drop the parked container.
          engine_.discard_checkpointed(entry.id, [](Result<bool>) {});
        }
      });
  return true;
}

void HotCController::discard_snapshots(
    const std::vector<snapshot::SnapshotMeta>& metas) {
  for (const snapshot::SnapshotMeta& meta : metas) {
    engine_.discard_checkpointed(meta.container, [](Result<bool>) {});
  }
}

void HotCController::prewarm(const spec::RuntimeKey& key, KeyState& state) {
  ++stats_.prewarm_launches;
  if (obs_.prewarms != nullptr) obs_.prewarms->inc();
  const TimePoint launch_start = sim_.now();
  engine_.launch(state.canonical_spec,
                 [this, key, launch_start](Result<engine::LaunchReport> r) {
                   if (!r.ok()) {
                     emit_span(0, obs::Stage::kPrewarm, launch_start,
                               sim_.now() - launch_start, key.hash(),
                               obs::kSpanError);
                     return;  // host refused; demand stays cold
                   }
                   emit_span(0, obs::Stage::kPrewarm, launch_start,
                             r.value().breakdown.total(), key.hash());
                   pool::PoolEntry e;
                   e.id = r.value().container;
                   e.key = key;
                   e.created_at = sim_.now();
                   e.prewarmed = true;
                   pool_.add_available(e, sim_.now());
                   notify_pool_change(key);
                 });
}

namespace {

std::uint16_t clamp_u16(std::size_t v) {
  return static_cast<std::uint16_t>(std::min<std::size_t>(v, 0xffff));
}

}  // namespace

void HotCController::adaptive_tick() {
  const TimePoint now = sim_.now();
  ++tick_;
  const double interval_s = to_seconds(options_.adaptive_interval);
  stats_.idle_container_seconds +=
      static_cast<double>(pool_.total_available()) * interval_s;

  std::size_t target_sum = 0;
  std::size_t tick_prewarms = 0;
  std::size_t tick_retires = 0;
  const std::uint64_t evicted_before = stats_.evicted;
  for (auto& [key_id, state] : keys_) {
    const spec::RuntimeKey key = spec::RuntimeKey::from_id(key_id);
    // Observe this interval's demand: the peak number of simultaneously
    // busy containers of this runtime type.
    const auto demand = static_cast<double>(state.interval_peak);
    bool drift_fired = false;
    // Score the forecast the previous tick made for *this* interval
    // before the predictor sees the new observation (Algorithm 3's
    // smoothing error, per key and accumulated).
    if (state.last_forecast >= 0.0) {
      const double err = std::abs(state.last_forecast - demand);
      if (obs_.prediction_samples != nullptr) {
        obs_.prediction_samples->inc();
        obs_.prediction_error_sum->add(err);
        if (state.error_gauge == nullptr) {
          state.error_gauge = &options_.registry->gauge(
              "hotc_controller_prediction_abs_error",
              "Last interval's |forecast - observed demand|, per runtime key",
              key_label(key));
        }
        state.error_gauge->set(err);
      }
      // Drift feedback, before the predictor sees this tick's demand:
      // the restarted smoother re-seeds on it, so recovery starts now.
      if (options_.enable_drift_detection && state.drift.observe(err)) {
        drift_fired = true;
        state.predictor->restart_smoothing();
        state.donation_muted_until = tick_ + options_.drift.cooldown_ticks;
        ++stats_.drift_restarts;
        if (obs_.drift_restarts != nullptr) obs_.drift_restarts->inc();
        emit_span(0, obs::Stage::kDriftRestart, now, kZeroDuration,
                  key.hash());
      }
    }
    state.predictor->observe(demand);
    state.demand.add(now, demand);
    const double forecast = std::max(0.0, state.predictor->predict());
    state.forecast.add(now, forecast);
    state.last_forecast = forecast;
    state.interval_peak = state.busy_now;
    state.interval_requests = 0;

    const auto target = static_cast<std::size_t>(std::ceil(forecast));
    target_sum += target;

    // The per-key resize decision is the pure function decide_tick()
    // (obs/journal.hpp) over exactly the inputs journalled below — the
    // replay harness re-derives it from the record alone.
    obs::TickInputs in;
    in.forecast = forecast;
    in.available = pool_.num_available(key);
    in.have = in.available + state.busy_now;
    const std::size_t live = engine_.live_count();
    in.headroom = live < options_.limits.max_live
                      ? options_.limits.max_live - live
                      : 0;
    in.prewarm_enabled = options_.enable_prewarm;
    in.retire_enabled = options_.enable_retire;
    in.sharing_enabled = donors_ != nullptr;
    in.donation_muted = tick_ <= state.donation_muted_until;
    const obs::TickDecision decision = obs::decide_tick(in);

    if (donors_ != nullptr) {
      // Donor nomination tracks the *unrounded* forecast: a key whose
      // warm stock clearly exceeds predicted demand is over-provisioned
      // and may give up even its last idle runtime to a sibling.  The
      // ceil() used for the prewarm/retire target would keep every
      // once-used key "needed" forever while its smoothed forecast
      // decays toward (but never reaches) zero.  A drift-muted key is
      // additionally barred from find_donor entirely — its surplus is
      // computed from a forecast the detector just distrusted.
      donors_->set_muted(key, state.compat, in.donation_muted);
      donors_->nominate(key, state.compat, decision.nominate_donor);
    }
    for (std::size_t i = 0; i < decision.prewarms; ++i) prewarm(key, state);
    if (decision.retires > 0) {
      auto entries = pool_.entries(key);  // oldest first
      for (std::size_t i = 0; i < decision.retires && i < entries.size();
           ++i) {
        retire_entry(entries[i], /*pressure=*/false);
      }
    }
    tick_prewarms += decision.prewarms;
    tick_retires += decision.retires;

    if (options_.journal != nullptr) {
      obs::DecisionRecord rec;
      rec.tick = tick_;
      rec.key_hash = key.hash();
      rec.key_id = key.id();
      rec.demand = demand;
      rec.smoothed = state.predictor->smoothed_value();
      rec.forecast = forecast;
      rec.markov_region =
          static_cast<std::int8_t>(state.predictor->markov_region());
      rec.have = clamp_u16(in.have);
      rec.available = clamp_u16(in.available);
      rec.headroom = clamp_u16(in.headroom);
      rec.prewarms = clamp_u16(decision.prewarms);
      rec.retires = clamp_u16(decision.retires);
      rec.flags = static_cast<std::uint8_t>(
          (drift_fired ? obs::kJournalDriftRestart : 0) |
          (decision.nominate_donor ? obs::kJournalDonorNominated : 0) |
          (in.donation_muted ? obs::kJournalDonationMuted : 0));
      options_.journal->append(rec);
    }
  }

  if (obs_.predicted_containers != nullptr) {
    obs_.predicted_containers->set(static_cast<double>(target_sum));
    obs_.live_containers->set(static_cast<double>(engine_.live_count()));
    obs_.pooled_containers->set(
        static_cast<double>(pool_.total_available()));
  }

  if (options_.pause_idle_after > kZeroDuration) pause_stale_entries(now);

  // Fixed idle cap, if configured (ablation vs keep-alive baselines).
  if (options_.idle_cap > kZeroDuration) {
    for (const auto& key : pool_.keys()) {
      for (const auto& entry : pool_.entries(key)) {
        if (now - entry.returned_at > options_.idle_cap) {
          retire_entry(entry, /*pressure=*/false);
        }
      }
    }
  }

  enforce_pressure();

  if (options_.journal != nullptr) {
    // Per-tick summary: evictions and donations are global effects (pool
    // pressure, request-path donor hits) the per-key records cannot carry.
    obs::DecisionRecord sum;
    sum.tick = tick_;
    sum.flags = obs::kJournalSummary;
    sum.prewarms = clamp_u16(tick_prewarms);
    sum.retires = clamp_u16(tick_retires);
    sum.evictions = clamp_u16(
        static_cast<std::size_t>(stats_.evicted - evicted_before));
    sum.donations = clamp_u16(
        static_cast<std::size_t>(stats_.donor_hits - summary_donor_hits_));
    summary_donor_hits_ = stats_.donor_hits;
    options_.journal->append(sum);
  }

  // Ring totals feed the trace_drop_ratio SLO, so sync them just before
  // the engine evaluates its windows.
  if (options_.tracer != nullptr) options_.tracer->sync_trace_counters();
  if (options_.slo != nullptr && options_.tsdb != nullptr) {
    // One consistent cut shared by the SLO engine and the time-series
    // store: both see the exact same instrument values, and the tick
    // tail pays for a single Registry read, refreshing the last one.
    options_.tsdb->registry().snapshot(cut_);
    options_.slo->evaluate_snapshot(tick_, cut_);
    options_.tsdb->sample_snapshot(tick_, cut_);
  } else {
    if (options_.slo != nullptr) options_.slo->evaluate(tick_);
    if (options_.tsdb != nullptr) options_.tsdb->sample(tick_);
  }
  if (options_.blackbox != nullptr) {
    options_.blackbox->note_tick(tick_);
    if (options_.slo != nullptr) {
      options_.blackbox->update_slo_mirror(options_.slo->status(),
                                           options_.slo->alerts_fired());
    }
  }
}

void HotCController::pause_stale_entries(TimePoint now) {
  for (const auto& key : pool_.keys()) {
    for (const auto& entry : pool_.entries(key)) {
      if (entry.paused) continue;
      if (now - entry.returned_at <= options_.pause_idle_after) continue;
      // Mark in the pool first so a racing acquire sees the flag, then
      // freeze the container (engine state flips synchronously too).
      if (pool_.mark_paused(key, entry.id)) {
        engine_.pause(entry.id, [](Result<bool>) {});
      }
    }
  }
}

void HotCController::start_adaptive_loop(TimePoint until) {
  HOTC_ASSERT_MSG(!adaptive_running_, "adaptive loop already running");
  adaptive_running_ = true;
  adaptive_until_ = until;
  sim_.every(
      options_.adaptive_interval,
      [this]() { return adaptive_running_ && sim_.now() <= adaptive_until_; },
      [this]() { adaptive_tick(); });
}

const TimeSeries* HotCController::demand_history(
    const spec::RuntimeKey& key) const {
  const auto it = keys_.find(key.id());
  return it == keys_.end() ? nullptr : &it->second.demand;
}

const TimeSeries* HotCController::forecast_history(
    const spec::RuntimeKey& key) const {
  const auto it = keys_.find(key.id());
  return it == keys_.end() ? nullptr : &it->second.forecast;
}

std::optional<double> HotCController::current_forecast(
    const spec::RuntimeKey& key) const {
  const auto it = keys_.find(key.id());
  if (it == keys_.end()) return std::nullopt;
  return it->second.predictor->predict();
}

}  // namespace hotc
