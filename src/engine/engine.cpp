#include "engine/engine.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/log.hpp"
#include "spec/compat.hpp"

namespace hotc::engine {
namespace {
/// Memory the host OS itself occupies (kernel, daemons).
constexpr Bytes kOsBaseline = mib(180);
/// Bookkeeping CPU overhead per live container — calibrated so ten live
/// containers cost "less than 1 %" of CPU (Fig. 15(a)).
constexpr double kIdleCpuPerContainer = 0.0008;

/// Resource releases on the teardown paths are best-effort (the container
/// is going away regardless), but an error must not be silently dropped:
/// it means the engine's own bookkeeping disagrees with the managers.
template <typename T>
void warn_if_failed(const Result<T>& r, const char* what) {
  if (!r.ok()) {
    HOTC_WARN("engine") << what << " failed: " << r.error().to_string();
  }
}
}  // namespace

ContainerEngine::ContainerEngine(sim::Simulator& sim, HostProfile profile)
    : sim_(sim),
      cost_(std::move(profile)),
      memory_(cost_.host().memory_total),
      cpu_(cost_.host().cores) {
  // The OS baseline always occupies part of the pool.
  memory_.reserve(std::min(kOsBaseline, cost_.host().memory_total / 2));
}

void ContainerEngine::set_state(Container& c, ContainerState next) {
  HOTC_ASSERT_MSG(transition_allowed(c.state, next),
                  "illegal container state transition");
  c.state = next;
  if (obs::Counter* counter = transition_counters_[state_index(next)]) {
    counter->inc();
  }
}

void ContainerEngine::attach_metrics(obs::Registry& registry) {
  for (std::size_t s = 0; s < kContainerStateCount; ++s) {
    const auto state = static_cast<ContainerState>(s);
    transition_counters_[s] = &registry.counter(
        "hotc_engine_state_transitions_total",
        "Container FSM transitions, by destination state",
        std::string("to=\"") + to_string(state) + "\"");
  }
  clean_duration_ms_ = &registry.histogram(
      "hotc_engine_clean_duration_ms",
      "Algorithm 2 volume wipe + remount duration (milliseconds)");
}

bool ContainerEngine::reserve_or_swap(Bytes amount) {
  if (memory_.reserve(amount)) return false;
  // Pool exhausted: the host swaps.  Track it separately so the monitor
  // (and HotC's pressure heuristic) can see used_swap grow.
  swap_used_ += amount;
  return true;
}

void ContainerEngine::release_memory(Bytes amount) {
  // Swap-resident pages are released first (the OS reclaims them eagerly,
  // per the Fig. 15(b) observation).
  const Bytes from_swap = std::min(amount, swap_used_);
  swap_used_ -= from_swap;
  memory_.release(amount - from_swap);
}

void ContainerEngine::preload_image(const spec::ImageRef& ref) {
  auto image = registry_.resolve(ref);
  if (image.ok()) store_.commit(image.value());
}

void ContainerEngine::set_fault_model(const FaultModel& faults) {
  faults_ = faults;
  fault_rng_ = Rng(faults.seed);
}

StartupBreakdown ContainerEngine::estimate_startup(
    const spec::RunSpec& spec) const {
  auto image = registry_.resolve(spec.image);
  if (!image.ok()) return StartupBreakdown{};
  const Bytes missing = store_.missing_bytes(image.value());
  const bool create_net =
      (spec.network == spec::NetworkMode::kOverlay && !overlay_created_) ||
      (spec.network == spec::NetworkMode::kRouting && !routing_created_);
  return cost_.startup(spec, image.value(), missing, create_net);
}

void ContainerEngine::launch(const spec::RunSpec& spec, LaunchCallback cb) {
  auto image = registry_.resolve(spec.image);
  if (!image.ok()) {
    cb(Result<LaunchReport>(image.error()));
    return;
  }
  const Image img = image.value();

  // Memory for the idle container is committed up front; a host that
  // cannot even hold the idle footprint refuses the launch.
  if (memory_.free() < img.base_memory) {
    cb(make_error<LaunchReport>(
        "engine.out_of_memory",
        "host cannot hold another idle container of " + spec.image.full()));
    return;
  }

  const Bytes missing = store_.missing_bytes(img);
  const bool create_net =
      (spec.network == spec::NetworkMode::kOverlay && !overlay_created_) ||
      (spec.network == spec::NetworkMode::kRouting && !routing_created_);
  const StartupBreakdown breakdown =
      cost_.startup(spec, img, missing, create_net);

  // Container-mode networking needs a proxy endpoint to join; create the
  // hidden bridge proxy on first use (its cost is inside the halved
  // container-mode launch numbers).
  EndpointId proxy = 0;
  if (spec.network == spec::NetworkMode::kContainer) {
    if (proxy_endpoint_ == 0) {
      auto proxy_ep = network_.provision(spec::NetworkMode::kBridge);
      if (!proxy_ep.ok()) {
        cb(Result<LaunchReport>(proxy_ep.error()));
        return;
      }
      proxy_endpoint_ = proxy_ep.value().id;
    }
    proxy = proxy_endpoint_;
  }

  auto endpoint = network_.provision(spec.network, proxy);
  if (!endpoint.ok()) {
    cb(Result<LaunchReport>(endpoint.error()));
    return;
  }
  if (spec.network == spec::NetworkMode::kOverlay) overlay_created_ = true;
  if (spec.network == spec::NetworkMode::kRouting) routing_created_ = true;

  const ContainerId id = next_id_++;
  Container c;
  c.id = id;
  c.spec = spec;
  c.key = spec::RuntimeKey::from_spec(spec);
  c.image = img;
  c.state = ContainerState::kProvisioning;
  c.endpoint = endpoint.value().id;
  c.volume = volumes_.create().id;
  c.created_at = sim_.now();
  c.last_used = sim_.now();
  c.idle_memory = img.base_memory;
  reserve_or_swap(c.idle_memory);
  containers_[id] = c;
  ++launches_;

  HOTC_DEBUG("engine") << "launch " << spec.image.full() << " as #" << id
                       << " cold=" << format_duration(breakdown.total());

  const bool inject_failure =
      faults_.launch_failure_rate > 0.0 &&
      fault_rng_.chance(faults_.launch_failure_rate);
  sim_.after(breakdown.total(), [this, id, breakdown, inject_failure, cb]() {
    auto it = containers_.find(id);
    HOTC_ASSERT(it != containers_.end());
    // Pull committed the layers to the local store even on failure.
    store_.commit(it->second.image);
    if (inject_failure) {
      ++launch_failures_;
      Container& dead = it->second;
      set_state(dead, ContainerState::kStopping);
      set_state(dead, ContainerState::kRemoved);
      release_memory(dead.idle_memory);
      warn_if_failed(network_.release(dead.endpoint), "endpoint release");
      warn_if_failed(volumes_.destroy(dead.volume), "volume destroy");
      containers_.erase(it);
      cb(make_error<LaunchReport>("engine.launch_failed",
                                  "injected launch failure"));
      return;
    }
    set_state(it->second, ContainerState::kIdle);
    LaunchReport report;
    report.container = id;
    report.breakdown = breakdown;
    cb(report);
  });
}

void ContainerEngine::exec(ContainerId id, const AppModel& app,
                           ExecCallback cb) {
  exec_as(id, app, spec::RunSpec{}, std::move(cb));
}

void ContainerEngine::exec_as(ContainerId id, const AppModel& app,
                              const spec::RunSpec& request_spec,
                              ExecCallback cb) {
  auto it = containers_.find(id);
  if (it == containers_.end()) {
    cb(make_error<ExecReport>("engine.unknown_container",
                              "no container " + std::to_string(id)));
    return;
  }
  Container& c = it->second;
  if (c.state != ContainerState::kIdle) {
    cb(make_error<ExecReport>(
        "engine.not_available",
        "container " + std::to_string(id) + " is " + to_string(c.state)));
    return;
  }
  set_state(c, ContainerState::kBusy);
  c.last_used = sim_.now();
  ++c.exec_count;
  ++execs_;

  const bool warm = (c.warm_app == app.name);
  const Bytes extra_memory = app.memory;
  const bool swapped = reserve_or_swap(extra_memory);
  c.busy_memory = extra_memory;

  ExecReport report;
  report.container = id;
  report.app_was_warm = warm;
  report.swapped = swapped;
  // An empty request image means "as configured" (the plain exec path);
  // otherwise apply the re-applicable deltas before the handler starts.
  if (!request_spec.image.name.empty()) {
    report.reconfigure = cost_.reconfigure_time(c.spec, request_spec);
    c.spec.env = request_spec.env;
    c.spec.volumes = request_spec.volumes;
    c.spec.command = request_spec.command;
  }
  // cgroup cpu quota: a limit below one full core stretches compute
  // proportionally (cfs throttling).
  const double quota = (c.spec.cpu_limit > 0.0 && c.spec.cpu_limit < 1.0)
                           ? 1.0 / c.spec.cpu_limit
                           : 1.0;
  report.app_init = warm ? kZeroDuration
                         : scale(cost_.compute_time(app.app_init_seconds),
                                 quota);
  report.download = cost_.pull_time(app.download_bytes);
  // Swapping roughly halves effective compute speed in our model.
  const double slow = (swapped ? 2.0 : 1.0) * quota;
  report.compute = scale(cost_.compute_time(app.exec_seconds), slow);

  // Everything the CPU grant and the completion need travels in one boxed
  // job, so the two closures stay small and nothing is copied per hop.
  struct Job {
    ContainerId id;
    ExecReport report;
    TimePoint queued_at;
    std::string app_name;
    Bytes writes;
    bool inject_crash;
    ExecCallback cb;
  };
  auto job = std::make_unique<Job>(Job{
      id, report, sim_.now(), app.name, app.volume_writes,
      faults_.exec_crash_rate > 0.0 &&
          fault_rng_.chance(faults_.exec_crash_rate),
      std::move(cb)});
  cpu_.acquire([this, job = std::move(job)]() mutable {
    ExecReport& r = job->report;
    r.queueing = sim_.now() - job->queued_at;
    Duration busy = r.reconfigure + r.app_init + r.download + r.compute;
    // An injected crash kills the process partway through execution.
    if (job->inject_crash) busy = scale(busy, 0.5);
    sim_.after(busy, [this, job = std::move(job)]() {
      auto inner = containers_.find(job->id);
      HOTC_ASSERT(inner != containers_.end());
      Container& done = inner->second;
      release_memory(done.busy_memory);
      done.busy_memory = 0;
      set_state(done, ContainerState::kIdle);
      done.last_used = sim_.now();
      cpu_.release();
      if (job->inject_crash) {
        ++exec_crashes_;
        // The container survives (the watchdog restarts the handler); the
        // warm-app state is gone with the dead process.
        done.warm_app.clear();
        job->cb(make_error<ExecReport>("engine.exec_crashed",
                                       "injected function crash"));
        return;
      }
      done.warm_app = std::move(job->app_name);
      warn_if_failed(volumes_.write(done.volume, job->writes),
                     "volume write");
      job->cb(job->report);
    });
  });
}

void ContainerEngine::clean(ContainerId id, DoneCallback cb) {
  auto it = containers_.find(id);
  if (it == containers_.end()) {
    cb(make_error<bool>("engine.unknown_container",
                        "no container " + std::to_string(id)));
    return;
  }
  Container& c = it->second;
  // Cleaning is only legal once execution has finished (the container is
  // back to Idle); cleaning a Busy container would race the in-flight exec.
  if (c.state != ContainerState::kIdle) {
    cb(make_error<bool>("engine.not_cleanable",
                        "container " + std::to_string(id) + " is " +
                            to_string(c.state)));
    return;
  }
  set_state(c, ContainerState::kBusy);
  set_state(c, ContainerState::kCleaning);

  auto dirty = volumes_.get(c.volume);
  const Bytes dirty_bytes = dirty.ok() ? dirty.value().dirty_bytes : 0;
  const Duration d = cost_.cleanup_time(dirty_bytes);
  if (clean_duration_ms_ != nullptr) {
    clean_duration_ms_->observe(to_milliseconds(d));
  }
  sim_.after(d, [this, id, cb = std::move(cb)]() {
    auto inner = containers_.find(id);
    HOTC_ASSERT(inner != containers_.end());
    warn_if_failed(volumes_.wipe_and_remount(inner->second.volume),
                   "volume wipe");
    set_state(inner->second, ContainerState::kIdle);
    cb(true);
  });
}

RespecReport ContainerEngine::respec_phases(const spec::RunSpec& donor,
                                            const spec::RunSpec& target,
                                            Bytes dirty_bytes) const {
  RespecReport r;
  r.clean = cost_.cleanup_time(dirty_bytes);
  r.reconfigure = cost_.reconfigure_time(donor, target);
  const spec::CompatDelta delta = spec::compat_delta(donor, target);
  if (delta.limits_differ) r.cgroups = cost_.cgroup_time(target);
  if (delta.tag_differs) {
    auto image = registry_.resolve(target.image);
    if (image.ok()) {
      const Bytes missing = store_.missing_bytes(image.value());
      r.layers = cost_.pull_time(missing) + cost_.extract_time(missing) +
                 cost_.rootfs_time(image.value());
    }
  }
  return r;
}

RespecReport ContainerEngine::estimate_respecialize(
    const spec::RunSpec& donor, const spec::RunSpec& target) const {
  if (!spec::compatible(donor, target)) return RespecReport{};
  return respec_phases(donor, target, 0);
}

void ContainerEngine::respecialize(ContainerId id,
                                   const spec::RunSpec& target,
                                   RespecCallback cb) {
  auto it = containers_.find(id);
  if (it == containers_.end()) {
    cb(make_error<RespecReport>("engine.unknown_container",
                                "no container " + std::to_string(id)));
    return;
  }
  Container& c = it->second;
  if (c.state != ContainerState::kIdle) {
    cb(make_error<RespecReport>("engine.not_respecializable",
                                "container " + std::to_string(id) + " is " +
                                    to_string(c.state)));
    return;
  }
  if (!spec::compatible(c.spec, target)) {
    cb(make_error<RespecReport>(
        "engine.incompatible",
        "container " + std::to_string(id) + " (" + c.spec.image.full() +
            ") is not class-compatible with " + target.image.full()));
    return;
  }
  auto image = registry_.resolve(target.image);
  if (!image.ok()) {
    cb(Result<RespecReport>(image.error()));
    return;
  }
  const Image img = image.value();

  auto dirty = volumes_.get(c.volume);
  const Bytes dirty_bytes = dirty.ok() ? dirty.value().dirty_bytes : 0;
  RespecReport report = respec_phases(c.spec, target, dirty_bytes);
  report.container = id;
  if (clean_duration_ms_ != nullptr) {
    clean_duration_ms_->observe(to_milliseconds(report.clean));
  }

  // Conversion reuses the clean path's FSM walk: the container is out of
  // service while its volume is wiped and the delta applied.
  set_state(c, ContainerState::kBusy);
  set_state(c, ContainerState::kCleaning);

  sim_.after(report.total(), [this, id, target, img, report, cb]() {
    auto inner = containers_.find(id);
    HOTC_ASSERT(inner != containers_.end());
    Container& done = inner->second;
    warn_if_failed(volumes_.wipe_and_remount(done.volume), "volume wipe");
    store_.commit(img);  // the layer delta (if any) is now local
    if (img.base_memory != done.idle_memory) {
      release_memory(done.idle_memory);
      reserve_or_swap(img.base_memory);
      done.idle_memory = img.base_memory;
    }
    done.spec = target;
    done.key = spec::RuntimeKey::from_spec(target);
    done.image = img;
    done.warm_app.clear();  // the donor's app init state went with the wipe
    set_state(done, ContainerState::kIdle);
    done.last_used = sim_.now();
    cb(report);
  });
}

void ContainerEngine::pause(ContainerId id, DoneCallback cb) {
  auto it = containers_.find(id);
  if (it == containers_.end()) {
    cb(make_error<bool>("engine.unknown_container",
                        "no container " + std::to_string(id)));
    return;
  }
  Container& c = it->second;
  if (c.state != ContainerState::kIdle) {
    cb(make_error<bool>("engine.not_pausable",
                        "container " + std::to_string(id) + " is " +
                            to_string(c.state)));
    return;
  }
  set_state(c, ContainerState::kPaused);
  // Four fifths of the idle footprint pages out; the cgroup metadata
  // stays resident.
  c.paused_released = c.idle_memory * 4 / 5;
  release_memory(c.paused_released);
  sim_.after(cost_.pause_time(), [cb]() { cb(true); });
}

void ContainerEngine::resume(ContainerId id, DoneCallback cb) {
  auto it = containers_.find(id);
  if (it == containers_.end()) {
    cb(make_error<bool>("engine.unknown_container",
                        "no container " + std::to_string(id)));
    return;
  }
  Container& c = it->second;
  if (c.state != ContainerState::kPaused) {
    cb(make_error<bool>("engine.not_paused",
                        "container " + std::to_string(id) + " is " +
                            to_string(c.state)));
    return;
  }
  const Duration d = cost_.resume_time(c.paused_released);
  reserve_or_swap(c.paused_released);
  c.paused_released = 0;
  sim_.after(d, [this, id, cb = std::move(cb)]() {
    auto inner = containers_.find(id);
    HOTC_ASSERT(inner != containers_.end());
    set_state(inner->second, ContainerState::kIdle);
    cb(true);
  });
}

void ContainerEngine::checkpoint(ContainerId id, CheckpointCallback cb) {
  auto it = containers_.find(id);
  if (it == containers_.end()) {
    cb(make_error<CheckpointId>("engine.unknown_container",
                                "no container " + std::to_string(id)));
    return;
  }
  Container& c = it->second;
  if (c.state != ContainerState::kIdle) {
    cb(make_error<CheckpointId>("engine.not_checkpointable",
                                "container " + std::to_string(id) + " is " +
                                    to_string(c.state)));
    return;
  }
  // The dump contains the idle process image plus warm application state
  // (loaded model, JIT caches) — which is why restores start warm.
  CheckpointImage img;
  img.spec = c.spec;
  img.image = c.image;
  img.warm_app = c.warm_app;
  img.size = c.idle_memory + mib(2);  // page dump + metadata
  const CheckpointId ckpt_id = next_checkpoint_id_++;
  const Duration d = cost_.checkpoint_time(c.idle_memory);
  sim_.after(d, [this, ckpt_id, img = std::move(img), cb]() mutable {
    checkpoints_.emplace(ckpt_id, std::move(img));
    cb(ckpt_id);
  });
}

void ContainerEngine::restore(CheckpointId checkpoint, LaunchCallback cb) {
  const auto it = checkpoints_.find(checkpoint);
  if (it == checkpoints_.end()) {
    cb(make_error<LaunchReport>("engine.unknown_checkpoint",
                                "no checkpoint " +
                                    std::to_string(checkpoint)));
    return;
  }
  const CheckpointImage& img = it->second;
  if (memory_.free() < img.image.base_memory) {
    cb(make_error<LaunchReport>("engine.out_of_memory",
                                "host cannot hold the restored container"));
    return;
  }
  auto endpoint = network_.provision(img.spec.network);
  if (!endpoint.ok()) {
    cb(Result<LaunchReport>(endpoint.error()));
    return;
  }

  const ContainerId id = next_id_++;
  Container c;
  c.id = id;
  c.spec = img.spec;
  c.key = spec::RuntimeKey::from_spec(img.spec);
  c.image = img.image;
  c.state = ContainerState::kProvisioning;
  c.endpoint = endpoint.value().id;
  c.volume = volumes_.create().id;
  c.created_at = sim_.now();
  c.last_used = sim_.now();
  c.idle_memory = img.image.base_memory;
  c.warm_app = img.warm_app;  // restored process state is warm
  reserve_or_swap(c.idle_memory);
  containers_[id] = c;
  ++launches_;

  const Duration d = cost_.restore_time(img.size, img.spec);
  StartupBreakdown breakdown;  // restore is a single "attach"-like phase
  breakdown.attach = d;
  sim_.after(d, [this, id, breakdown, cb]() {
    auto inner = containers_.find(id);
    HOTC_ASSERT(inner != containers_.end());
    set_state(inner->second, ContainerState::kIdle);
    LaunchReport report;
    report.container = id;
    report.breakdown = breakdown;
    cb(report);
  });
}

bool ContainerEngine::drop_checkpoint(CheckpointId checkpoint) {
  return checkpoints_.erase(checkpoint) > 0;
}

void ContainerEngine::demote(ContainerId id, DemoteCallback cb) {
  auto it = containers_.find(id);
  if (it == containers_.end()) {
    cb(make_error<DemoteReport>("engine.unknown_container",
                                "no container " + std::to_string(id)));
    return;
  }
  Container& c = it->second;
  if (c.state != ContainerState::kIdle) {
    cb(make_error<DemoteReport>("engine.not_checkpointable",
                                "container " + std::to_string(id) + " is " +
                                    to_string(c.state)));
    return;
  }
  set_state(c, ContainerState::kCheckpointed);
  // The whole resident set pages out to the dump; only the id/endpoint/
  // volume metadata stays (~zero idle memory, the tier's whole point).
  c.checkpoint_released = c.idle_memory;
  release_memory(c.checkpoint_released);
  c.checkpoint_image = c.idle_memory + mib(2);  // page dump + metadata
  DemoteReport report;
  report.container = id;
  report.image_size = c.checkpoint_image;
  report.duration = cost_.checkpoint_time(c.idle_memory);
  sim_.after(report.duration, [report, cb]() { cb(report); });
}

void ContainerEngine::restore_container(ContainerId id, LaunchCallback cb) {
  auto it = containers_.find(id);
  if (it == containers_.end()) {
    cb(make_error<LaunchReport>("engine.unknown_container",
                                "no container " + std::to_string(id)));
    return;
  }
  Container& c = it->second;
  if (c.state != ContainerState::kCheckpointed) {
    cb(make_error<LaunchReport>("engine.not_checkpointed",
                                "container " + std::to_string(id) + " is " +
                                    to_string(c.state)));
    return;
  }
  const Duration d = cost_.restore_time(c.checkpoint_image, c.spec);
  reserve_or_swap(c.checkpoint_released);
  c.checkpoint_released = 0;
  StartupBreakdown breakdown;  // restore is a single "attach"-like phase
  breakdown.attach = d;
  sim_.after(d, [this, id, breakdown, cb]() {
    auto inner = containers_.find(id);
    HOTC_ASSERT(inner != containers_.end());
    Container& done = inner->second;
    done.checkpoint_image = 0;
    set_state(done, ContainerState::kIdle);
    done.last_used = sim_.now();
    LaunchReport report;
    report.container = id;
    report.breakdown = breakdown;
    cb(report);
  });
}

void ContainerEngine::discard_checkpointed(ContainerId id, DoneCallback cb) {
  auto it = containers_.find(id);
  if (it == containers_.end()) {
    cb(make_error<bool>("engine.unknown_container",
                        "no container " + std::to_string(id)));
    return;
  }
  Container& c = it->second;
  if (c.state != ContainerState::kCheckpointed) {
    cb(make_error<bool>("engine.not_checkpointed",
                        "container " + std::to_string(id) + " is " +
                            to_string(c.state)));
    return;
  }
  set_state(c, ContainerState::kStopping);
  // No process to SIGTERM — only the dump file and metadata go away.
  sim_.after(cost_.remove_time(), [this, id, cb]() {
    auto inner = containers_.find(id);
    HOTC_ASSERT(inner != containers_.end());
    Container& done = inner->second;
    release_memory(done.idle_memory + done.busy_memory -
                   done.paused_released - done.checkpoint_released);
    warn_if_failed(network_.release(done.endpoint), "endpoint release");
    warn_if_failed(volumes_.destroy(done.volume), "volume destroy");
    set_state(done, ContainerState::kRemoved);
    containers_.erase(inner);
    cb(true);
  });
}

std::size_t ContainerEngine::checkpointed_count() const {
  std::size_t n = 0;
  for (const auto& [id, c] : containers_) {
    (void)id;
    if (c.state == ContainerState::kCheckpointed) ++n;
  }
  return n;
}

Bytes ContainerEngine::checkpointed_disk_used() const {
  Bytes total = 0;
  for (const auto& [id, c] : containers_) {
    (void)id;
    if (c.state == ContainerState::kCheckpointed) total += c.checkpoint_image;
  }
  return total;
}

Bytes ContainerEngine::checkpoint_disk_used() const {
  Bytes total = 0;
  for (const auto& [id, img] : checkpoints_) {
    (void)id;
    total += img.size;
  }
  return total;
}

void ContainerEngine::stop_and_remove(ContainerId id, DoneCallback cb) {
  auto it = containers_.find(id);
  if (it == containers_.end()) {
    cb(make_error<bool>("engine.unknown_container",
                        "no container " + std::to_string(id)));
    return;
  }
  Container& c = it->second;
  if (c.state == ContainerState::kStopping ||
      c.state == ContainerState::kRemoved) {
    cb(make_error<bool>("engine.already_stopping",
                        "container " + std::to_string(id) + " is " +
                            to_string(c.state)));
    return;
  }
  set_state(c, ContainerState::kStopping);
  const Duration d = cost_.stop_time() + cost_.remove_time();
  sim_.after(d, [this, id, cb = std::move(cb)]() {
    auto inner = containers_.find(id);
    HOTC_ASSERT(inner != containers_.end());
    Container& done = inner->second;
    release_memory(done.idle_memory + done.busy_memory -
                   done.paused_released - done.checkpoint_released);
    warn_if_failed(network_.release(done.endpoint), "endpoint release");
    warn_if_failed(volumes_.destroy(done.volume), "volume destroy");
    set_state(done, ContainerState::kRemoved);
    containers_.erase(inner);
    cb(true);
  });
}

const Container* ContainerEngine::find(ContainerId id) const {
  const auto it = containers_.find(id);
  return it == containers_.end() ? nullptr : &it->second;
}

std::size_t ContainerEngine::live_count() const {
  std::size_t n = 0;
  for (const auto& [id, c] : containers_) {
    (void)id;
    // Checkpointed containers are on disk, not in RAM: they count against
    // the disk budget (checkpointed_count), never the live cap.
    if (c.state != ContainerState::kRemoved &&
        c.state != ContainerState::kCheckpointed) {
      ++n;
    }
  }
  return n;
}

std::size_t ContainerEngine::idle_count() const {
  std::size_t n = 0;
  for (const auto& [id, c] : containers_) {
    (void)id;
    if (c.state == ContainerState::kIdle) ++n;
  }
  return n;
}

std::size_t ContainerEngine::busy_count() const {
  std::size_t n = 0;
  for (const auto& [id, c] : containers_) {
    (void)id;
    if (c.state == ContainerState::kBusy ||
        c.state == ContainerState::kCleaning) {
      ++n;
    }
  }
  return n;
}

double ContainerEngine::cpu_utilization() const {
  const double busy = static_cast<double>(cpu_.in_use()) /
                      static_cast<double>(cpu_.capacity());
  const double idle_overhead =
      kIdleCpuPerContainer * static_cast<double>(live_count());
  return std::min(1.0, busy + idle_overhead);
}

}  // namespace hotc::engine
