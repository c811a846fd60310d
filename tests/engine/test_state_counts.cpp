// The engine's per-state container counts (live_count, idle_count,
// busy_count, checkpointed_count) are kept by the FSM seam instead of
// scanning every container.  A seeded random walk over every operation
// that moves a container — launch with injected failures, exec, clean,
// pause/resume, demote/restore/discard and stop/remove — checks them
// against a scan after every event.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/rng.hpp"
#include "engine/app.hpp"
#include "engine/engine.hpp"

namespace hotc::engine {
namespace {

spec::RunSpec python_spec() {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  return s;
}

struct Scan {
  std::size_t live = 0;
  std::size_t idle = 0;
  std::size_t busy = 0;
  std::size_t checkpointed = 0;
};

/// Count states through find(): container ids are handed out densely from
/// 1, one per launch or restore.
Scan scan(const ContainerEngine& engine) {
  Scan s;
  for (ContainerId id = 1; id <= engine.launches(); ++id) {
    const Container* c = engine.find(id);
    if (c == nullptr) continue;
    switch (c->state) {
      case ContainerState::kIdle:
        ++s.idle;
        ++s.live;
        break;
      case ContainerState::kBusy:
      case ContainerState::kCleaning:
        ++s.busy;
        ++s.live;
        break;
      case ContainerState::kCheckpointed:
        ++s.checkpointed;
        break;
      case ContainerState::kProvisioning:
      case ContainerState::kPaused:
      case ContainerState::kStopping:
        ++s.live;
        break;
      case ContainerState::kRemoved:
        ADD_FAILURE() << "removed container " << id << " still listed";
        break;
    }
  }
  return s;
}

void expect_counts_match(const ContainerEngine& engine, std::size_t step) {
  const Scan s = scan(engine);
  EXPECT_EQ(engine.live_count(), s.live) << "after step " << step;
  EXPECT_EQ(engine.idle_count(), s.idle) << "after step " << step;
  EXPECT_EQ(engine.busy_count(), s.busy) << "after step " << step;
  EXPECT_EQ(engine.checkpointed_count(), s.checkpointed)
      << "after step " << step;
}

/// Ids of listed containers in `state`, leaving out those with a resume
/// or restore in flight (the engine leaves them in Paused/Checkpointed
/// until it completes, and the controller never touches them meanwhile).
std::vector<ContainerId> in_state(const ContainerEngine& engine,
                                  ContainerState state,
                                  const std::set<ContainerId>& thawing) {
  std::vector<ContainerId> out;
  for (ContainerId id = 1; id <= engine.launches(); ++id) {
    const Container* c = engine.find(id);
    if (c != nullptr && c->state == state && thawing.count(id) == 0) {
      out.push_back(id);
    }
  }
  return out;
}

class StateCountWalk : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StateCountWalk, CountsMatchAScanAfterEveryEvent) {
  sim::Simulator sim;
  ContainerEngine engine(sim, HostProfile::server());
  engine.preload_image(python_spec().image);
  FaultModel faults;
  faults.launch_failure_rate = 0.2;
  faults.exec_crash_rate = 0.1;
  faults.seed = GetParam();
  engine.set_fault_model(faults);

  Rng rng(GetParam());
  std::set<ContainerId> thawing;
  const auto pick = [&](const std::vector<ContainerId>& ids) {
    return ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
  };
  std::size_t steps = 0;
  std::size_t failed_launches = 0;
  for (int op = 0; op < 600; ++op) {
    const auto idle = in_state(engine, ContainerState::kIdle, thawing);
    const auto paused = in_state(engine, ContainerState::kPaused, thawing);
    const auto parked =
        in_state(engine, ContainerState::kCheckpointed, thawing);
    switch (rng.uniform_int(0, 8)) {
      case 0:
      case 1:
        engine.launch(python_spec(), [&](Result<LaunchReport> r) {
          if (!r.ok()) ++failed_launches;
        });
        break;
      case 2:
        if (!idle.empty()) {
          engine.exec(pick(idle), apps::random_number(),
                      [](Result<ExecReport>) {});
        }
        break;
      case 3:
        if (!idle.empty()) engine.clean(pick(idle), [](Result<bool>) {});
        break;
      case 4:
        if (!idle.empty()) engine.pause(pick(idle), [](Result<bool>) {});
        break;
      case 5:
        if (!paused.empty()) {
          const ContainerId id = pick(paused);
          thawing.insert(id);
          engine.resume(id, [&, id](Result<bool>) { thawing.erase(id); });
        }
        break;
      case 6:
        if (!idle.empty()) {
          engine.demote(pick(idle),
                        [](Result<ContainerEngine::DemoteReport>) {});
        }
        break;
      case 7:
        if (!parked.empty()) {
          if (rng.chance(0.5)) {
            const ContainerId id = pick(parked);
            thawing.insert(id);
            engine.restore_container(
                id, [&, id](Result<LaunchReport>) { thawing.erase(id); });
          } else {
            engine.discard_checkpointed(pick(parked), [](Result<bool>) {});
          }
        }
        break;
      default: {
        std::vector<ContainerId> any = idle;
        any.insert(any.end(), paused.begin(), paused.end());
        any.insert(any.end(), parked.begin(), parked.end());
        if (!any.empty()) {
          engine.stop_and_remove(pick(any), [](Result<bool>) {});
        }
        break;
      }
    }
    expect_counts_match(engine, steps);
    for (auto n = rng.uniform_int(0, 3); n > 0 && sim.step(); --n) {
      expect_counts_match(engine, ++steps);
    }
    if (HasFailure()) return;
  }
  while (sim.step()) expect_counts_match(engine, ++steps);
  // The walk reached the paths it is meant to cover.
  EXPECT_GT(failed_launches, 0u);
  EXPECT_GT(engine.injected_exec_crashes(), 0u);
  EXPECT_GT(engine.launches(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateCountWalk,
                         ::testing::Values(1u, 2u, 3u, 20211001u));

}  // namespace
}  // namespace hotc::engine
