// The tiered warm state at the engine layer: demote() parks an Idle
// container's memory on disk (Fig. 7's new Checkpointed node),
// restore_container() revives it warm, and every illegal edge out of
// Checkpointed is fatal — the FSM table plus the always-on assert make the
// state unreachable except through demote/restore/discard.
#include <gtest/gtest.h>

#include <optional>

#include "core/assert.hpp"
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

class CheckpointTierTest : public ::testing::Test {
 protected:
  CheckpointTierTest() : engine_(sim_, HostProfile::server()) {
    engine_.preload_image(python_spec().image);
  }

  ContainerId launch_idle() {
    ContainerId id = 0;
    engine_.launch(python_spec(), [&](Result<LaunchReport> r) {
      id = r.value().container;
    });
    sim_.run();
    return id;
  }

  sim::Simulator sim_;
  ContainerEngine engine_;
};

TEST_F(CheckpointTierTest, DemoteParksMemoryOnDisk) {
  const ContainerId id = launch_idle();
  const Bytes live_used = engine_.memory_used();
  const Container* c = engine_.find(id);
  ASSERT_NE(c, nullptr);
  const Bytes idle = c->idle_memory;

  std::optional<ContainerEngine::DemoteReport> report;
  engine_.demote(id, [&](Result<ContainerEngine::DemoteReport> r) {
    report = r.value();
  });
  sim_.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->container, id);
  EXPECT_EQ(report->image_size, idle + mib(2));  // page dump + metadata
  EXPECT_GT(report->duration, kZeroDuration);

  // The resident set paged out: RAM down by idle_memory, disk up by the
  // dump, and the container left the live set without being removed.
  EXPECT_EQ(engine_.find(id)->state, ContainerState::kCheckpointed);
  EXPECT_EQ(engine_.memory_used(), live_used - idle);
  EXPECT_EQ(engine_.checkpointed_count(), 1u);
  EXPECT_EQ(engine_.checkpointed_disk_used(), report->image_size);
  EXPECT_EQ(engine_.live_count(), 0u);
}

TEST_F(CheckpointTierTest, RestoreRevivesWarmAndReReservesMemory) {
  const auto app = apps::v3_app();
  const ContainerId id = launch_idle();
  engine_.exec(id, app, [](Result<ExecReport>) {});
  sim_.run();
  const Bytes live_used = engine_.memory_used();

  engine_.demote(id, [](Result<ContainerEngine::DemoteReport>) {});
  sim_.run();

  std::optional<LaunchReport> restored;
  engine_.restore_container(id, [&](Result<LaunchReport> r) {
    restored = r.value();
  });
  sim_.run();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->container, id);
  EXPECT_GT(restored->breakdown.attach, kZeroDuration);
  // Restore beats the cold start it replaces.
  EXPECT_LT(restored->breakdown.total(),
            engine_.estimate_startup(python_spec()).total());

  const Container* c = engine_.find(id);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state, ContainerState::kIdle);
  EXPECT_EQ(c->warm_app, app.name);  // process state survived the dump
  EXPECT_EQ(engine_.memory_used(), live_used);
  EXPECT_EQ(engine_.checkpointed_count(), 0u);
  EXPECT_EQ(engine_.checkpointed_disk_used(), 0u);
  EXPECT_EQ(engine_.live_count(), 1u);

  // And the revived runtime still executes, warm.
  std::optional<ExecReport> exec;
  engine_.exec(id, app, [&](Result<ExecReport> r) { exec = r.value(); });
  sim_.run();
  ASSERT_TRUE(exec.has_value());
  EXPECT_TRUE(exec->app_was_warm);
}

TEST_F(CheckpointTierTest, DemoteRequiresIdle) {
  const ContainerId id = launch_idle();
  engine_.exec(id, apps::qr_encoder(), [](Result<ExecReport>) {});
  // Busy right now (sim not drained): the dump must be refused.
  bool failed = false;
  engine_.demote(id, [&](Result<ContainerEngine::DemoteReport> r) {
    failed = !r.ok();
    EXPECT_EQ(r.error().code, "engine.not_checkpointable");
  });
  EXPECT_TRUE(failed);
  sim_.run();
}

TEST_F(CheckpointTierTest, RestoreRequiresCheckpointed) {
  const ContainerId id = launch_idle();
  bool failed = false;
  engine_.restore_container(id, [&](Result<LaunchReport> r) {
    failed = !r.ok();
    EXPECT_EQ(r.error().code, "engine.not_checkpointed");
  });
  EXPECT_TRUE(failed);

  failed = false;
  engine_.restore_container(9999, [&](Result<LaunchReport> r) {
    failed = !r.ok();
    EXPECT_EQ(r.error().code, "engine.unknown_container");
  });
  EXPECT_TRUE(failed);
}

TEST_F(CheckpointTierTest, DiscardCheckpointedReleasesEverything) {
  const Bytes baseline = engine_.memory_used();
  const ContainerId id = launch_idle();
  engine_.demote(id, [](Result<ContainerEngine::DemoteReport>) {});
  sim_.run();

  bool done = false;
  engine_.discard_checkpointed(id, [&](Result<bool> r) {
    done = r.value();
  });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(engine_.find(id), nullptr);
  EXPECT_EQ(engine_.checkpointed_count(), 0u);
  EXPECT_EQ(engine_.checkpointed_disk_used(), 0u);  // the dump is gone
  EXPECT_EQ(engine_.memory_used(), baseline);  // no leak either way

  // A second discard of the same image finds nothing to drop.
  bool gone = false;
  engine_.discard_checkpointed(id, [&](Result<bool> r) {
    gone = !r.ok();
    EXPECT_EQ(r.error().code, "engine.unknown_container");
  });
  EXPECT_TRUE(gone);

  // Discarding anything not parked in the tier is an error, not a wipe.
  bool failed = false;
  const ContainerId live = launch_idle();
  engine_.discard_checkpointed(live, [&](Result<bool> r) {
    failed = !r.ok();
    EXPECT_EQ(r.error().code, "engine.not_checkpointed");
  });
  EXPECT_TRUE(failed);
}

// ---------------------------------------------------------------------------
// set_state()'s enforcement, replicated verbatim: transition_allowed() is
// the same constexpr table the engine consults and HOTC_ASSERT_MSG is the
// same always-on macro, so these deaths prove any engine bug that drives
// an illegal edge out of (or into) Checkpointed aborts rather than
// corrupting the tier.

void enforce_transition(ContainerState from, ContainerState to) {
  HOTC_ASSERT_MSG(transition_allowed(from, to),
                  "illegal container state transition");
}

using CheckpointedFsmDeathTest = ::testing::Test;

TEST(CheckpointedFsmDeathTest, CheckpointedToBusyAborts) {
  // A parked container has no process to run a handler in.
  EXPECT_DEATH(
      enforce_transition(ContainerState::kCheckpointed, ContainerState::kBusy),
      "illegal container state transition");
}

TEST(CheckpointedFsmDeathTest, CheckpointedToPausedAborts) {
  // cgroup-freeze needs a live process; a dump has none.
  EXPECT_DEATH(enforce_transition(ContainerState::kCheckpointed,
                                  ContainerState::kPaused),
               "illegal container state transition");
}

TEST(CheckpointedFsmDeathTest, CheckpointedToRemovedAborts) {
  // Even teardown must pass through Stopping — the dump file and network
  // endpoint are reclaimed there.
  EXPECT_DEATH(enforce_transition(ContainerState::kCheckpointed,
                                  ContainerState::kRemoved),
               "illegal container state transition");
}

TEST(CheckpointedFsmDeathTest, BusyToCheckpointedAborts) {
  // Only a quiesced Idle runtime may be dumped (DESIGN.md §16).
  EXPECT_DEATH(
      enforce_transition(ContainerState::kBusy, ContainerState::kCheckpointed),
      "illegal container state transition");
}

}  // namespace
}  // namespace hotc::engine
