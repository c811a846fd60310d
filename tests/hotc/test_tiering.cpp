// Tiered warm state end-to-end (DESIGN.md §16): Algorithm-3 retirement
// demotes gate-passing runtimes into the CheckpointStore instead of
// killing them, and the next miss consumes the snapshot — pool-hit →
// donor → checkpoint-restore → cold.
#include <gtest/gtest.h>

#include <optional>

#include "engine/app.hpp"
#include "hotc/controller.hpp"
#include "predict/baselines.hpp"

namespace hotc {
namespace {

spec::RunSpec python_spec() {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  return s;
}

class TieringControllerTest : public ::testing::Test {
 protected:
  TieringControllerTest() : engine_(sim_, engine::HostProfile::server()) {
    engine_.preload_image(python_spec().image);
  }

  static ControllerOptions tiering_options() {
    ControllerOptions opt;
    opt.tiering.enabled = true;
    // Forecast 0 so the adaptive tick retires the pooled runtime.
    opt.predictor_factory = [] {
      return std::make_unique<predict::ConstantPredictor>(0.0);
    };
    return opt;
  }

  sim::Simulator sim_;
  engine::ContainerEngine engine_;
};

TEST_F(TieringControllerTest, RetireDemotesAndMissRestores) {
  HotCController ctl(engine_, tiering_options());
  const auto app = engine::apps::v3_app();

  std::optional<RequestOutcome> first;
  ctl.handle(python_spec(), app,
             [&](Result<RequestOutcome> r) { first = r.value(); });
  sim_.run();
  ctl.adaptive_tick();  // retires -> demotes into the snapshot tier
  sim_.run();

  const snapshot::CheckpointStore* store = ctl.checkpoint_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->demotes(), 1u);
  EXPECT_EQ(store->entries(), 1u);
  EXPECT_EQ(ctl.stats().checkpoints, 1u);
  // Parked, not dead: on disk (Checkpointed), out of the live set.
  EXPECT_EQ(engine_.checkpointed_count(), 1u);
  EXPECT_EQ(engine_.live_count(), 0u);

  // The next miss consumes the snapshot instead of cold-starting.
  std::optional<RequestOutcome> second;
  ctl.handle(python_spec(), app,
             [&](Result<RequestOutcome> r) { second = r.value(); });
  sim_.run();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->restored);
  EXPECT_FALSE(second->reused);
  EXPECT_EQ(ctl.stats().restores, 1u);
  EXPECT_EQ(store->restores(), 1u);
  EXPECT_EQ(store->entries(), 0u);  // take() is consuming
  // Restore beats the cold start it replaced, and skips app re-init.
  EXPECT_LT(second->total, first->total);
  EXPECT_LT(second->exec_total, seconds_f(app.exec_seconds + 0.1));

  // The revived runtime is pooled again: a third request is a warm hit.
  std::optional<RequestOutcome> third;
  ctl.handle(python_spec(), app,
             [&](Result<RequestOutcome> r) { third = r.value(); });
  sim_.run();
  ASSERT_TRUE(third.has_value());
  EXPECT_TRUE(third->reused);

  // Store conservation at quiescence, same identity the bench gates.
  EXPECT_EQ(store->demotes(),
            store->restores() + store->evictions() + store->entries());
}

TEST_F(TieringControllerTest, EconomicGateBlocksUnprofitableDemotions) {
  ControllerOptions opt = tiering_options();
  opt.tiering.alpha = 0.0;  // restore can never be <= 0 x cold
  HotCController ctl(engine_, opt);

  ctl.handle(python_spec(), engine::apps::qr_encoder(),
             [](Result<RequestOutcome>) {});
  sim_.run();
  ctl.adaptive_tick();
  sim_.run();

  // The gate said no: plain retirement, nothing parked on disk.
  const snapshot::CheckpointStore* store = ctl.checkpoint_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->demotes(), 0u);
  EXPECT_EQ(ctl.stats().checkpoints, 0u);
  EXPECT_EQ(engine_.checkpointed_count(), 0u);
  EXPECT_EQ(engine_.live_count(), 0u);
  EXPECT_EQ(ctl.stats().retired, 1u);
}

TEST_F(TieringControllerTest, PausedRuntimeIsStoppedNotDemoted) {
  // The engine demotes Idle containers only, so a frozen pooled runtime
  // that the idle cap retires must be torn down, tier on or not.
  ControllerOptions opt = tiering_options();
  opt.enable_prewarm = false;
  opt.enable_retire = false;  // only the idle cap retires
  opt.pause_idle_after = minutes(1);
  opt.idle_cap = minutes(5);
  HotCController ctl(engine_, opt);

  ctl.handle(python_spec(), engine::apps::qr_encoder(),
             [](Result<RequestOutcome>) {});
  sim_.run();
  sim_.run_until(sim_.now() + minutes(2));
  ctl.adaptive_tick();  // past pause_idle_after: freeze, not retire
  sim_.run();
  ASSERT_EQ(ctl.runtime_pool().paused_count(), 1u);
  ASSERT_EQ(engine_.live_count(), 1u);

  sim_.run_until(sim_.now() + minutes(5));
  ctl.adaptive_tick();  // past the idle cap: retire the frozen runtime
  sim_.run();

  const snapshot::CheckpointStore* store = ctl.checkpoint_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->demotes(), 0u);
  EXPECT_EQ(store->entries(), 0u);
  EXPECT_EQ(ctl.stats().checkpoints, 0u);
  EXPECT_EQ(ctl.stats().retired, 1u);
  EXPECT_EQ(ctl.runtime_pool().flows().checkpointed, 0u);
  EXPECT_EQ(ctl.runtime_pool().total_available(), 0u);
  EXPECT_EQ(engine_.checkpointed_count(), 0u);
  EXPECT_EQ(engine_.live_count(), 0u);
}

TEST_F(TieringControllerTest, DisabledByDefaultHasNoStore) {
  ControllerOptions opt;
  opt.predictor_factory = [] {
    return std::make_unique<predict::ConstantPredictor>(0.0);
  };
  HotCController ctl(engine_, opt);
  EXPECT_EQ(ctl.checkpoint_store(), nullptr);

  ctl.handle(python_spec(), engine::apps::qr_encoder(),
             [](Result<RequestOutcome>) {});
  sim_.run();
  ctl.adaptive_tick();
  sim_.run();
  EXPECT_EQ(engine_.checkpointed_count(), 0u);
  EXPECT_EQ(ctl.stats().checkpoints, 0u);
}

}  // namespace
}  // namespace hotc
