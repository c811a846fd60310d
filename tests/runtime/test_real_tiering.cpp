// Tiered warm state in real-execution mode: trim victims that pass the
// economic gate park in the modelled CheckpointStore, and a later miss
// pays the (scaled) restore delay instead of the full cold start.
#include <gtest/gtest.h>

#include <string>

#include "runtime/real_hotc.hpp"

namespace hotc::runtime {
namespace {

spec::RunSpec keyed_spec(const std::string& idx) {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  s.env["IDX"] = idx;
  return s;
}

RealOptions tiering_options() {
  RealOptions opt;
  opt.worker_threads = 1;  // deterministic submit/trim ordering
  opt.cold_start_scale = 0.001;
  opt.max_warm = 1;
  opt.tiering.enabled = true;
  return opt;
}

TEST(RealHotCTiering, TrimDemotesAndMissRestores) {
  RealHotC hotc(tiering_options());
  const auto app = engine::apps::qr_encoder();
  const auto handler = [](const std::string& in) { return "qr:" + in; };

  // Key A cold-starts; key B's cold start trims A past max_warm = 1, and
  // the economic gate (tiny dump, expensive cold start) demotes it.
  hotc.submit(keyed_spec("a"), app, handler, "").get();
  hotc.submit(keyed_spec("b"), app, handler, "").get();
  EXPECT_EQ(hotc.demotes(), 1u);
  EXPECT_EQ(hotc.snapshot_store().entries(), 1u);

  // Key A again: served from the snapshot tier, not a full cold start.
  const RealOutcome out =
      hotc.submit(keyed_spec("a"), app, handler, "x").get();
  EXPECT_EQ(out.payload, "qr:x");
  EXPECT_TRUE(out.restored);
  EXPECT_FALSE(out.reused);
  EXPECT_EQ(hotc.restores(), 1u);
  // take() consumed A's snapshot; the only entry left is B's, demoted by
  // the trim that ran when the revived runtime re-entered the pool.
  EXPECT_EQ(hotc.demotes(), 2u);
  EXPECT_EQ(hotc.snapshot_store().entries(), 1u);

  // Store conservation at quiescence (the identity the bench gates).
  const auto& store = hotc.snapshot_store();
  EXPECT_EQ(store.demotes(),
            store.restores() + store.evictions() + store.entries());
}

TEST(RealHotCTiering, RestoredRuntimeIsWarmOnTheNextHit) {
  RealHotC hotc(tiering_options());
  const auto app = engine::apps::qr_encoder();
  const auto handler = [](const std::string&) { return ""; };

  hotc.submit(keyed_spec("a"), app, handler, "").get();
  hotc.submit(keyed_spec("b"), app, handler, "").get();  // trims + demotes a
  hotc.submit(keyed_spec("a"), app, handler, "").get();  // restores a

  // The revived runtime pooled again: an exact hit, no tier involved.
  const RealOutcome again =
      hotc.submit(keyed_spec("a"), app, handler, "").get();
  EXPECT_TRUE(again.reused);
  EXPECT_FALSE(again.restored);
  EXPECT_EQ(hotc.restores(), 1u);
}

TEST(RealHotCTiering, OffByDefaultTrimsWithoutDemoting) {
  RealOptions opt = tiering_options();
  opt.tiering.enabled = false;
  RealHotC hotc(opt);
  const auto app = engine::apps::qr_encoder();
  const auto handler = [](const std::string&) { return ""; };

  hotc.submit(keyed_spec("a"), app, handler, "").get();
  hotc.submit(keyed_spec("b"), app, handler, "").get();
  EXPECT_EQ(hotc.demotes(), 0u);
  EXPECT_EQ(hotc.snapshot_store().entries(), 0u);

  const RealOutcome out =
      hotc.submit(keyed_spec("a"), app, handler, "").get();
  EXPECT_FALSE(out.restored);  // plain eviction: the state was lost
  EXPECT_EQ(hotc.cold_starts(), 3u);
}

}  // namespace
}  // namespace hotc::runtime
