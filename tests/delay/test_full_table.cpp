#include "delay/full_table.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/contracts.h"
#include "delay/exact.h"
#include "imaging/scan_order.h"

namespace us3d::delay {
namespace {

imaging::SystemConfig tiny_cfg() { return imaging::scaled_system(6, 8, 30); }

TEST(FullTableEngine, ReproducesExactEngineEverywhere) {
  const auto cfg = tiny_cfg();
  FullTableEngine table(cfg);
  ExactDelayEngine exact(cfg);
  table.begin_frame(Vec3{});
  exact.begin_frame(Vec3{});
  const imaging::VolumeGrid grid(cfg.volume);
  std::vector<std::int32_t> a(36), b(36);
  imaging::for_each_focal_point(
      grid, imaging::ScanOrder::kScanlineByScanline,
      [&](const imaging::FocalPoint& fp) {
        table.compute(fp, a);
        exact.compute(fp, b);
        EXPECT_EQ(a, b);
      });
}

TEST(FullTableEngine, EntryCountMatchesSizing) {
  const auto cfg = tiny_cfg();
  FullTableEngine table(cfg);
  EXPECT_EQ(table.entry_count(), cfg.delays_per_frame());
  EXPECT_DOUBLE_EQ(table.storage_bytes(),
                   static_cast<double>(cfg.delays_per_frame()) * 4.0);
}

TEST(FullTableEngine, RefusesPaperScaleTable) {
  // The whole point of the paper: 1.6e11 entries cannot be materialized.
  EXPECT_THROW(FullTableEngine{imaging::paper_system()}, ContractViolation);
}

TEST(FullTableEngine, MaxEntriesIsConfigurable) {
  const auto cfg = tiny_cfg();
  EXPECT_THROW(FullTableEngine(cfg, cfg.delays_per_frame() - 1),
               ContractViolation);
  EXPECT_NO_THROW(FullTableEngine(cfg, cfg.delays_per_frame()));
}

TEST(FullTableEngine, RequiresCentredOrigin) {
  FullTableEngine table(tiny_cfg());
  EXPECT_THROW(table.begin_frame(Vec3{0.0, 1.0e-3, 0.0}), ContractViolation);
}

TEST(FullTableEngine, NameIsFullTable) {
  EXPECT_EQ(FullTableEngine(tiny_cfg()).name(), "FULLTABLE");
}

TEST(FullTableEngine, CloneSharesTheImmutableTable) {
  // N worker clones must read one shared table, never copy it.
  const auto cfg = tiny_cfg();
  FullTableEngine engine(cfg);
  const auto clone = engine.clone();
  auto* table_clone = dynamic_cast<FullTableEngine*>(clone.get());
  ASSERT_NE(table_clone, nullptr);
  EXPECT_EQ(table_clone->table().data(), engine.table().data());
  EXPECT_EQ(table_clone->entry_count(), engine.entry_count());

  // Sharing must not change values: same delays from engine and clone.
  engine.begin_frame(Vec3{});
  table_clone->begin_frame(Vec3{});
  const imaging::VolumeGrid grid(cfg.volume);
  std::vector<std::int32_t> a(36), b(36);
  const imaging::FocalPoint fp = grid.focal_point(1, 2, 3);
  engine.compute(fp, a);
  table_clone->compute(fp, b);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace us3d::delay
