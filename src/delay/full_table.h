// The naive baseline the paper argues against (Sec. II-B): precompute one
// delay per (focal point, element) and look it up. Materializable only for
// scaled-down systems — which is exactly the point; naive_table_sizing()
// reports why the paper system cannot be built this way.
#ifndef US3D_DELAY_FULL_TABLE_H
#define US3D_DELAY_FULL_TABLE_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "delay/engine.h"
#include "imaging/system_config.h"
#include "probe/transducer.h"

namespace us3d::delay {

class FullTableEngine final : public DelayEngine {
 public:
  /// Precomputes the full table with exact arithmetic. Refuses to build
  /// tables above `max_entries` (default 2^28) — the paper system would
  /// need 1.6e11 entries.
  explicit FullTableEngine(const imaging::SystemConfig& config,
                           std::int64_t max_entries = std::int64_t{1} << 28);

  std::string name() const override { return "FULLTABLE"; }
  int element_count() const override;
  /// Shares the immutable materialized table with the clone
  /// (shared_ptr<const>), the way TABLESTEER shares its reference table:
  /// N worker clones read one copy instead of recomputing or copying it.
  std::unique_ptr<DelayEngine> clone() const override;

  std::int64_t entry_count() const;
  double storage_bytes() const;  ///< as materialized here (int32 entries)
  /// The materialized [point][element] table (shared by every clone).
  std::span<const std::int32_t> table() const { return *table_; }

 protected:
  void do_begin_frame(const Vec3& origin) override;
  void do_compute(const imaging::FocalPoint& fp,
                  std::span<std::int32_t> out) override;
  /// Native block path: one contiguous table read per point, scattered
  /// into the SoA rows (the table is [point][element], the plane the
  /// transpose).
  void do_compute_block(const imaging::FocalBlock& block,
                        DelayPlane& plane) override;

 private:
  std::size_t base_index(int i_theta, int i_phi, int i_depth) const;

  imaging::SystemConfig config_;
  probe::MatrixProbe probe_;
  /// Immutable after construction; shared by every clone of this engine.
  std::shared_ptr<const std::vector<std::int32_t>> table_;
};

}  // namespace us3d::delay

#endif  // US3D_DELAY_FULL_TABLE_H
