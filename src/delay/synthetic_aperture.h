// Synthetic-aperture support (Sec. V: "Techniques like synthetic aperture
// imaging rely on repositioning O at every insonification; they can be
// supported by way of multiple precalculated delay tables, at extra
// hardware cost").
//
// This module implements that extension for virtual sources on the probe
// axis (diverging-wave 3D imaging): one reference table per origin, a
// shared steering-correction set (the receive-side correction plane does
// not depend on O), an engine that switches tables per insonification, and
// the storage/bandwidth accounting that shows why the table repository
// must live off chip.
//
// Off-axis origins would additionally break the X/Y table folding and need
// a transmit-side correction plane; the paper leaves them to "an off-chip
// repository of delay tables", and so do we.
#ifndef US3D_DELAY_SYNTHETIC_APERTURE_H
#define US3D_DELAY_SYNTHETIC_APERTURE_H

#include <memory>
#include <vector>

#include "delay/engine.h"
#include "delay/reference_table.h"
#include "delay/steering.h"
#include "delay/tablesteer.h"
#include "imaging/system_config.h"

namespace us3d::delay {

/// A synthetic-aperture shot sequence: one on-axis virtual source per
/// insonification (z <= 0: at or behind the probe plane).
struct SyntheticAperturePlan {
  std::vector<double> origin_z;  ///< one entry per distinct virtual source

  int origin_count() const { return static_cast<int>(origin_z.size()); }
};

/// Evenly spaced virtual sources from z = 0 down to -max_depth_behind.
SyntheticAperturePlan diverging_wave_plan(int origins,
                                          double max_depth_behind_m);

/// One reference delay table per virtual source, plus repository-level
/// storage/bandwidth accounting.
class MultiOriginTableRepository {
 public:
  MultiOriginTableRepository(const imaging::SystemConfig& config,
                             const SyntheticAperturePlan& plan,
                             const fx::Format& entry_format = fx::kRefDelay18);
  /// Copies *share* the immutable per-origin tables (shared_ptr<const>):
  /// N worker clones x K origins reference one table set instead of
  /// deep-copying the repository whose size is the paper's headline
  /// bottleneck. No table bytes are duplicated per copy.
  MultiOriginTableRepository(const MultiOriginTableRepository& other) = default;
  MultiOriginTableRepository& operator=(const MultiOriginTableRepository&) =
      delete;

  int origin_count() const { return static_cast<int>(tables_.size()); }
  const ReferenceDelayTable& table(int origin_index) const;
  double origin_z(int origin_index) const;

  /// Total storage across all origins (the off-chip repository size).
  double total_storage_bits() const;

  /// DRAM bandwidth: unchanged vs single-origin TABLESTEER — each
  /// insonification streams exactly one table, whichever origin it uses.
  double dram_bandwidth_bytes_per_second() const;

 private:
  imaging::SystemConfig config_;
  std::vector<double> origin_zs_;
  /// Immutable after construction; shared across repository copies.
  std::vector<std::shared_ptr<const ReferenceDelayTable>> tables_;
};

/// TABLESTEER with per-insonification origin selection. begin_frame()
/// accepts any origin present in the plan; compute() then uses that
/// origin's table with the shared steering corrections.
class SyntheticApertureSteerEngine final : public DelayEngine {
 public:
  SyntheticApertureSteerEngine(
      const imaging::SystemConfig& config, const SyntheticAperturePlan& plan,
      const TableSteerConfig& ts_config = TableSteerConfig::bits18());

  std::string name() const override { return "TABLESTEER-SA"; }
  int element_count() const override;
  /// Shares the whole immutable table repository with the clone (see
  /// MultiOriginTableRepository's copy semantics) — cloning costs the
  /// steering corrections and scratch only, never the tables.
  std::unique_ptr<DelayEngine> clone() const override;

  const MultiOriginTableRepository& repository() const { return repo_; }
  int active_origin() const { return active_; }

 protected:
  /// Selects the table whose origin matches (on-axis origins only).
  void do_begin_frame(const Vec3& origin) override;
  void do_compute(const imaging::FocalPoint& fp,
                  std::span<std::int32_t> out) override;
  /// Native block path: the shared TABLESTEER block kernel against the
  /// insonification's active table.
  void do_compute_block(const imaging::FocalBlock& block,
                        DelayPlane& plane) override;

 private:
  imaging::SystemConfig config_;
  probe::MatrixProbe probe_;
  TableSteerConfig ts_config_;
  MultiOriginTableRepository repo_;
  SteeringCorrections corrections_;
  SteerAdder adder_;
  int active_ = 0;
  SteerBlockScratch block_scratch_;
};

}  // namespace us3d::delay

#endif  // US3D_DELAY_SYNTHETIC_APERTURE_H
