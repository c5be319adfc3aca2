// TABLESTEER delay engine (Sec. V): reference table + steering plane, all
// in hardware fixed point. Per (focal point, element): one table read, two
// adds, one rounding to the echo-sample index — exactly the datapath of the
// Fig. 4 block.
#ifndef US3D_DELAY_TABLESTEER_H
#define US3D_DELAY_TABLESTEER_H

#include <memory>
#include <vector>

#include "delay/engine.h"
#include "delay/reference_table.h"
#include "delay/steering.h"
#include "imaging/system_config.h"

namespace us3d::delay {

struct TableSteerConfig {
  fx::Format entry_format = fx::kRefDelay18;    ///< reference delays
  fx::Format coeff_format = fx::kCorrection18;  ///< steering corrections
  /// Accumulator for ref + cx + cy before rounding; one extra integer bit
  /// absorbs the worst-case correction swing.
  fx::Format sum_format{14, 5, true};

  /// The paper's 18-bit design point (uQ13.5 + sQ13.4).
  static TableSteerConfig bits18();
  /// The paper's 14-bit design point (uQ13.1 + sQ13.0).
  static TableSteerConfig bits14();
  /// Pathological 13-bit integer storage (Sec. VI-A: 33% of selections hit
  /// the extra +/-1 sample error).
  static TableSteerConfig bits13();

  std::string name_suffix() const;  ///< "-18b", "-14b", ...
};

/// The Fig. 4 adder pair on raw words, resolved once from a
/// TableSteerConfig into alignment shifts, clamp bounds and the half-up
/// constant:
///
///   stage 1:  s = sat_sum(ref + cx)
///   stage 2:  d = max(0, round_half_up(sat_sum(s + cy)))
///
/// Bit-identical to two fx::add into sum_format followed by
/// round_to_int(kHalfUp) and the clamp at zero (steer_compute_point, the
/// oracle). Shared by steer_compute_block and the hw::SteerBlock model so
/// the two cannot fork. Construction proves that every aligned operand sum
/// of in-range words stays within fx::kMaxWordBits and rejects a format
/// set for which it would not.
class SteerAdder {
 public:
  explicit SteerAdder(const TableSteerConfig& formats);

  const TableSteerConfig& formats() const { return formats_; }

  /// ref (entry_format) + cx (coeff_format) -> sum_format raw word.
  std::int64_t stage1(std::int64_t ref, std::int64_t cx) const {
    return sum0_((ref << ref_align_) + (cx << cx_align_));
  }
  /// s (sum_format) + cy (coeff_format) -> echo-sample index, >= 0.
  std::int32_t stage2(std::int64_t s, std::int64_t cy) const {
    const std::int64_t idx =
        to_index_(sum1_((s << s_align_) + (cy << cy_align_)));
    return static_cast<std::int32_t>(idx < 0 ? 0 : idx);
  }
  std::int32_t operator()(std::int64_t ref, std::int64_t cx,
                          std::int64_t cy) const {
    return stage2(stage1(ref, cx), cy);
  }

 private:
  TableSteerConfig formats_;
  int ref_align_ = 0;
  int cx_align_ = 0;
  fx::Requantize sum0_;
  int s_align_ = 0;
  int cy_align_ = 0;
  fx::Requantize sum1_;
  fx::RoundShift to_index_;
};

/// The Fig. 4 datapath (table read + two adds + rounding) for one focal
/// point, through fx::Value: the per-point oracle. Shared by
/// TableSteerEngine and the synthetic-aperture engine, which runs the same
/// datapath against whichever origin's table is active.
void steer_compute_point(const probe::MatrixProbe& probe,
                         const ReferenceDelayTable& table,
                         const SteeringCorrections& corrections,
                         const TableSteerConfig& ts_config,
                         const imaging::FocalPoint& fp,
                         std::span<std::int32_t> out);

/// Reusable per-block storage of steer_compute_block (grown once).
struct SteerBlockScratch {
  std::vector<std::size_t> x_offset;  ///< per point, into x_raw_column
  std::vector<std::int64_t> cy;       ///< per point, current row's cy
};

/// The same datapath applied to a whole block, element-outer, on raw
/// words through `adder` (which must be resolved from the formats of
/// `table` and `corrections`). Per-point indices are checked once per
/// block, not once per (element, point).
void steer_compute_block(const probe::MatrixProbe& probe,
                         const ReferenceDelayTable& table,
                         const SteeringCorrections& corrections,
                         const SteerAdder& adder,
                         const imaging::FocalBlock& block, DelayPlane& plane,
                         SteerBlockScratch& scratch);

class TableSteerEngine final : public DelayEngine {
 public:
  TableSteerEngine(const imaging::SystemConfig& config,
                   const TableSteerConfig& ts_config = TableSteerConfig::bits18());

  std::string name() const override;
  int element_count() const override;
  /// Copies the steering coefficients and *shares* the immutable reference
  /// table (shared_ptr<const>): the table is the paper's headline memory
  /// cost, and N worker clones reading one copy is exactly the reuse the
  /// hardware design streams for. No table bytes are duplicated per clone.
  std::unique_ptr<DelayEngine> clone() const override;

  const ReferenceDelayTable& reference_table() const { return *table_; }
  const SteeringCorrections& corrections() const { return corrections_; }
  const TableSteerConfig& config() const { return ts_config_; }

 protected:
  /// TABLESTEER assumes a constant origin on the probe's vertical axis
  /// (Sec. V: "we assume a constant origin O across frames"); begin_frame
  /// rejects anything else.
  void do_begin_frame(const Vec3& origin) override;
  void do_compute(const imaging::FocalPoint& fp,
                  std::span<std::int32_t> out) override;
  /// Native block path: element-outer sweep on the raw SteerAdder with the
  /// per-row y-correction gathered once per row and — on uniform-depth
  /// blocks, i.e. every kNappeByNappe block — the reference-table entry
  /// read once per element instead of once per (element, point).
  void do_compute_block(const imaging::FocalBlock& block,
                        DelayPlane& plane) override;

 private:
  imaging::SystemConfig config_;
  probe::MatrixProbe probe_;
  TableSteerConfig ts_config_;
  /// Immutable after construction; shared by every clone of this engine.
  std::shared_ptr<const ReferenceDelayTable> table_;
  SteeringCorrections corrections_;
  SteerAdder adder_;
  SteerBlockScratch block_scratch_;
};

}  // namespace us3d::delay

#endif  // US3D_DELAY_TABLESTEER_H
