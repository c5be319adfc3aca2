#include "delay/reference_table.h"

#include <cmath>

#include "common/contracts.h"
#include "delay/exact.h"
#include "imaging/volume.h"

namespace us3d::delay {

ReferenceDelayTable::ReferenceDelayTable(
    const imaging::SystemConfig& config,
    const ReferenceTableConfig& table_config)
    : config_(config),
      probe_(config.probe),
      format_(table_config.entry_format),
      origin_z_(table_config.origin_z) {
  quad_x_ = (probe_.elements_x() + 1) / 2;
  quad_y_ = (probe_.elements_y() + 1) / 2;
  depths_ = config.volume.n_depth;

  const imaging::VolumeGrid grid(config.volume);
  raw_.resize(static_cast<std::size_t>(quad_x_) *
              static_cast<std::size_t>(quad_y_) *
              static_cast<std::size_t>(depths_));
  prunable_mask_.assign(raw_.size(), false);

  // Representative quadrant element for qx: the full-grid column with the
  // largest x (they all share |x| with their mirror).
  for (int qx = 0; qx < quad_x_; ++qx) {
    const double ex = std::abs(probe_.column_x(probe_.elements_x() - 1 - qx));
    for (int qy = 0; qy < quad_y_; ++qy) {
      const double ey = std::abs(probe_.row_y(probe_.elements_y() - 1 - qy));
      const Vec3 elem{ex, ey, 0.0};
      const Vec3 origin{0.0, 0.0, table_config.origin_z};
      for (int k = 0; k < depths_; ++k) {
        const double r = grid.radius(k);
        const Vec3 point{0.0, 0.0, r};
        const double t_samples = config.seconds_to_samples(
            two_way_delay_s(origin, point, elem, config.speed_of_sound));
        const fx::Value v = fx::Value::from_real(t_samples, format_);
        const std::size_t i = index(qx, qy, k);
        raw_[i] = static_cast<std::int32_t>(v.raw());
        if (table_config.pruning &&
            !table_config.pruning->accepts(elem, point)) {
          prunable_mask_[i] = true;
          ++prunable_;
        }
      }
    }
  }
}

int ReferenceDelayTable::fold_x(int ix) const {
  US3D_EXPECTS(ix >= 0 && ix < probe_.elements_x());
  // Mirror columns ix and (nx-1-ix) share |x|; index so that qx = 0 is the
  // outermost column (largest |x|), matching the build loop.
  return std::min(ix, probe_.elements_x() - 1 - ix);
}

int ReferenceDelayTable::fold_y(int iy) const {
  US3D_EXPECTS(iy >= 0 && iy < probe_.elements_y());
  return std::min(iy, probe_.elements_y() - 1 - iy);
}

std::size_t ReferenceDelayTable::index(int qx, int qy, int i_depth) const {
  US3D_EXPECTS(qx >= 0 && qx < quad_x_);
  US3D_EXPECTS(qy >= 0 && qy < quad_y_);
  US3D_EXPECTS(i_depth >= 0 && i_depth < depths_);
  return (static_cast<std::size_t>(qx) * static_cast<std::size_t>(quad_y_) +
          static_cast<std::size_t>(qy)) *
             static_cast<std::size_t>(depths_) +
         static_cast<std::size_t>(i_depth);
}

fx::Value ReferenceDelayTable::entry(int ix, int iy, int i_depth) const {
  return entry_quad(fold_x(ix), fold_y(iy), i_depth);
}

fx::Value ReferenceDelayTable::entry_quad(int qx, int qy, int i_depth) const {
  return fx::Value::from_raw(raw_[index(qx, qy, i_depth)], format_);
}

std::span<const std::int32_t> ReferenceDelayTable::raw_depths(int ix,
                                                              int iy) const {
  return std::span<const std::int32_t>(raw_).subspan(
      index(fold_x(ix), fold_y(iy), 0), static_cast<std::size_t>(depths_));
}

double ReferenceDelayTable::entry_real(int ix, int iy, int i_depth) const {
  return entry(ix, iy, i_depth).to_real();
}

double ReferenceDelayTable::exact_entry_samples(int ix, int iy,
                                                int i_depth) const {
  const imaging::VolumeGrid grid(config_.volume);
  const Vec3 elem = probe_.element_position(ix, iy);
  const Vec3 point{0.0, 0.0, grid.radius(i_depth)};
  // Folding uses |x|, |y|, so the stored entry corresponds to the mirrored
  // element with the largest coordinates; |R-D| is mirror-invariant.
  return config_.seconds_to_samples(
      two_way_delay_s(origin(), point, elem, config_.speed_of_sound));
}

std::int64_t ReferenceDelayTable::entry_count() const {
  return static_cast<std::int64_t>(raw_.size());
}

double ReferenceDelayTable::storage_bits() const {
  return static_cast<double>(entry_count()) * format_.total_bits();
}

double ReferenceDelayTable::prunable_fraction() const {
  return entry_count() ? static_cast<double>(prunable_) /
                             static_cast<double>(entry_count())
                       : 0.0;
}

bool ReferenceDelayTable::is_prunable(int qx, int qy, int i_depth) const {
  return prunable_mask_[index(qx, qy, i_depth)];
}

}  // namespace us3d::delay
