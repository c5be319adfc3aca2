#include "delay/synthetic_aperture.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "delay/table_sizing.h"

namespace us3d::delay {

SyntheticAperturePlan diverging_wave_plan(int origins,
                                          double max_depth_behind_m) {
  US3D_EXPECTS(origins > 0);
  US3D_EXPECTS(max_depth_behind_m >= 0.0);
  SyntheticAperturePlan plan;
  plan.origin_z.reserve(static_cast<std::size_t>(origins));
  for (int i = 0; i < origins; ++i) {
    const double frac =
        origins == 1 ? 0.0
                     : static_cast<double>(i) / static_cast<double>(origins - 1);
    plan.origin_z.push_back(-frac * max_depth_behind_m);
  }
  return plan;
}

MultiOriginTableRepository::MultiOriginTableRepository(
    const imaging::SystemConfig& config, const SyntheticAperturePlan& plan,
    const fx::Format& entry_format)
    : config_(config), origin_zs_(plan.origin_z) {
  US3D_EXPECTS(plan.origin_count() > 0);
  tables_.reserve(origin_zs_.size());
  for (const double z : origin_zs_) {
    US3D_EXPECTS(z <= 0.0);  // virtual source at or behind the probe plane
    ReferenceTableConfig tc;
    tc.entry_format = entry_format;
    tc.origin_z = z;
    tables_.push_back(std::make_shared<const ReferenceDelayTable>(config, tc));
  }
}

const ReferenceDelayTable& MultiOriginTableRepository::table(
    int origin_index) const {
  US3D_EXPECTS(origin_index >= 0 && origin_index < origin_count());
  return *tables_[static_cast<std::size_t>(origin_index)];
}

double MultiOriginTableRepository::origin_z(int origin_index) const {
  US3D_EXPECTS(origin_index >= 0 && origin_index < origin_count());
  return origin_zs_[static_cast<std::size_t>(origin_index)];
}

double MultiOriginTableRepository::total_storage_bits() const {
  double bits = 0.0;
  for (const auto& t : tables_) bits += t->storage_bits();
  return bits;
}

double MultiOriginTableRepository::dram_bandwidth_bytes_per_second() const {
  // One table streamed per insonification regardless of which origin it
  // belongs to; identical to the single-origin stream rate.
  return streaming_sizing(config_, tables_.front()->entry_format(),
                          fx::kCorrection18, 128, 1024)
      .bandwidth_bytes_per_second;
}

SyntheticApertureSteerEngine::SyntheticApertureSteerEngine(
    const imaging::SystemConfig& config, const SyntheticAperturePlan& plan,
    const TableSteerConfig& ts_config)
    : config_(config),
      probe_(config.probe),
      ts_config_(ts_config),
      repo_(config, plan, ts_config.entry_format),
      corrections_(config, ts_config.coeff_format),
      adder_(ts_config) {}

int SyntheticApertureSteerEngine::element_count() const {
  return probe_.element_count();
}

std::unique_ptr<DelayEngine> SyntheticApertureSteerEngine::clone() const {
  return std::unique_ptr<DelayEngine>(new SyntheticApertureSteerEngine(*this));
}

void SyntheticApertureSteerEngine::do_begin_frame(const Vec3& origin) {
  // Select the nearest plan origin. Origins that round-tripped through
  // storage, arithmetic or serialization arrive perturbed by a few ulps,
  // so an exact (absolute 1e-12) match would spuriously reject them; the
  // tolerance is instead scaled to the plan's extent — nanometres against
  // millimetre origin spacing — which accepts any round-off while still
  // rejecting origins genuinely between two plan entries.
  double span = std::abs(origin.z);
  int nearest = 0;
  double nearest_dist = std::abs(repo_.origin_z(0) - origin.z);
  for (int i = 0; i < repo_.origin_count(); ++i) {
    span = std::max(span, std::abs(repo_.origin_z(i)));
    const double dist = std::abs(repo_.origin_z(i) - origin.z);
    if (dist < nearest_dist) {
      nearest = i;
      nearest_dist = dist;
    }
  }
  const double tolerance = std::max(1e-9, 1e-6 * span);
  if (std::abs(origin.x) > tolerance || std::abs(origin.y) > tolerance) {
    throw ContractViolation(
        "synthetic-aperture origin must lie on the probe axis");
  }
  if (nearest_dist > tolerance) {
    throw ContractViolation(
        "synthetic-aperture origin not present in the table repository");
  }
  active_ = nearest;
}

void SyntheticApertureSteerEngine::do_compute(const imaging::FocalPoint& fp,
                                              std::span<std::int32_t> out) {
  US3D_EXPECTS(out.size() == static_cast<std::size_t>(element_count()));
  steer_compute_point(probe_, repo_.table(active_), corrections_, ts_config_,
                      fp, out);
}

void SyntheticApertureSteerEngine::do_compute_block(
    const imaging::FocalBlock& block, DelayPlane& plane) {
  steer_compute_block(probe_, repo_.table(active_), corrections_, adder_,
                      block, plane, block_scratch_);
}

}  // namespace us3d::delay
