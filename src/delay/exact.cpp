#include "delay/exact.h"

#include <cmath>

#include "common/contracts.h"
#include "common/fixed_point.h"

namespace us3d::delay {

double one_way_delay_s(const Vec3& a, const Vec3& b, double speed_of_sound) {
  US3D_EXPECTS(speed_of_sound > 0.0);
  return a.distance_to(b) / speed_of_sound;
}

double two_way_delay_s(const Vec3& origin, const Vec3& focal,
                       const Vec3& element, double speed_of_sound) {
  US3D_EXPECTS(speed_of_sound > 0.0);
  return (focal.distance_to(origin) + focal.distance_to(element)) /
         speed_of_sound;
}

ExactDelayEngine::ExactDelayEngine(const imaging::SystemConfig& config)
    : config_(config), probe_(config.probe) {}

int ExactDelayEngine::element_count() const { return probe_.element_count(); }

std::unique_ptr<DelayEngine> ExactDelayEngine::clone() const {
  return std::make_unique<ExactDelayEngine>(*this);
}

void ExactDelayEngine::do_begin_frame(const Vec3& origin) { origin_ = origin; }

double ExactDelayEngine::delay_samples(const imaging::FocalPoint& fp,
                                       int flat_element) const {
  const Vec3 d = probe_.element_position(flat_element);
  return config_.seconds_to_samples(
      two_way_delay_s(origin_, fp.position, d, config_.speed_of_sound));
}

void ExactDelayEngine::do_compute(const imaging::FocalPoint& fp,
                                  std::span<std::int32_t> out) {
  US3D_EXPECTS(out.size() == static_cast<std::size_t>(element_count()));
  const double tx =
      config_.seconds_to_samples(
          one_way_delay_s(fp.position, origin_, config_.speed_of_sound));
  for (int e = 0; e < element_count(); ++e) {
    const double rx = config_.seconds_to_samples(one_way_delay_s(
        fp.position, probe_.element_position(e), config_.speed_of_sound));
    out[static_cast<std::size_t>(e)] = static_cast<std::int32_t>(
        fx::round_real_to_int(tx + rx, fx::Rounding::kHalfUp));
  }
}

void ExactDelayEngine::do_compute_block(const imaging::FocalBlock& block,
                                        DelayPlane& plane) {
  const int n = block.size();
  block_tx_.resize(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    block_tx_[static_cast<std::size_t>(p)] = config_.seconds_to_samples(
        one_way_delay_s(block[p].position, origin_, config_.speed_of_sound));
  }
  for (int e = 0; e < element_count(); ++e) {
    const Vec3 d = probe_.element_position(e);
    const std::span<std::int32_t> row = plane.row(e);
    for (int p = 0; p < n; ++p) {
      const double rx = config_.seconds_to_samples(
          one_way_delay_s(block[p].position, d, config_.speed_of_sound));
      // Both legs are distances, so the sum is >= 0, where kHalfUp
      // rounding (do_compute's round_real_to_int) is floor(v + 0.5).
      row[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(
          std::floor(block_tx_[static_cast<std::size_t>(p)] + rx + 0.5));
    }
  }
}

}  // namespace us3d::delay
