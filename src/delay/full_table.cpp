#include "delay/full_table.h"

#include "common/contracts.h"
#include "delay/exact.h"
#include "imaging/scan_order.h"

namespace us3d::delay {

FullTableEngine::FullTableEngine(const imaging::SystemConfig& config,
                                 std::int64_t max_entries)
    : config_(config), probe_(config.probe) {
  const std::int64_t entries = config.delays_per_frame();
  US3D_EXPECTS(entries <= max_entries);
  auto table = std::make_shared<std::vector<std::int32_t>>(
      static_cast<std::size_t>(entries));

  ExactDelayEngine exact(config);
  exact.begin_frame(Vec3{});
  const imaging::VolumeGrid grid(config.volume);
  const auto n_elements = static_cast<std::size_t>(probe_.element_count());
  imaging::for_each_focal_point(
      grid, imaging::ScanOrder::kNappeByNappe,
      [&](const imaging::FocalPoint& fp) {
        const std::size_t base =
            base_index(fp.i_theta, fp.i_phi, fp.i_depth);
        exact.compute(fp,
                      std::span<std::int32_t>(&(*table)[base], n_elements));
      });
  table_ = std::move(table);
}

int FullTableEngine::element_count() const { return probe_.element_count(); }

std::unique_ptr<DelayEngine> FullTableEngine::clone() const {
  return std::make_unique<FullTableEngine>(*this);
}

void FullTableEngine::do_begin_frame(const Vec3& origin) {
  // The table was precomputed for the centred origin.
  US3D_EXPECTS(origin == Vec3{});
}

std::size_t FullTableEngine::base_index(int i_theta, int i_phi,
                                        int i_depth) const {
  const auto& v = config_.volume;
  US3D_EXPECTS(i_theta >= 0 && i_theta < v.n_theta);
  US3D_EXPECTS(i_phi >= 0 && i_phi < v.n_phi);
  US3D_EXPECTS(i_depth >= 0 && i_depth < v.n_depth);
  const std::size_t point_index =
      (static_cast<std::size_t>(i_theta) * static_cast<std::size_t>(v.n_phi) +
       static_cast<std::size_t>(i_phi)) *
          static_cast<std::size_t>(v.n_depth) +
      static_cast<std::size_t>(i_depth);
  return point_index * static_cast<std::size_t>(probe_.element_count());
}

void FullTableEngine::do_compute(const imaging::FocalPoint& fp,
                                 std::span<std::int32_t> out) {
  US3D_EXPECTS(out.size() == static_cast<std::size_t>(element_count()));
  const std::size_t base = base_index(fp.i_theta, fp.i_phi, fp.i_depth);
  const std::vector<std::int32_t>& table = *table_;
  for (std::size_t e = 0; e < out.size(); ++e) out[e] = table[base + e];
}

void FullTableEngine::do_compute_block(const imaging::FocalBlock& block,
                                       DelayPlane& plane) {
  const auto n_elements = static_cast<std::size_t>(element_count());
  const std::vector<std::int32_t>& table = *table_;
  for (int p = 0; p < block.size(); ++p) {
    const imaging::FocalPoint& fp = block[p];
    const std::size_t base = base_index(fp.i_theta, fp.i_phi, fp.i_depth);
    for (std::size_t e = 0; e < n_elements; ++e) {
      plane.at(static_cast<int>(e), p) = table[base + e];
    }
  }
}

std::int64_t FullTableEngine::entry_count() const {
  return static_cast<std::int64_t>(table_->size());
}

double FullTableEngine::storage_bytes() const {
  return static_cast<double>(table_->size()) * sizeof(std::int32_t);
}

}  // namespace us3d::delay
