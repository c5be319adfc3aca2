#include "delay/tablesteer.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace us3d::delay {

TableSteerConfig TableSteerConfig::bits18() {
  return TableSteerConfig{
      .entry_format = fx::kRefDelay18,
      .coeff_format = fx::kCorrection18,
      .sum_format = fx::Format{14, 5, true},
  };
}

TableSteerConfig TableSteerConfig::bits14() {
  return TableSteerConfig{
      .entry_format = fx::kRefDelay14,
      .coeff_format = fx::kCorrection14,
      .sum_format = fx::Format{14, 1, true},
  };
}

TableSteerConfig TableSteerConfig::bits13() {
  return TableSteerConfig{
      .entry_format = fx::Format{13, 0, false},
      .coeff_format = fx::Format{13, 0, true},
      .sum_format = fx::Format{14, 0, true},
  };
}

std::string TableSteerConfig::name_suffix() const {
  return "-" + std::to_string(entry_format.total_bits()) + "b";
}

void steer_compute_point(const probe::MatrixProbe& probe,
                         const ReferenceDelayTable& table,
                         const SteeringCorrections& corrections,
                         const TableSteerConfig& ts_config,
                         const imaging::FocalPoint& fp,
                         std::span<std::int32_t> out) {
  const int nx = probe.elements_x();
  const int ny = probe.elements_y();
  for (int iy = 0; iy < ny; ++iy) {
    const fx::Value cy = corrections.y_correction(iy, fp.i_phi);
    for (int ix = 0; ix < nx; ++ix) {
      const fx::Value ref = table.entry(ix, iy, fp.i_depth);
      const fx::Value cx = corrections.x_correction(ix, fp.i_theta, fp.i_phi);
      // Two adders per element in the Fig. 4 block; the second performs
      // the rounding to the integer echo-sample index.
      const fx::Value sum0 = fx::add(ref, cx, ts_config.sum_format);
      const fx::Value sum1 = fx::add(sum0, cy, ts_config.sum_format);
      const std::int64_t idx = sum1.round_to_int(fx::Rounding::kHalfUp);
      out[static_cast<std::size_t>(probe.flat_index(ix, iy))] =
          static_cast<std::int32_t>(idx < 0 ? 0 : idx);
    }
  }
}

SteerAdder::SteerAdder(const TableSteerConfig& formats) : formats_(formats) {
  const fx::Format& entry = formats.entry_format;
  const fx::Format& coeff = formats.coeff_format;
  const fx::Format& sum = formats.sum_format;
  // fx::add aligns both operands on the finer grid, then requantizes.
  const int frac0 = std::max(entry.fraction_bits, coeff.fraction_bits);
  ref_align_ = frac0 - entry.fraction_bits;
  cx_align_ = frac0 - coeff.fraction_bits;
  sum0_ = fx::Requantize(frac0, sum);
  const int frac1 = std::max(sum.fraction_bits, coeff.fraction_bits);
  s_align_ = frac1 - sum.fraction_bits;
  cy_align_ = frac1 - coeff.fraction_bits;
  sum1_ = fx::Requantize(frac1, sum);
  to_index_ = fx::RoundShift(sum.fraction_bits);
  // Proof: an aligned sum of two in-range words (|raw| <= 2^magnitude),
  // further aligned onto a finer sum grid, fits fx::kMaxWordBits.
  US3D_EXPECTS(std::max(entry.integer_bits, coeff.integer_bits) +
                   std::max(frac0, sum.fraction_bits) + 1 <=
               fx::kMaxWordBits);
  US3D_EXPECTS(std::max(sum.integer_bits, coeff.integer_bits) + frac1 + 1 <=
               fx::kMaxWordBits);
}

void steer_compute_block(const probe::MatrixProbe& probe,
                         const ReferenceDelayTable& table,
                         const SteeringCorrections& corrections,
                         const SteerAdder& adder,
                         const imaging::FocalBlock& block, DelayPlane& plane,
                         SteerBlockScratch& scratch) {
  US3D_EXPECTS(table.entry_format() == adder.formats().entry_format);
  US3D_EXPECTS(corrections.coeff_format() == adder.formats().coeff_format);
  const int n = block.size();
  const int nx = probe.elements_x();
  const int ny = probe.elements_y();
  const auto un = static_cast<std::size_t>(n);
  scratch.x_offset.resize(un);
  scratch.cy.resize(un);
  // Per-point indices, checked once per block.
  for (int p = 0; p < n; ++p) {
    const imaging::FocalPoint& fp = block[p];
    US3D_EXPECTS(fp.i_depth >= 0 && fp.i_depth < table.depths());
    scratch.x_offset[static_cast<std::size_t>(p)] =
        corrections.x_offset(fp.i_theta, fp.i_phi);
  }
  for (int iy = 0; iy < ny; ++iy) {
    // One y-correction gather per row, shared by all nx columns.
    for (int p = 0; p < n; ++p) {
      scratch.cy[static_cast<std::size_t>(p)] =
          corrections.y_raw(iy, block[p].i_phi);
    }
    for (int ix = 0; ix < nx; ++ix) {
      const std::span<std::int32_t> row = plane.row(probe.flat_index(ix, iy));
      const std::span<const std::int32_t> xcol = corrections.x_raw_column(ix);
      const std::span<const std::int32_t> refs = table.raw_depths(ix, iy);
      // kNappeByNappe blocks never span two nappes, so the table entry is
      // a per-element constant there; fall back to a per-point read when a
      // scanline-order block mixes depths.
      if (block.uniform_depth) {
        const std::int64_t ref =
            refs[static_cast<std::size_t>(block.front().i_depth)];
        for (std::size_t p = 0; p < un; ++p) {
          row[p] = adder(ref, xcol[scratch.x_offset[p]], scratch.cy[p]);
        }
      } else {
        for (std::size_t p = 0; p < un; ++p) {
          row[p] = adder(refs[static_cast<std::size_t>(
                             block[static_cast<int>(p)].i_depth)],
                         xcol[scratch.x_offset[p]], scratch.cy[p]);
        }
      }
    }
  }
}

TableSteerEngine::TableSteerEngine(const imaging::SystemConfig& config,
                                   const TableSteerConfig& ts_config)
    : config_(config),
      probe_(config.probe),
      ts_config_(ts_config),
      table_(std::make_shared<const ReferenceDelayTable>(
          config,
          ReferenceTableConfig{.entry_format = ts_config.entry_format})),
      corrections_(config, ts_config.coeff_format),
      adder_(ts_config) {}

std::string TableSteerEngine::name() const {
  return "TABLESTEER" + ts_config_.name_suffix();
}

int TableSteerEngine::element_count() const { return probe_.element_count(); }

std::unique_ptr<DelayEngine> TableSteerEngine::clone() const {
  return std::make_unique<TableSteerEngine>(*this);
}

void TableSteerEngine::do_begin_frame(const Vec3& origin) {
  // The reference table was built for O at the array centre; a displaced
  // origin would need a different (larger) table (Sec. V-A).
  US3D_EXPECTS(std::abs(origin.x) < 1e-12 && std::abs(origin.y) < 1e-12 &&
               std::abs(origin.z) < 1e-12);
}

void TableSteerEngine::do_compute(const imaging::FocalPoint& fp,
                                  std::span<std::int32_t> out) {
  US3D_EXPECTS(out.size() == static_cast<std::size_t>(element_count()));
  steer_compute_point(probe_, *table_, corrections_, ts_config_, fp, out);
}

void TableSteerEngine::do_compute_block(const imaging::FocalBlock& block,
                                        DelayPlane& plane) {
  steer_compute_block(probe_, *table_, corrections_, adder_, block, plane,
                      block_scratch_);
}

}  // namespace us3d::delay
