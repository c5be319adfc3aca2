#include "hw/steer_block.h"

#include "common/contracts.h"

namespace us3d::hw {

SteerBlock::SteerBlock(const delay::TableSteerConfig& formats, int x_slots,
                       int y_slots)
    : adder_(formats) {
  US3D_EXPECTS(x_slots > 0 && y_slots > 0);
  const fx::Value zero = fx::Value::from_raw(0, formats.coeff_format);
  x_regs_.assign(static_cast<std::size_t>(x_slots), zero);
  y_regs_.assign(static_cast<std::size_t>(y_slots), zero);
}

void SteerBlock::load_corrections(std::span<const fx::Value> x_corrections,
                                  std::span<const fx::Value> y_corrections) {
  US3D_EXPECTS(x_corrections.size() == x_regs_.size());
  US3D_EXPECTS(y_corrections.size() == y_regs_.size());
  for (std::size_t i = 0; i < x_regs_.size(); ++i) {
    US3D_EXPECTS(x_corrections[i].format() == adder_.formats().coeff_format);
    x_regs_[i] = x_corrections[i];
  }
  for (std::size_t j = 0; j < y_regs_.size(); ++j) {
    US3D_EXPECTS(y_corrections[j].format() == adder_.formats().coeff_format);
    y_regs_[j] = y_corrections[j];
  }
  loaded_ = true;
}

void SteerBlock::cycle(const fx::Value& reference,
                       std::span<std::int32_t> out) const {
  US3D_EXPECTS(loaded_);
  US3D_EXPECTS(reference.format() == adder_.formats().entry_format);
  US3D_EXPECTS(out.size() ==
               static_cast<std::size_t>(outputs_per_cycle()));
  // Stage 1: the 8 x-adders.
  std::vector<std::int64_t> stage1;
  stage1.reserve(x_regs_.size());
  for (const fx::Value& cx : x_regs_) {
    stage1.push_back(adder_.stage1(reference.raw(), cx.raw()));
  }
  // Stage 2: 16 x 8 adders with rounding to the echo-buffer index.
  std::size_t o = 0;
  for (const fx::Value& cy : y_regs_) {
    for (const std::int64_t s : stage1) {
      out[o++] = adder_.stage2(s, cy.raw());
    }
  }
}

}  // namespace us3d::hw
