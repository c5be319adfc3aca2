// Functional (bit-accurate) model of one Fig. 4 delay-computation block:
// a BRAM bank feeding a two-stage adder tree. Per cycle the block reads
// one reference-delay word and applies all permutations of the 8 loaded
// x-corrections and 16 loaded y-corrections:
//
//   stage 1:  s_i  = ref + cx_i           (8 adders)
//   stage 2:  d_ij = round(s_i + cy_j)    (16 x 8 adders, with rounding)
//
// producing 128 steered echo-buffer indices. The correction registers are
// held constant through an insonification ("entirely removing the
// coefficients from the critical timing path").
//
// Both stages run delay::SteerAdder, the raw adder pair the TABLESTEER
// block path uses, so the model cannot fork from the engine. It is
// verified bit-exact against TableSteerEngine, establishing that the
// fabric of 128 such blocks computes precisely the delays the algorithmic
// engine defines.
#ifndef US3D_HW_STEER_BLOCK_H
#define US3D_HW_STEER_BLOCK_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/fixed_point.h"
#include "delay/tablesteer.h"

namespace us3d::hw {

class SteerBlock {
 public:
  /// Register-file geometry of the paper's block: 8 x-corrections by
  /// 16 y-corrections.
  SteerBlock(const delay::TableSteerConfig& formats, int x_slots = 8,
             int y_slots = 16);

  int x_slots() const { return static_cast<int>(x_regs_.size()); }
  int y_slots() const { return static_cast<int>(y_regs_.size()); }
  int outputs_per_cycle() const { return x_slots() * y_slots(); }
  int adder_count() const { return x_slots() + x_slots() * y_slots(); }

  /// Loads the correction register files (once per insonification).
  void load_corrections(std::span<const fx::Value> x_corrections,
                        std::span<const fx::Value> y_corrections);

  /// One clock cycle: consume one reference word, emit x_slots*y_slots
  /// steered indices, ordered [y][x] (y outer), clamped at zero like the
  /// engine.
  void cycle(const fx::Value& reference,
             std::span<std::int32_t> out) const;

 private:
  delay::SteerAdder adder_;
  std::vector<fx::Value> x_regs_;
  std::vector<fx::Value> y_regs_;
  bool loaded_ = false;
};

}  // namespace us3d::hw

#endif  // US3D_HW_STEER_BLOCK_H
