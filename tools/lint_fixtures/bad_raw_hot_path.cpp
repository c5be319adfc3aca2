// Lint fixture: fx::Value format emulation inside delay block paths. Each
// call re-derives shifts, checks ranges and switches on rounding and
// overflow modes per delay — the work the raw datapath resolves once at
// construction. The same calls in a per-point do_compute() are fine.
#include "common/fixed_point.h"

namespace us3d::delay {

void SlowEngine::do_compute_block(const imaging::FocalBlock& block,
                                  DelayPlane& plane) {
  for (int p = 0; p < block.size(); ++p) {
    const fx::Value a = fx::Value::from_raw(raw_[p], fmt_);
    const fx::Value s = fx::add(a, b_, sum_fmt_);
    plane.at(0, p) = static_cast<std::int32_t>(
        fx::round_real_to_int(s.to_real(), fx::Rounding::kHalfUp));
  }
}

void steer_compute_block(const SteerAdder& adder, DelayPlane& plane) {
  const fx::Value p = fx::mul(x_, y_, prod_fmt_);
  plane.at(0, 0) = static_cast<std::int32_t>(fx::sub(p, z_, fmt_).raw());
}

void SlowEngine::do_compute(const imaging::FocalPoint& fp,
                            std::span<std::int32_t> out) {
  // The oracle: emulation is expected here and must not be flagged alone.
  out[0] = static_cast<std::int32_t>(fx::add(a_, b_, fmt_).raw());
}

}  // namespace us3d::delay
