// Piecewise-linear approximation of sqrt(x), Figure 2 of the paper.
//
// TABLEFREE evaluates the receive distance sqrt(dx^2+dy^2+dz^2) (in units
// of echo samples) with a segmented linear approximation whose maximum
// error is bounded by a chosen delta (0.25 samples in the paper, needing
// 70 segments). Each segment stores a slope c1 and an anchor value c0 so
// hardware evaluates c1*(x - x_start) + c0 with one multiplier and one
// adder; the minimax offset is folded into c0.
#ifndef US3D_DELAY_PWL_SQRT_H
#define US3D_DELAY_PWL_SQRT_H

#include <cstddef>
#include <vector>

#include "common/contracts.h"
#include "common/fixed_point.h"

namespace us3d::delay {

struct PwlSegment {
  double x_start = 0.0;  ///< segment domain is [x_start, next.x_start)
  double slope = 0.0;    ///< c1: chord slope over the segment
  double value = 0.0;    ///< c0: minimax-adjusted value at x_start
};

/// Double-precision segmented sqrt with per-segment minimax fit.
class PwlSqrt {
 public:
  /// Builds a segmentation of [x_min, x_max] such that the approximation
  /// error of each segment is at most `delta` (same units as sqrt(x)).
  /// Greedy construction: each segment is extended as far as the bound
  /// allows, which is within one segment of optimal for a concave function.
  static PwlSqrt build(double x_min, double x_max, double delta);

  std::size_t segment_count() const { return segments_.size(); }
  const std::vector<PwlSegment>& segments() const { return segments_; }
  double x_min() const { return x_min_; }
  double x_max() const { return x_max_; }
  double delta() const { return delta_; }

  /// Index of the segment containing x (binary search).
  std::size_t find_segment(double x) const;

  /// Approximate sqrt(x) using the given segment (no search).
  double evaluate_in_segment(double x, std::size_t segment) const;

  /// Approximate sqrt(x) with a fresh segment search.
  double evaluate(double x) const;

  /// Largest |approx - sqrt| found by dense sampling (for verification).
  double measured_max_error(std::size_t samples_per_segment = 64) const;

 private:
  PwlSqrt(std::vector<PwlSegment> segments, double x_min, double x_max,
          double delta);
  std::vector<PwlSegment> segments_;
  double x_min_ = 0.0;
  double x_max_ = 0.0;
  double delta_ = 0.0;
};

/// Fixed-point quantization of a PwlSqrt: c1/c0 are stored in LUT formats
/// and evaluation happens on raw integer words, modelling the hardware
/// datapath (one multiplier, one adder, Fig. 2a).
///
/// Two evaluators compute the same words. evaluate_in_segment() runs the
/// datapath through fx::Value — every width change explicit, every format
/// checked — and is the oracle. evaluate_raw() runs it on plain int64_t
/// with the shifts, clamp bounds and rounding constants resolved at
/// construction; it is what the TABLEFREE block path calls per delay.
/// Construction proves, once, the range facts evaluate_in_segment checks
/// (or silently assumes) per call, and rejects a Config/domain for which
/// they would not hold:
///   - every dx = x - x_start with x in [0, x_limit()] fits the Q40.0
///     multiplier input (x_limit() < 2^40);
///   - the product c1 * dx, aligned to the product grid, fits kMaxWordBits;
///   - the product and c0, aligned to a common grid, sum within
///     kMaxWordBits.
class FixedPwlSqrt {
 public:
  struct Config {
    fx::Format slope_format{1, 22, false};   ///< c1 LUT entries
    fx::Format value_format{13, 8, false};   ///< c0 LUT entries
    fx::Format result_format{13, 6, false};  ///< per-path delay, samples
  };

  /// Width of the multiplier's dx input, signed Q40.0.
  static constexpr int kMultiplierInputBits = 40;

  FixedPwlSqrt(const PwlSqrt& reference, const Config& config);

  const Config& config() const { return config_; }
  std::size_t segment_count() const { return segments_.size(); }
  /// Largest x the raw evaluator accepts: floor of the reference domain.
  std::int64_t x_limit() const { return x_limit_; }

  /// Total LUT storage in bits (c1 table + c0 table + x_start table).
  double lut_bits() const;

  /// Evaluates with integer arithmetic. `x` must be a non-negative integer
  /// (squared distances in sample^2 units are integers in hardware).
  /// `segment` comes from a PwlTracker or find_segment on the reference.
  fx::Value evaluate_in_segment(std::int64_t x, std::size_t segment) const;

  /// The same evaluation on raw words: returns the raw result_format word
  /// evaluate_in_segment(x, segment) holds, bit for bit. x must lie in
  /// [0, x_limit()].
  std::int64_t evaluate_raw(std::int64_t x, std::size_t segment) const {
    US3D_EXPECTS(segment < segments_.size() && x >= 0 && x <= x_limit_);
    const RawSegment& s = segments_[segment];
    const std::int64_t prod = product_(s.c1 * (x - s.x_start));
    return result_((prod << prod_align_) + (s.c0 << value_align_));
  }

 private:
  struct RawSegment {
    std::int64_t x_start = 0;  // integer segment boundary
    std::int64_t c1 = 0;       // slope_format raw word
    std::int64_t c0 = 0;       // value_format raw word
  };

  Config config_;
  std::vector<RawSegment> segments_;
  std::int64_t x_limit_ = 0;
  // The resolved datapath: c1*dx onto the Q20.f product grid, then product
  // and c0 aligned on the finer of the two grids, then onto result_format.
  fx::Requantize product_;
  int prod_align_ = 0;
  int value_align_ = 0;
  fx::Requantize result_;
};

}  // namespace us3d::delay

#endif  // US3D_DELAY_PWL_SQRT_H
