#include "delay/pwl_sqrt.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/contracts.h"

namespace us3d::delay {

namespace {

/// Maximum deviation between sqrt and its chord on [a, b]. For the concave
/// sqrt, the worst point x* satisfies f'(x*) = chord slope, i.e.
/// x* = 1 / (4 s^2), and the deviation is f(x*) - chord(x*).
double chord_deviation(double a, double b) {
  if (b <= a) return 0.0;
  const double s = (std::sqrt(b) - std::sqrt(a)) / (b - a);
  const double x_star = 1.0 / (4.0 * s * s);
  const double chord_at_star = std::sqrt(a) + s * (x_star - a);
  return std::sqrt(x_star) - chord_at_star;
}

}  // namespace

PwlSqrt::PwlSqrt(std::vector<PwlSegment> segments, double x_min, double x_max,
                 double delta)
    : segments_(std::move(segments)), x_min_(x_min), x_max_(x_max),
      delta_(delta) {}

PwlSqrt PwlSqrt::build(double x_min, double x_max, double delta) {
  US3D_EXPECTS(x_min > 0.0);
  US3D_EXPECTS(x_max > x_min);
  US3D_EXPECTS(delta > 0.0);

  std::vector<PwlSegment> segments;
  double a = x_min;
  while (a < x_max) {
    // Find the largest b in (a, x_max] whose minimax error (half the chord
    // deviation) stays within delta. Exponential probe, then bisection.
    double lo = a;
    double hi = x_max;
    if (chord_deviation(a, x_max) / 2.0 > delta) {
      double probe = a + 1.0;
      while (probe < x_max && chord_deviation(a, probe) / 2.0 <= delta) {
        lo = probe;
        probe = a + (probe - a) * 2.0;
      }
      hi = std::min(probe, x_max);
      for (int i = 0; i < 80 && hi - lo > 1e-9 * hi; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (chord_deviation(a, mid) / 2.0 <= delta) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
    } else {
      lo = x_max;
    }
    const double b = lo;
    US3D_ENSURES(b > a);
    const double s = (std::sqrt(b) - std::sqrt(a)) / (b - a);
    const double half_dev = chord_deviation(a, b) / 2.0;
    // Minimax fit: chord raised by half the deviation.
    segments.push_back(PwlSegment{a, s, std::sqrt(a) + half_dev});
    a = b;
  }
  US3D_ENSURES(!segments.empty());
  return PwlSqrt(std::move(segments), x_min, x_max, delta);
}

std::size_t PwlSqrt::find_segment(double x) const {
  US3D_EXPECTS(x >= x_min_ && x <= x_max_);
  // First segment whose start is > x, minus one.
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), x,
      [](double v, const PwlSegment& seg) { return v < seg.x_start; });
  return static_cast<std::size_t>(std::distance(segments_.begin(), it)) - 1;
}

double PwlSqrt::evaluate_in_segment(double x, std::size_t segment) const {
  US3D_EXPECTS(segment < segments_.size());
  const PwlSegment& seg = segments_[segment];
  return seg.value + seg.slope * (x - seg.x_start);
}

double PwlSqrt::evaluate(double x) const {
  return evaluate_in_segment(x, find_segment(x));
}

double PwlSqrt::measured_max_error(std::size_t samples_per_segment) const {
  US3D_EXPECTS(samples_per_segment >= 2);
  double worst = 0.0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const double a = segments_[i].x_start;
    const double b =
        i + 1 < segments_.size() ? segments_[i + 1].x_start : x_max_;
    for (std::size_t k = 0; k <= samples_per_segment; ++k) {
      const double x = a + (b - a) * static_cast<double>(k) /
                               static_cast<double>(samples_per_segment);
      worst = std::max(worst,
                       std::abs(evaluate_in_segment(x, i) - std::sqrt(x)));
    }
  }
  return worst;
}

namespace {

/// The multiplier's output grid: Q20.f signed, f = result fraction bits.
fx::Format product_format(const FixedPwlSqrt::Config& config) {
  return fx::Format{20, config.result_format.fraction_bits, true};
}

/// Bits needed for a non-negative magnitude (0 for 0).
int bit_width(std::int64_t v) {
  return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(v)));
}

}  // namespace

FixedPwlSqrt::FixedPwlSqrt(const PwlSqrt& reference, const Config& config)
    : config_(config),
      x_limit_(static_cast<std::int64_t>(std::floor(reference.x_max()))) {
  const fx::Format prod_fmt = product_format(config);
  const int slope_frac = config.slope_format.fraction_bits;
  const int value_frac = config.value_format.fraction_bits;
  const int sum_frac = std::max(prod_fmt.fraction_bits, value_frac);
  product_ = fx::Requantize(slope_frac, prod_fmt);
  prod_align_ = sum_frac - prod_fmt.fraction_bits;
  value_align_ = sum_frac - value_frac;
  result_ = fx::Requantize(sum_frac, config.result_format);

  // Construction-time proofs (see the class comment). |dx| <= x_limit_
  // because both x and every x_start lie in [0, x_limit_].
  US3D_EXPECTS(x_limit_ < (std::int64_t{1} << kMultiplierInputBits));
  US3D_EXPECTS(config.slope_format.magnitude_bits() + bit_width(x_limit_) +
                   product_.left <=
               fx::kMaxWordBits);
  US3D_EXPECTS(std::max(prod_fmt.integer_bits,
                        config.value_format.integer_bits) +
                   sum_frac + 1 <=
               fx::kMaxWordBits);

  const auto& segs = reference.segments();
  segments_.reserve(segs.size());
  for (const PwlSegment& seg : segs) {
    // Hardware anchors each segment at an integer boundary (the squared
    // distances it sees are integers).
    segments_.push_back(RawSegment{
        static_cast<std::int64_t>(std::floor(seg.x_start)),
        fx::Value::from_real(seg.slope, config.slope_format).raw(),
        fx::Value::from_real(seg.value, config.value_format).raw()});
  }
}

double FixedPwlSqrt::lut_bits() const {
  // x_start boundaries are stored at the input width (26 bits covers the
  // squared-distance range of the paper system).
  constexpr int kBoundaryBits = 26;
  return static_cast<double>(segment_count()) *
         (config_.slope_format.total_bits() + config_.value_format.total_bits() +
          kBoundaryBits);
}

fx::Value FixedPwlSqrt::evaluate_in_segment(std::int64_t x,
                                            std::size_t segment) const {
  US3D_EXPECTS(segment < segments_.size());
  US3D_EXPECTS(x >= 0);
  const RawSegment& seg = segments_[segment];
  const std::int64_t dx = x - seg.x_start;
  // One multiplier: c1 * dx, then one adder: + c0 (Fig. 2a). dx fits the
  // multiplier input: segments are widest at the top of the domain
  // (~2^21 sample^2 for the paper system).
  const fx::Value prod = fx::mul(
      fx::Value::from_raw(seg.c1, config_.slope_format),
      fx::Value::from_raw(dx, fx::Format{kMultiplierInputBits, 0, true}),
      product_format(config_));
  return fx::add(prod, fx::Value::from_raw(seg.c0, config_.value_format),
                 config_.result_format);
}

}  // namespace us3d::delay
