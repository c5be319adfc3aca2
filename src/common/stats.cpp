#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/contracts.h"

namespace us3d {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::mean() const { return n_ ? mean_ : 0.0; }

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return n_ ? min_ : 0.0; }

double RunningStats::max() const { return n_ ? max_ : 0.0; }

void AbsErrorStats::add(double error) {
  const double a = std::abs(error);
  stats_.add(a);
  sum_sq_ += a * a;
  if (a > threshold_) ++exceeding_;
}

double AbsErrorStats::rms() const {
  return count() ? std::sqrt(sum_sq_ / static_cast<double>(count())) : 0.0;
}

double AbsErrorStats::fraction_exceeding() const {
  return count() ? static_cast<double>(exceeding_) /
                       static_cast<double>(count())
                 : 0.0;
}

namespace {

const double kLogGamma =
    std::log((1.0 + SampleQuantiles::kRelativeError) /
             (1.0 - SampleQuantiles::kRelativeError));

int bucket_index(double x) {
  return static_cast<int>(std::ceil(std::log(x) / kLogGamma));
}

double bucket_value(int index) {
  // 2 g^i / (g + 1) = g^i * (1 - kRelativeError).
  return std::exp(kLogGamma * index) * (1.0 - SampleQuantiles::kRelativeError);
}

/// Saturating uint32 count add: a bucket that outlives 2^32 samples stops
/// counting rather than wrapping (rank_value then falls back to max).
void bump(std::uint32_t& slot, std::uint64_t by) {
  slot = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      std::uint64_t{slot} + by, std::numeric_limits<std::uint32_t>::max()));
}

}  // namespace

std::uint32_t& SampleQuantiles::bucket(int index) {
  if (counts_.empty()) {
    offset_ = index;
    counts_.push_back(0);
  } else if (index < offset_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(offset_ - index),
                   0);
    offset_ = index;
  } else if (index - offset_ >= static_cast<int>(counts_.size())) {
    counts_.resize(static_cast<std::size_t>(index - offset_) + 1, 0);
  }
  return counts_[static_cast<std::size_t>(index - offset_)];
}

void SampleQuantiles::add(double x) {
  US3D_EXPECTS(std::isfinite(x) && x >= 0.0);
  if (x < kMinTracked) {
    ++below_;
  } else {
    bump(bucket(bucket_index(x)), 1);
  }
  min_ = count_ == 0 ? x : std::min(min_, x);
  max_ = count_ == 0 ? x : std::max(max_, x);
  ++count_;
}

void SampleQuantiles::merge(const SampleQuantiles& other) {
  if (other.count_ == 0) return;
  if (!other.counts_.empty()) {
    // Touch both ends first so the span grows at most twice.
    bucket(other.offset_);
    bucket(other.offset_ + static_cast<int>(other.counts_.size()) - 1);
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
      bump(counts_[static_cast<std::size_t>(other.offset_ - offset_) + i],
           other.counts_[i]);
    }
  }
  below_ += other.below_;
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
}

double SampleQuantiles::rank_value(std::uint64_t r) const {
  if (r == 0) return min_;
  if (r + 1 == count_) return max_;
  if (r < below_) return 0.0;
  std::uint64_t seen = below_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (r < seen) {
      // Clamping moves the estimate toward the sample (which lies in
      // [min, max]) and keeps rank values monotone.
      return std::clamp(bucket_value(offset_ + static_cast<int>(i)), min_,
                        max_);
    }
  }
  return max_;
}

double SampleQuantiles::quantile(double q) const {
  US3D_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  // The exact estimator's ranks and weights, each rank read from its
  // bucket: interpolating two values that are each within the relative
  // bound keeps the interpolation within it too.
  const double pos = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min<std::uint64_t>(lo + 1, count_ - 1);
  const double frac = pos - static_cast<double>(lo);
  const double v_lo = rank_value(lo);
  const double v_hi = hi == lo ? v_lo : rank_value(hi);
  return v_lo + frac * (v_hi - v_lo);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  US3D_EXPECTS(hi > lo);
  US3D_EXPECTS(bins > 0);
}

void Histogram::add(double x) {
  const auto n = static_cast<double>(counts_.size());
  double idx = (x - lo_) / width_;
  idx = std::clamp(idx, 0.0, n - 1.0);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

std::uint64_t Histogram::bin(std::size_t i) const {
  US3D_EXPECTS(i < counts_.size());
  return counts_[i];
}

double Histogram::bin_lower_edge(std::size_t i) const {
  US3D_EXPECTS(i < counts_.size());
  return lo_ + static_cast<double>(i) * width_;
}

std::string Histogram::to_string(std::size_t max_lines) const {
  std::ostringstream os;
  const std::size_t step = std::max<std::size_t>(1, counts_.size() / max_lines);
  for (std::size_t i = 0; i < counts_.size(); i += step) {
    std::uint64_t c = 0;
    const std::size_t end = std::min(i + step, counts_.size());
    for (std::size_t j = i; j < end; ++j) c += counts_[j];
    os << "[" << bin_lower_edge(i) << ", "
       << bin_lower_edge(end - 1) + width_ << "): " << c << "\n";
  }
  return os.str();
}

}  // namespace us3d
