// Streaming statistics used by the accuracy experiments (Sec. VI-A).
#ifndef US3D_COMMON_STATS_H
#define US3D_COMMON_STATS_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace us3d {

/// Welford-style running statistics over a stream of samples.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Error-specific statistics: tracks |e| mean/max/RMS plus the count of
/// samples whose |e| exceeds a threshold (e.g. "off by more than 1 sample").
class AbsErrorStats {
 public:
  explicit AbsErrorStats(double exceed_threshold = 1.0)
      : threshold_(exceed_threshold) {}

  void add(double error);

  std::size_t count() const { return stats_.count(); }
  double mean_abs() const { return stats_.mean(); }
  double max_abs() const { return stats_.count() ? stats_.max() : 0.0; }
  double rms() const;
  std::size_t count_exceeding() const { return exceeding_; }
  double fraction_exceeding() const;
  double threshold() const { return threshold_; }

 private:
  RunningStats stats_;  // over |e|
  double sum_sq_ = 0.0;
  std::size_t exceeding_ = 0;
  double threshold_;
};

/// Bounded-memory quantiles of a non-negative stream (per-session latency
/// distributions in the imaging service): a log-bucketed, HDR-style
/// histogram. A sample x >= kMinTracked lands in bucket i = ceil(log_g x),
/// g = (1 + kRelativeError) / (1 - kRelativeError), whose representative
/// 2 g^i / (g + 1) is within kRelativeError of every value in the bucket.
/// Counts are uint32 over only the span of buckets touched, so memory
/// follows the stream's dynamic range (about a kilobyte for a latency
/// spread of two decades), never its length.
///
/// Declared bound: quantile(q) differs from the exact linearly
/// interpolated sample quantile by at most kRelativeError times it, plus
/// kMinTracked (samples below kMinTracked, 0 included, read as 0). The
/// smallest and largest samples are kept exactly, so quantile(0),
/// quantile(1) and every quantile of a constant stream are exact.
class SampleQuantiles {
 public:
  static constexpr double kRelativeError = 0.01;
  static constexpr double kMinTracked = 1e-9;

  /// x must be finite and >= 0.
  void add(double x);
  /// Bucket-wise add of `other` (service-wide aggregation over
  /// per-session accumulators).
  void merge(const SampleQuantiles& other);

  std::size_t count() const { return count_; }
  /// Interpolated quantile for q in [0, 1] within the declared bound;
  /// 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }

  /// Buckets currently held (the touched span), for memory accounting.
  std::size_t bucket_span() const { return counts_.size(); }

 private:
  /// Extends the held span so it covers bucket `index`; returns its slot.
  std::uint32_t& bucket(int index);
  /// Representative value of the sample with 0-based rank r.
  double rank_value(std::uint64_t r) const;

  std::vector<std::uint32_t> counts_;  // buckets offset_ .. offset_+size-1
  int offset_ = 0;
  std::uint64_t below_ = 0;  // samples < kMinTracked
  std::size_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bin histogram over a closed interval; out-of-range samples land in
/// saturating edge bins so no sample is ever silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  std::size_t bin_count() const { return counts_.size(); }
  std::uint64_t bin(std::size_t i) const;
  double bin_lower_edge(std::size_t i) const;
  double bin_width() const { return width_; }
  std::uint64_t total() const { return total_; }

  /// Render as "lo..hi: count" lines, for bench logs.
  std::string to_string(std::size_t max_lines = 32) const;

 private:
  double lo_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace us3d

#endif  // US3D_COMMON_STATS_H
