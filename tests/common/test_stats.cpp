#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "common/prng.h"

namespace us3d {
namespace {

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // classic population-stddev example
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MatchesDirectComputationOnRandomData) {
  SplitMix64 rng(42);
  RunningStats s;
  double sum = 0.0, sum_sq = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_in(-5.0, 11.0);
    s.add(v);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), sum_sq / n - mean * mean, 1e-9);
}

TEST(AbsErrorStats, TracksAbsoluteError) {
  AbsErrorStats e(1.0);
  e.add(-2.0);
  e.add(0.5);
  e.add(1.0);  // exactly at threshold: not exceeding
  EXPECT_EQ(e.count(), 3u);
  EXPECT_DOUBLE_EQ(e.max_abs(), 2.0);
  EXPECT_NEAR(e.mean_abs(), 3.5 / 3.0, 1e-12);
  EXPECT_EQ(e.count_exceeding(), 1u);
  EXPECT_NEAR(e.fraction_exceeding(), 1.0 / 3.0, 1e-12);
}

TEST(AbsErrorStats, RmsOfConstantIsConstant) {
  AbsErrorStats e;
  for (int i = 0; i < 10; ++i) e.add(i % 2 == 0 ? 3.0 : -3.0);
  EXPECT_DOUBLE_EQ(e.rms(), 3.0);
}

TEST(SampleQuantiles, EmptyIsZero) {
  const SampleQuantiles q;
  EXPECT_EQ(q.count(), 0u);
  EXPECT_EQ(q.quantile(0.5), 0.0);
  EXPECT_EQ(q.p99(), 0.0);
}

/// Exact linearly interpolated quantile of `sorted` (the estimator the
/// bucketed store is bounded against).
double exact_quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// The declared bound for an exact quantile value.
double bound(double exact) {
  // The 1e-9 relative slack covers log() rounding at a bucket edge.
  return SampleQuantiles::kRelativeError * exact * (1.0 + 1e-9) +
         SampleQuantiles::kMinTracked;
}

/// Seeded log-normal stream: latencies around `median_s`, spread `sigma`.
std::vector<double> log_normal(std::uint64_t seed, std::size_t n,
                               double median_s, double sigma) {
  SplitMix64 rng(seed);
  std::vector<double> v;
  v.reserve(n);
  while (v.size() < n) {
    // Box-Muller; 1 - u keeps the log argument in (0, 1].
    const double u1 = 1.0 - rng.next_unit();
    const double u2 = rng.next_unit();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.141592653589793 * u2);
    v.push_back(median_s * std::exp(sigma * z));
  }
  return v;
}

void expect_within_bound(const SampleQuantiles& est, std::vector<double> all,
                         const std::string& label) {
  std::sort(all.begin(), all.end());
  ASSERT_EQ(est.count(), all.size()) << label;
  for (int k = 0; k <= 100; ++k) {
    const double q = k / 100.0;
    const double exact = exact_quantile(all, q);
    EXPECT_NEAR(est.quantile(q), exact, bound(exact)) << label << " q " << q;
  }
  EXPECT_NEAR(est.quantile(0.999), exact_quantile(all, 0.999),
              bound(exact_quantile(all, 0.999)))
      << label;
  // The extremes are kept exactly.
  EXPECT_EQ(est.quantile(0.0), all.front()) << label;
  EXPECT_EQ(est.quantile(1.0), all.back()) << label;
}

TEST(SampleQuantiles, WithinDeclaredBoundOfExactQuantilesOnLogNormalStreams) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::size_t n : {std::size_t{2}, std::size_t{7},
                                std::size_t{100}, std::size_t{20000}}) {
      const std::vector<double> xs =
          log_normal(seed, n, /*median_s=*/4.0e-3, /*sigma=*/0.9);
      SampleQuantiles q;
      for (const double x : xs) q.add(x);
      expect_within_bound(q, xs,
                          "seed " + std::to_string(seed) + " n " +
                              std::to_string(n));
    }
  }
}

TEST(SampleQuantiles, KnownPercentilesWithInterpolation) {
  SampleQuantiles q;
  for (const double v : {5.0, 1.0, 4.0, 2.0, 3.0}) q.add(v);
  EXPECT_EQ(q.count(), 5u);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);  // min and max are exact
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 5.0);
  EXPECT_NEAR(q.p50(), 3.0, bound(3.0));
  EXPECT_NEAR(q.quantile(0.25), 2.0, bound(2.0));
  EXPECT_NEAR(q.quantile(0.125), 1.5, bound(1.5));  // interpolated
}

TEST(SampleQuantiles, SingleSampleIsEveryQuantile) {
  SampleQuantiles q;
  q.add(7.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(q.p50(), 7.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 7.0);
}

TEST(SampleQuantiles, MergeMatchesFlatInsertionAndReadsStayCoherent) {
  SplitMix64 rng(7);
  SampleQuantiles flat, a, b;
  for (int i = 0; i < 200; ++i) {
    const double v = rng.next_in(0.0, 100.0);
    flat.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  EXPECT_DOUBLE_EQ(a.p90(), a.p90());  // read before merge is fine
  a.merge(b);
  // A bucket-wise add holds exactly the buckets flat insertion does.
  EXPECT_EQ(a.count(), flat.count());
  EXPECT_EQ(a.bucket_span(), flat.bucket_span());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), flat.quantile(q)) << q;
  }
  // Adding after a read is seen by the next read.
  a.add(0.0);
  EXPECT_DOUBLE_EQ(a.quantile(0.0), 0.0);
}

TEST(SampleQuantiles, MergedLogNormalStreamsStayWithinBound) {
  // Per-session accumulators with different medians, folded service-wide.
  std::vector<double> all;
  SampleQuantiles merged;
  for (std::uint64_t s = 0; s < 4; ++s) {
    const std::vector<double> xs =
        log_normal(100 + s, 3000, 2.0e-3 * static_cast<double>(s + 1), 0.6);
    SampleQuantiles part;
    for (const double x : xs) part.add(x);
    merged.merge(part);
    all.insert(all.end(), xs.begin(), xs.end());
  }
  merged.merge(SampleQuantiles{});  // merging an empty store is a no-op
  expect_within_bound(merged, all, "merged");
}

TEST(SampleQuantiles, SamplesBelowTheTrackedFloorReadAsZero) {
  SampleQuantiles q;
  for (int i = 0; i < 10; ++i) q.add(0.0);
  q.add(1.0e-12);
  for (int i = 0; i < 10; ++i) q.add(1.0);
  EXPECT_EQ(q.quantile(0.0), 0.0);
  EXPECT_EQ(q.p50(), 0.0);  // rank 10 is the 1e-12 sample
  EXPECT_NEAR(q.p90(), 1.0, bound(1.0));
  EXPECT_EQ(q.quantile(1.0), 1.0);
}

TEST(SampleQuantiles, MemoryFollowsDynamicRangeNotLength) {
  // Two decades of latency (1 ms .. 100 ms) need ln(100) / ln(g) ~ 230
  // buckets however many samples arrive: under a kilobyte of counts.
  SplitMix64 rng(11);
  SampleQuantiles q;
  for (int i = 0; i < 200000; ++i) {
    q.add(1.0e-3 * std::pow(100.0, rng.next_unit()));
  }
  EXPECT_EQ(q.count(), 200000u);
  EXPECT_LE(q.bucket_span(), 235u);
  EXPECT_LE(q.bucket_span() * sizeof(std::uint32_t), 1024u);
}

TEST(SampleQuantiles, RejectsOutOfRangeQuantile) {
  SampleQuantiles q;
  q.add(1.0);
  EXPECT_THROW(q.quantile(-0.1), ContractViolation);
  EXPECT_THROW(q.quantile(1.1), ContractViolation);
}

TEST(SampleQuantiles, RejectsNegativeAndNonFiniteSamples) {
  SampleQuantiles q;
  EXPECT_THROW(q.add(-1.0e-3), ContractViolation);
  EXPECT_THROW(q.add(std::nan("")), ContractViolation);
  EXPECT_THROW(q.add(std::numeric_limits<double>::infinity()),
               ContractViolation);
  EXPECT_EQ(q.count(), 0u);
}

TEST(Histogram, BinsAndSaturatingEdges) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 9
  h.add(-5.0);  // clamps to bin 0
  h.add(50.0);  // clamps to bin 9
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(9), 2u);
  for (std::size_t i = 1; i < 9; ++i) EXPECT_EQ(h.bin(i), 0u);
}

TEST(Histogram, EdgesAreUniform) {
  Histogram h(-1.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_width(), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_lower_edge(0), -1.0);
  EXPECT_DOUBLE_EQ(h.bin_lower_edge(3), 0.5);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), ContractViolation);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractViolation);
}

TEST(Histogram, ToStringMentionsCounts) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  const std::string s = h.to_string();
  EXPECT_NE(s.find(": 1"), std::string::npos);
}

}  // namespace
}  // namespace us3d
