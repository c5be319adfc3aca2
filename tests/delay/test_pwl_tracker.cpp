#include "delay/pwl_tracker.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.h"

namespace us3d::delay {
namespace {

PwlSqrt make_table() { return PwlSqrt::build(16.0, 1.0e6, 0.25); }

TEST(PwlTracker, SmoothSweepNeverStepsMoreThanOne) {
  const PwlSqrt pwl = make_table();
  PwlTracker tracker(pwl);
  tracker.seek(16.0);
  // Walk the domain with increments much smaller than any segment width.
  for (double x = 16.0; x <= 1.0e6; x *= 1.001) {
    const auto eval = tracker.evaluate(x);
    EXPECT_LE(eval.steps, 1) << "x = " << x;
    EXPECT_NEAR(eval.value, std::sqrt(x), 0.25 + 1e-9);
  }
  EXPECT_EQ(tracker.max_steps_single_evaluation(), 1);
}

TEST(PwlTracker, TracksDownwardToo) {
  const PwlSqrt pwl = make_table();
  PwlTracker tracker(pwl);
  tracker.seek(1.0e6);
  for (double x = 1.0e6; x >= 16.0; x /= 1.001) {
    const auto eval = tracker.evaluate(x);
    EXPECT_LE(eval.steps, 1);
  }
}

TEST(PwlTracker, BigJumpChargesOneStepPerSegment) {
  const PwlSqrt pwl = make_table();
  PwlTracker tracker(pwl);
  tracker.seek(16.0);
  EXPECT_EQ(tracker.segment(), 0u);
  const auto eval = tracker.evaluate(1.0e6);
  const std::size_t target = pwl.find_segment(1.0e6);
  EXPECT_EQ(eval.steps, static_cast<int>(target));
  EXPECT_EQ(tracker.segment(), target);
}

TEST(PwlTracker, EvaluationMatchesSearchBasedResult) {
  const PwlSqrt pwl = make_table();
  PwlTracker tracker(pwl);
  tracker.seek(500.0);
  for (const double x : {500.0, 510.0, 700.0, 650.0, 2.0e4, 16.0, 9.9e5}) {
    const auto eval = tracker.evaluate(x);
    EXPECT_DOUBLE_EQ(eval.value, pwl.evaluate(x));
    EXPECT_EQ(tracker.segment(), pwl.find_segment(x));
  }
}

TEST(PwlTracker, StatisticsAccumulate) {
  const PwlSqrt pwl = make_table();
  PwlTracker tracker(pwl);
  tracker.seek(16.0);
  tracker.evaluate(16.0);     // 0 steps
  tracker.evaluate(1.0e6);    // many steps
  tracker.evaluate(1.0e6);    // 0 steps
  EXPECT_EQ(tracker.evaluations(), 3);
  EXPECT_GT(tracker.total_steps(), 10);
  EXPECT_EQ(tracker.max_steps_single_evaluation(),
            static_cast<int>(pwl.find_segment(1.0e6)));
}

TEST(PwlTracker, ResetStatisticsKeepsPosition) {
  const PwlSqrt pwl = make_table();
  PwlTracker tracker(pwl);
  tracker.seek(1000.0);
  tracker.evaluate(5.0e5);
  const std::size_t pos = tracker.segment();
  tracker.reset_statistics();
  EXPECT_EQ(tracker.evaluations(), 0);
  EXPECT_EQ(tracker.total_steps(), 0);
  EXPECT_EQ(tracker.segment(), pos);
}

TEST(PwlTracker, SeekDoesNotChargeSteps) {
  const PwlSqrt pwl = make_table();
  PwlTracker tracker(pwl);
  tracker.seek(9.0e5);
  EXPECT_EQ(tracker.total_steps(), 0);
  EXPECT_EQ(tracker.segment(), pwl.find_segment(9.0e5));
}

TEST(PwlTracker, SegmentOnlyStepMatchesEvaluateAndClampsToTheDomain) {
  const PwlSqrt pwl = make_table();
  PwlTracker stepped(pwl), evaluated(pwl);
  for (const double x : {16.0, 5.0e5, 1.0e6, 3.0e2, 7.7e4}) {
    EXPECT_EQ(stepped.advance_clamped(x), x);
    evaluated.evaluate(x);
    EXPECT_EQ(stepped.segment(), evaluated.segment()) << x;
  }
  EXPECT_EQ(stepped.total_steps(), evaluated.total_steps());
  EXPECT_EQ(stepped.evaluations(), evaluated.evaluations());
  EXPECT_EQ(stepped.max_steps_single_evaluation(),
            evaluated.max_steps_single_evaluation());
  // Out-of-domain inputs land on the domain edge, never beyond it.
  EXPECT_EQ(stepped.advance_clamped(1.0), pwl.x_min());
  EXPECT_EQ(stepped.segment(), 0u);
  EXPECT_EQ(stepped.advance_clamped(2.0e6), pwl.x_max());
  EXPECT_EQ(stepped.segment(), pwl.segment_count() - 1);
}

TEST(PwlTracker, RejectsOutOfDomain) {
  const PwlSqrt pwl = make_table();
  PwlTracker tracker(pwl);
  EXPECT_THROW(tracker.evaluate(15.0), ContractViolation);
  EXPECT_THROW(tracker.evaluate(1.1e6), ContractViolation);
}

}  // namespace
}  // namespace us3d::delay
