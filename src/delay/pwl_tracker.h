// Incremental segment tracking (Sec. IV-B). When focal points are visited
// in scan order, the sqrt argument changes gradually, so the hardware does
// not search for the right PWL segment: it keeps the current segment and
// steps at most one segment per comparator evaluation (the two ">="
// comparators of Fig. 2a). Large jumps — e.g. the depth reset at the start
// of a new scanline in scanline order — cost one cycle per crossed segment.
// The tracker counts those steps so the cycle-accurate models and the
// scan-order ablation can charge them.
#ifndef US3D_DELAY_PWL_TRACKER_H
#define US3D_DELAY_PWL_TRACKER_H

#include <algorithm>
#include <cstdint>

#include "delay/pwl_sqrt.h"

namespace us3d::delay {

class PwlTracker {
 public:
  /// The tracker holds a reference to `table`; it must not outlive it.
  explicit PwlTracker(const PwlSqrt& table);

  struct Evaluation {
    double value = 0.0;  ///< PWL approximation of sqrt(x)
    int steps = 0;       ///< segments crossed to reach x's segment
  };

  /// Moves the current segment toward x (one step per crossed boundary)
  /// and evaluates. x must lie inside the table domain.
  Evaluation evaluate(double x);

  /// The segment-only step: clamps x into the table domain, moves the
  /// current segment to x's and charges the steps as evaluate() does, but
  /// evaluates nothing — for callers that evaluate segment() themselves
  /// (the fixed-point datapath). Returns the clamped x. Clamping makes the
  /// domain hold by construction, so no per-call range check is needed.
  double advance_clamped(double x) {
    x = std::clamp(x, x_min_, x_max_);
    step_to(x);
    return x;
  }

  /// Current segment index (for pairing with FixedPwlSqrt).
  std::size_t segment() const { return segment_; }

  /// Lifetime statistics, for stall accounting.
  std::int64_t total_steps() const { return total_steps_; }
  std::int64_t evaluations() const { return evaluations_; }
  int max_steps_single_evaluation() const { return max_steps_; }

  /// Resets the segment to the one containing x (a "seek", as done once at
  /// frame start) without charging steps.
  void seek(double x);

  /// Re-points the tracker at an identical segmentation owned elsewhere.
  /// Used when an engine that owns both the PwlSqrt and its trackers is
  /// copied: the copied trackers must follow the copy's table, not the
  /// original's. The segment index and statistics are preserved, so the
  /// tables must have the same segmentation.
  void rebind(const PwlSqrt& table);

  void reset_statistics();

 private:
  /// Moves segment_ to x's, charging one step per crossed boundary;
  /// returns the steps taken. x must lie in the table domain.
  int step_to(double x);

  const PwlSqrt* table_;
  double x_min_;  // table_'s domain, cached for the per-delay step
  double x_max_;
  std::size_t segment_ = 0;
  std::int64_t total_steps_ = 0;
  std::int64_t evaluations_ = 0;
  int max_steps_ = 0;
};

// Inline: the per-delay step of the TABLEFREE paths.
inline int PwlTracker::step_to(double x) {
  const auto& segs = table_->segments();
  int steps = 0;
  // Step down while x is below the current segment's start.
  while (segment_ > 0 && x < segs[segment_].x_start) {
    --segment_;
    ++steps;
  }
  // Step up while x is at or beyond the next segment's start.
  while (segment_ + 1 < segs.size() && x >= segs[segment_ + 1].x_start) {
    ++segment_;
    ++steps;
  }
  ++evaluations_;
  total_steps_ += steps;
  max_steps_ = std::max(max_steps_, steps);
  return steps;
}

}  // namespace us3d::delay

#endif  // US3D_DELAY_PWL_TRACKER_H
