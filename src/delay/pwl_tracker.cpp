#include "delay/pwl_tracker.h"

#include <algorithm>

#include "common/contracts.h"

namespace us3d::delay {

PwlTracker::PwlTracker(const PwlSqrt& table)
    : table_(&table), x_min_(table.x_min()), x_max_(table.x_max()) {}

PwlTracker::Evaluation PwlTracker::evaluate(double x) {
  US3D_EXPECTS(x >= x_min_ && x <= x_max_);
  const int steps = step_to(x);
  return Evaluation{table_->evaluate_in_segment(x, segment_), steps};
}

void PwlTracker::seek(double x) { segment_ = table_->find_segment(x); }

void PwlTracker::rebind(const PwlSqrt& table) {
  US3D_EXPECTS(table.segment_count() == table_->segment_count());
  table_ = &table;
  x_min_ = table.x_min();
  x_max_ = table.x_max();
}

void PwlTracker::reset_statistics() {
  total_steps_ = 0;
  evaluations_ = 0;
  max_steps_ = 0;
}

}  // namespace us3d::delay
