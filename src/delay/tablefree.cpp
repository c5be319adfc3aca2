#include "delay/tablefree.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace us3d::delay {

namespace {

/// Domain of the shared PWL sqrt table: squared distances (in sample^2)
/// up to the longest receive path, with a small safety margin. The lower
/// end is 1: a steered shallow focal point can pass arbitrarily close to
/// an element, so the table must cover the whole range (distances below
/// one sample cannot occur at any realistic focal depth, and the tiny-x
/// segments cost only one or two extra table entries).
PwlSqrt build_pwl(const imaging::SystemConfig& cfg,
                  const TableFreeConfig& tf) {
  const probe::MatrixProbe probe(cfg.probe);
  const double k = cfg.sampling_frequency_hz / cfg.speed_of_sound;
  // The longest path is either receive (deepest point to a corner element)
  // or transmit from a backed-off virtual source.
  const double reach =
      std::max(probe.max_element_radius(), tf.max_origin_backoff_m);
  const double max_dist = (cfg.volume.max_depth_m + reach) * k;
  const double x_max = 1.05 * max_dist * max_dist;
  return PwlSqrt::build(1.0, x_max, tf.delta);
}

}  // namespace

TableFreeEngine::TableFreeEngine(const imaging::SystemConfig& config,
                                 const TableFreeConfig& tf_config)
    : config_(config),
      probe_(config.probe),
      tf_config_(tf_config),
      pwl_(build_pwl(config, tf_config)),
      fixed_pwl_(pwl_, tf_config.fixed),
      tx_tracker_(pwl_),
      delay_round_(tf_config.fixed.result_format.fraction_bits) {
  // Proof that lets the block path sum the two raw path words where the
  // oracle sums their to_real() values: both words and their sum stay
  // below 2^52, so the double sum, and its half-up rounding, are exact.
  US3D_EXPECTS(tf_config.fixed.result_format.magnitude_bits() <= 51);
  const double k = config_.sampling_frequency_hz / config_.speed_of_sound;
  element_pos_samples_.reserve(
      static_cast<std::size_t>(probe_.element_count()));
  rx_trackers_.reserve(static_cast<std::size_t>(probe_.element_count()));
  for (int e = 0; e < probe_.element_count(); ++e) {
    element_pos_samples_.push_back(probe_.element_position(e) * k);
    rx_trackers_.emplace_back(pwl_);
  }
}

TableFreeEngine::TableFreeEngine(const TableFreeEngine& other)
    : DelayEngine(other),
      config_(other.config_),
      probe_(other.probe_),
      tf_config_(other.tf_config_),
      pwl_(other.pwl_),
      fixed_pwl_(other.fixed_pwl_),
      element_pos_samples_(other.element_pos_samples_),
      rx_trackers_(other.rx_trackers_),
      tx_tracker_(other.tx_tracker_),
      origin_samples_(other.origin_samples_),
      pending_seek_(other.pending_seek_),
      delay_round_(other.delay_round_) {
  for (PwlTracker& t : rx_trackers_) t.rebind(pwl_);
  tx_tracker_.rebind(pwl_);
}

int TableFreeEngine::element_count() const { return probe_.element_count(); }

std::unique_ptr<DelayEngine> TableFreeEngine::clone() const {
  return std::make_unique<TableFreeEngine>(*this);
}

void TableFreeEngine::do_begin_frame(const Vec3& origin) {
  const double k = config_.sampling_frequency_hz / config_.speed_of_sound;
  origin_samples_ = origin * k;
  pending_seek_ = true;
}

double TableFreeEngine::squared_distance(const Vec3& a, const Vec3& b) {
  return (a - b).norm_squared();
}

void TableFreeEngine::seed_trackers(const Vec3& s0) {
  // At frame start the control logic preloads each unit's segment
  // register (a one-off seek, not charged as stall cycles).
  tx_tracker_.seek(std::clamp(squared_distance(s0, origin_samples_),
                              pwl_.x_min(), pwl_.x_max()));
  for (std::size_t e = 0; e < rx_trackers_.size(); ++e) {
    rx_trackers_[e].seek(
        std::clamp(squared_distance(s0, element_pos_samples_[e]),
                   pwl_.x_min(), pwl_.x_max()));
  }
  pending_seek_ = false;
}

double TableFreeEngine::evaluate_path(PwlTracker& tracker, double q) const {
  tracker.advance_clamped(q);  // q is already in the domain
  if (tf_config_.use_fixed_point) {
    return fixed_pwl_
        .evaluate_in_segment(static_cast<std::int64_t>(q), tracker.segment())
        .to_real();
  }
  return pwl_.evaluate_in_segment(q, tracker.segment());
}

void TableFreeEngine::do_compute(const imaging::FocalPoint& fp,
                                 std::span<std::int32_t> out) {
  US3D_EXPECTS(out.size() == static_cast<std::size_t>(element_count()));
  const double k = config_.sampling_frequency_hz / config_.speed_of_sound;
  const Vec3 s = fp.position * k;  // focal point in sample units

  const double q_tx =
      std::clamp(squared_distance(s, origin_samples_), pwl_.x_min(),
                 pwl_.x_max());
  if (pending_seek_) seed_trackers(s);

  // Transmit path: one evaluation per focal point, shared by all elements.
  const double t_tx = evaluate_path(tx_tracker_, q_tx);

  for (std::size_t e = 0; e < rx_trackers_.size(); ++e) {
    const double q_rx = std::clamp(
        squared_distance(s, element_pos_samples_[e]), pwl_.x_min(),
        pwl_.x_max());
    const double t_rx = evaluate_path(rx_trackers_[e], q_rx);
    out[e] = static_cast<std::int32_t>(
        fx::round_real_to_int(t_tx + t_rx, fx::Rounding::kHalfUp));
  }
}

void TableFreeEngine::do_compute_block(const imaging::FocalBlock& block,
                                       DelayPlane& plane) {
  // The double-precision PWL is an error-analysis mode, not the hardware
  // datapath: it runs the per-point loop.
  if (!tf_config_.use_fixed_point) {
    DelayEngine::do_compute_block(block, plane);
    return;
  }
  const double k = config_.sampling_frequency_hz / config_.speed_of_sound;
  const int n = block.size();
  block_pos_.resize(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    block_pos_[static_cast<std::size_t>(p)] = block[p].position * k;
  }

  if (pending_seek_) seed_trackers(block_pos_.front());

  // Transmit leg: the shared tracker walks the whole run once. Path delays
  // stay raw result_format words; the tracker clamps q to the table
  // domain, which keeps the truncated x inside evaluate_raw's [0, x_limit].
  block_tx_raw_.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < block_pos_.size(); ++i) {
    const double q_tx = tx_tracker_.advance_clamped(
        squared_distance(block_pos_[i], origin_samples_));
    block_tx_raw_[i] = fixed_pwl_.evaluate_raw(static_cast<std::int64_t>(q_tx),
                                               tx_tracker_.segment());
  }

  // Receive legs: each element's tracker advances once across the whole
  // run before the next element is touched. The tracker sees the same q
  // sequence as in the per-point sweep, so segments — and therefore delay
  // values and step counts — are identical. The two raw path words are
  // summed and rounded half-up to the echo-sample index in one shift.
  for (std::size_t e = 0; e < rx_trackers_.size(); ++e) {
    PwlTracker& tracker = rx_trackers_[e];
    const Vec3 d = element_pos_samples_[e];
    const std::span<std::int32_t> row = plane.row(static_cast<int>(e));
    for (std::size_t i = 0; i < block_pos_.size(); ++i) {
      const double q_rx =
          tracker.advance_clamped(squared_distance(block_pos_[i], d));
      const std::int64_t t_rx = fixed_pwl_.evaluate_raw(
          static_cast<std::int64_t>(q_rx), tracker.segment());
      row[i] = static_cast<std::int32_t>(delay_round_(block_tx_raw_[i] + t_rx));
    }
  }
}

TableFreeEngine::TrackerStats TableFreeEngine::tracker_stats() const {
  TrackerStats s;
  auto absorb = [&s](const PwlTracker& t) {
    s.evaluations += t.evaluations();
    s.total_steps += t.total_steps();
    s.max_steps_single_evaluation = std::max(
        s.max_steps_single_evaluation, t.max_steps_single_evaluation());
  };
  for (const PwlTracker& t : rx_trackers_) absorb(t);
  absorb(tx_tracker_);
  return s;
}

void TableFreeEngine::reset_tracker_stats() {
  for (PwlTracker& t : rx_trackers_) t.reset_statistics();
  tx_tracker_.reset_statistics();
}

}  // namespace us3d::delay
