// Steering corrections (Sec. V-A): the tilted plane that adapts the
// on-axis reference delay table to a steered line of sight (theta, phi):
//
//   tp(O,S,D) ~= tp(O,R,D) - (xD cos(phi) sin(theta) + yD sin(phi)) / c
//
// The correction separates into a per-column term (depends on xD, theta,
// phi) and a per-row term (depends on yD, phi). Both are precomputed into
// signed fixed-point (Q13.4 at 18 bits); cos(phi) is even, so x-corrections
// are stored for half the phi range only — giving the paper's
// ex*(n_phi/2)*n_theta + ey*n_phi = 832e3 coefficients.
#ifndef US3D_DELAY_STEERING_H
#define US3D_DELAY_STEERING_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/fixed_point.h"
#include "imaging/focal_point.h"
#include "imaging/system_config.h"

namespace us3d::delay {

/// Double-precision steering correction in echo samples (the exact value
/// the coefficients quantize): -(xD cos(phi) sin(theta) + yD sin(phi)) * fs/c.
double steering_correction_samples(const imaging::SystemConfig& config,
                                   double theta, double phi, double element_x,
                                   double element_y);

/// Double-precision steered delay (Eq. 7) in echo samples: exact reference
/// delay for the same radius plus the correction plane. This isolates the
/// *algorithmic* (far-field Taylor) error from fixed-point effects.
double steered_delay_samples(const imaging::SystemConfig& config,
                             const imaging::FocalPoint& fp,
                             const Vec3& element_pos);

/// Precomputed fixed-point correction coefficient set.
class SteeringCorrections {
 public:
  SteeringCorrections(const imaging::SystemConfig& config,
                      const fx::Format& coeff_format = fx::kCorrection18);

  /// Correction contribution of element column ix for line (i_theta, i_phi).
  fx::Value x_correction(int ix, int i_theta, int i_phi) const;
  /// Correction contribution of element row iy for elevation i_phi.
  fx::Value y_correction(int iy, int i_phi) const;

  /// Raw-word access for datapaths that resolve the format once:
  /// x_correction(ix, t, p).raw() == x_raw_column(ix)[x_offset(t, p)] and
  /// y_correction(iy, p).raw() == y_raw(iy, p).
  std::span<const std::int32_t> x_raw_column(int ix) const;
  std::size_t x_offset(int i_theta, int i_phi) const;
  std::int32_t y_raw(int iy, int i_phi) const;

  std::int64_t x_coefficient_count() const;
  std::int64_t y_coefficient_count() const;
  std::int64_t coefficient_count() const;
  double storage_bits() const;

  const fx::Format& coeff_format() const { return format_; }

 private:
  /// Index of |phi| in the folded phi table.
  int fold_phi(int i_phi) const;
  std::size_t x_index(int ix, int i_theta, int i_phi_folded) const;
  std::size_t y_index(int iy, int i_phi) const;

  imaging::SystemConfig config_;
  fx::Format format_;
  int n_theta_ = 0;
  int n_phi_ = 0;
  int n_phi_folded_ = 0;
  int nx_ = 0;
  int ny_ = 0;
  std::vector<std::int32_t> x_raw_;
  std::vector<std::int32_t> y_raw_;
};

}  // namespace us3d::delay

#endif  // US3D_DELAY_STEERING_H
