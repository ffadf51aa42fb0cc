#ifndef UDM_KDE_KERNEL_TABLE_H_
#define UDM_KDE_KERNEL_TABLE_H_

/// Precomputed column-major kernel tables and the contiguous sweep over
/// them — the summand table of the one density evaluator
/// (kde/summand_density.h) behind ErrorKernelDensity and McDensityModel.
/// Internal to the density estimators; callers use the model Evaluate
/// entry points.

#include <cmath>
#include <cstddef>
#include <span>

#include "common/math_util.h"
#include "common/simd.h"
#include "kde/kernel.h"

namespace udm::kde_internal {

/// Query-independent tables for the Eq. 3 error kernel, one entry per
/// (summand, dimension), laid out column-major (SoA): entry (i, j) of
/// each table lives at [j * num_points + i], so a per-dimension sweep
/// reads three contiguous streams. Built once at Fit/Build time from the
/// row-major training values and error widths; summands are training
/// points for the exact estimators and micro-cluster pseudo-points for
/// the compressed one.
struct ErrorKernelTable {
  size_t num_points = 0;
  size_t num_dims = 0;
  // 64-byte aligned so the explicit SIMD sweeps load full cache lines;
  // columns themselves start at arbitrary offsets (num_points need not be
  // a lane multiple), so the vector kernels use unaligned loads and the
  // alignment is a cache/codegen courtesy, not a correctness requirement.
  AlignedVector<double> values;           // X_ij, column-major
  AlignedVector<double> neg_inv_two_var;  // −1/(2·(h_j² + ψ_ij²))
  AlignedVector<double> log_norm;         // −log(√2π · s_ij)

  /// Transposes `row_values`/`row_psi` (row-major num_points × num_dims)
  /// and evaluates the per-entry constants against `bandwidths`.
  static ErrorKernelTable Build(std::span<const double> row_values,
                                std::span<const double> row_psi,
                                size_t num_points, size_t num_dims,
                                std::span<const double> bandwidths,
                                KernelNormalization normalization);

  /// Re-packs every column into `perm` order (entry i becomes the old
  /// entry perm[i]) — applied once at fit time when a spatial index
  /// chooses a cell-contiguous summand order, so the indexed and
  /// non-indexed sweeps stream the very same memory in the very same
  /// order (the bit-identity precondition of DESIGN.md §4j).
  void Permute(std::span<const size_t> perm);

  const double* ValuesCol(size_t dim) const {
    return values.data() + dim * num_points;
  }
  const double* NegInvTwoVarCol(size_t dim) const {
    return neg_inv_two_var.data() + dim * num_points;
  }
  const double* LogNormCol(size_t dim) const {
    return log_norm.data() + dim * num_points;
  }
};

/// One column-major sweep of the log-kernel over `n` contiguous summands:
///
///   acc[i] = fma((x_d − col[i])², neg_inv_two_var[i], acc[i] + log_norm[i])
///
/// Pure elementwise streaming math (no branches, no cross-iteration
/// dependency). The rounding sequence is pinned with an explicit std::fma
/// — sub, mul, add, fused multiply-add, each rounding once per element —
/// so the AVX2/AVX-512 kernels in kde/simd_sweep.cc, which issue the very
/// same per-lane operations, produce bit-identical accumulators at every
/// lane width (DESIGN.md §4k). This is the portable reference every
/// vector path is tested against. Running it dimension-by-dimension
/// accumulates each summand's log-terms in the same order as the old
/// row-major loop.
inline void SweepLogKernel(double x_d, const double* col,
                           const double* neg_inv_two_var,
                           const double* log_norm, double* acc, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double delta = x_d - col[i];
    acc[i] = std::fma(delta * delta, neg_inv_two_var[i], acc[i] + log_norm[i]);
  }
}

}  // namespace udm::kde_internal

#endif  // UDM_KDE_KERNEL_TABLE_H_
