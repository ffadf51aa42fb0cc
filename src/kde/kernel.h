#ifndef UDM_KDE_KERNEL_H_
#define UDM_KDE_KERNEL_H_

#include <cmath>

#include "common/math_util.h"

namespace udm {

/// Normalization convention for the paper's error-based kernel (Eq. 3).
///
/// Eq. 3 normalizes by (h + ψ), which is not the exact Gaussian normalizer
/// for the variance h² + ψ² used in its exponent (the two agree when either
/// h or ψ is zero, i.e. in both boundary cases the paper analyzes). kPaper
/// reproduces Eq. 3 verbatim; kExact uses sqrt(h² + ψ²) so the kernel is a
/// proper probability density. DESIGN.md §2.1 discusses the discrepancy;
/// bench/ablation_normalization quantifies its (small) effect.
enum class KernelNormalization {
  kPaper,
  kExact,
};

/// The one-dimensional error-based kernel Q'_h(x - X_i, ψ) of Eq. 3:
///
///   Q'(δ, ψ) = 1/(√(2π)·s) · exp(−δ² / (2·(h² + ψ²)))
///
/// with s = h + ψ (kPaper) or s = √(h² + ψ²) (kExact). Requires h > 0 and
/// ψ >= 0. With ψ = 0 this reduces exactly to the Gaussian kernel of Eq. 2,
/// K_h(δ) = φ(δ/h)/h, under either normalization — which is how the plain
/// KDE comparator is expressed (ErrorKernelDensity with a zero error model).
inline double ErrorKernelValue(double x_minus_xi, double h, double psi,
                               KernelNormalization normalization =
                                   KernelNormalization::kPaper) {
  const double var = h * h + psi * psi;
  const double scale = normalization == KernelNormalization::kPaper
                           ? h + psi
                           : std::sqrt(var);
  return std::exp(-(x_minus_xi * x_minus_xi) / (2.0 * var)) /
         (kSqrt2Pi * scale);
}

/// log Q'_h(x - X_i, ψ): the log of ErrorKernelValue, computed directly so
/// high-dimensional products can be accumulated without underflow.
inline double LogErrorKernelValue(double x_minus_xi, double h, double psi,
                                  KernelNormalization normalization =
                                      KernelNormalization::kPaper) {
  const double var = h * h + psi * psi;
  const double scale = normalization == KernelNormalization::kPaper
                           ? h + psi
                           : std::sqrt(var);
  return -(x_minus_xi * x_minus_xi) / (2.0 * var) - std::log(kSqrt2Pi * scale);
}

/// Query-independent pieces of LogErrorKernelValue, precomputed once per
/// (training point, dimension) at Fit time so the per-query inner loop is
/// a single FMA: log Q'(δ, ψ) = δ² · neg_inv_two_var + log_norm. The
/// factored form multiplies by 1/(2·var) where the direct form divides by
/// 2·var, so precomputed and direct evaluations agree to ~1 ulp per term
/// (well inside the 1e-12 golden-equivalence bound), not bit-for-bit.

/// −1/(2·(h² + ψ²)), the coefficient of δ² in the log-kernel.
inline double ErrorKernelNegInvTwoVar(double h, double psi) {
  return -1.0 / (2.0 * (h * h + psi * psi));
}

/// −log(√2π · s), the additive normalizer (s per the normalization).
inline double ErrorKernelLogNorm(double h, double psi,
                                 KernelNormalization normalization =
                                     KernelNormalization::kPaper) {
  const double scale = normalization == KernelNormalization::kPaper
                           ? h + psi
                           : std::sqrt(h * h + psi * psi);
  return -std::log(kSqrt2Pi * scale);
}

}  // namespace udm

#endif  // UDM_KDE_KERNEL_H_
