#ifndef UDM_KDE_SIMD_SWEEP_H_
#define UDM_KDE_SIMD_SWEEP_H_

/// Runtime-dispatched SIMD kernels for the density hot path (DESIGN.md
/// §4k): explicit AVX2/AVX-512 variants of the column-major log-kernel
/// sweeps and a vectorized exp-and-sum pass with the pruning-gap mask
/// folded into the vector compare. The dispatch table is a plain struct
/// of function pointers resolved once (per process from CPUID/UDM_SIMD,
/// or per model from DensityEvalOptions::simd); all variants are compiled
/// into every binary with GCC target attributes, so no -march flag is
/// ever required for correctness — `relwithdebinfo-native` stays a pure
/// optimization preset.
///
/// Determinism contract:
///  - The sweeps are bit-identical across every dispatch level: scalar
///    and vector paths issue the same per-element rounding sequence
///    (sub, mul, add, fma — see SweepLogKernel in kernel_table.h).
///  - The exp-and-sum pass is bit-identical across index modes, thread
///    widths, and range splits *at a given level*: every term, ragged
///    head and tail included, runs through the same vector exp, and each
///    of the eight stripe sums folds its terms in term order (see
///    ExpSumState). AVX2 and AVX-512 run one exp algorithm and one
///    stripe layout, so they return the same bits as each other. Across
///    levels the result is within 1e-12 relative of the scalar std::exp
///    path (the table exp is within 1 ulp per term). Pruned-term counts
///    are exactly identical at every level: the gap test compares the
///    exact pass-1 term values, never the approximated exps.
///  - The running term maximum is bit-identical across every level (see
///    MaxTermFn).
///
/// The whole library is compiled with -ffp-contract=off (src/CMakeLists.txt),
/// and the vector exp has no multiply feeding an add in any case: every
/// fused step is an explicit FMA, so no compiler flag (-march included)
/// changes its bits.

#include <cstddef>
#include <cstdint>

#include "common/math_util.h"
#include "common/simd.h"

namespace udm::kde_internal {

/// Stripes of the vector exp-and-sum: one partial sum per residue of a
/// term's global index mod 8, the AVX-512 vector width.
inline constexpr size_t kExpSumStripes = 8;

/// Resumable state for a pruned exp-and-sum: one instance accumulates
/// across any partition of the term array into subranges (the spatial
/// index feeds per-cell runs, the dense path one full-array run) and
/// yields identical bits either way at a given dispatch level.
///
/// Two accumulation flavors share the state, one per dispatch family; a
/// state is only ever fed through one level, never a mix.
///  - The scalar reference path runs one compensated (Kahan) fold in term
///    order in stripes[0] — exactly the KahanSum the pre-SIMD pruned sums
///    ran. The other stripes stay +0.0, so Total() returns stripes[0].
///  - The vector paths add the term with global index g into stripes[g mod
///    8], each stripe a plain fold in term order, so a vector of exps adds
///    into the stripes in one instruction. A pruned or padding lane adds
///    an exact +0.0, a bitwise no-op on a non-negative sum, so which run a
///    term arrives in never matters: the stripes are bit-stable under any
///    range split. The plain folds of N positive terms carry at most
///    N·eps ≈ 4e-13 relative error at N = 4096, inside the 1e-12
///    cross-level contract.
struct ExpSumState {
  alignas(64) double stripes[kExpSumStripes] = {};
  double compensation = 0.0;
  uint64_t pruned = 0;

  /// Kahan update of stripes[0] (the scalar reference path).
  void AddCompensated(double x) {
    const double y = x - compensation;
    const double t = stripes[0] + y;
    compensation = (t - stripes[0]) - y;
    stripes[0] = t;
  }

  /// The stripes reduced in one fixed pairwise tree.
  double Total() const {
    const double* s = stripes;
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
  }
};

/// SweepLogKernel with per-element tables (see kernel_table.h).
using SweepKernelFn = void (*)(double x_d, const double* col,
                               const double* neg_inv_two_var,
                               const double* log_norm, double* acc, size_t n);

/// Pruned exp-and-sum over `terms[0, n)`, a run that starts at global
/// term index `offset` (0 for a whole array, the first position of a
/// cell run for the spatial index): for every term with max_term − term
/// ≤ gap, adds exp(term − shift) to the state (see ExpSumState for the
/// order); every other term increments state.pruned. `shift` is max_term
/// for the log-space path and 0.0 for the linear path; the scalar level
/// is the compensated two-pass log-sum-exp (or linear sum) reference.
using PrunedExpAccumFn = void (*)(const double* terms, size_t n,
                                  size_t offset, double max_term,
                                  double shift, double gap,
                                  ExpSumState& state);

/// The running maximum of `terms[0, n)` seeded with `init`: the in-order
/// fold m = (m < t) ? t : m, i.e. std::max(m, t), bit for bit at every
/// level — a NaN term never replaces m, and among zeros of either sign
/// the first one in fold order (init first) is kept. The vector levels
/// step each lane as max_pd(t, m), which is that same select, and
/// resolve the sign of a zero maximum by a scan for the first zero.
using MaxTermFn = double (*)(const double* terms, size_t n, double init);

/// One resolved dispatch level: the hot-path entry points plus the level
/// they implement (reported through EvalStats/serve/bench).
struct SimdDispatch {
  SimdLevel level = SimdLevel::kScalar;
  SweepKernelFn sweep = nullptr;
  PrunedExpAccumFn pruned_exp_accum = nullptr;
  MaxTermFn max_term = nullptr;
};

/// The dispatch table for `level`. Levels the host cannot execute must
/// not be requested here — resolve through ResolveSimdRequest first.
const SimdDispatch& GetSimdDispatch(SimdLevel level);

/// The process-default dispatch (ProcessSimdLevel(): UDM_SIMD else CPUID).
const SimdDispatch& ProcessSimdDispatch();

}  // namespace udm::kde_internal

#endif  // UDM_KDE_SIMD_SWEEP_H_
