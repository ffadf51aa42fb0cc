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
///    widths, and range splits *at a given level* (the vector exp is
///    elementwise and the accumulation is a strict left-to-right fold in
///    term order; SimdPolyExp notes the k-rounding window where a lane
///    and the remainder can differ), and within 1e-12 relative of the
///    scalar std::exp path across levels (polynomial exp, ≤2 ulp per
///    term). Pruned-term counts are exactly identical at every level: the
///    gap test compares the exact pass-1 term values, never the
///    approximated exps.
///  - The running term maximum is bit-identical across every level (see
///    MaxTermFn).

#include <cstddef>
#include <cstdint>

#include "common/math_util.h"
#include "common/simd.h"

namespace udm::kde_internal {

/// Resumable state for a pruned exp-and-sum: one instance accumulates
/// across any partition of the term array into subranges (the spatial
/// index feeds per-cell runs, the dense path one full-array run) and
/// yields identical bits either way at a given dispatch level.
///
/// Two in-order accumulation flavors share the state, one per dispatch
/// family. The scalar reference path uses the compensated (Kahan) update
/// — exactly the KahanSum the pre-SIMD pruned sums ran. The vector paths
/// use the plain running sum: compensation costs 4 dependent FP ops per
/// term, a serial chain that would cap the drain below the vector exp's
/// throughput, while the plain fold of N positive exp terms carries at
/// most N·eps ≈ 4e-13 relative error at N = 4096 — comfortably inside
/// the 1e-12 cross-level contract. Both flavors are strict left-to-right
/// folds, so either is bit-stable under any range split; a state is only
/// ever fed through one dispatch level, never a mix.
struct ExpSumState {
  double sum = 0.0;
  double compensation = 0.0;
  uint64_t pruned = 0;

  /// Kahan update (the scalar reference path).
  void AddCompensated(double x) {
    const double y = x - compensation;
    const double t = sum + y;
    compensation = (t - sum) - y;
    sum = t;
  }

  /// Plain in-order update (the vector paths). Adding an exact +0.0 for a
  /// pruned lane is a bitwise no-op on the non-negative running sum, so
  /// the vector drains can zero pruned lanes instead of branching.
  void AddPlain(double x) { sum += x; }

  double Total() const { return sum; }
};

/// SweepLogKernel with per-element tables (see kernel_table.h).
using SweepKernelFn = void (*)(double x_d, const double* col,
                               const double* neg_inv_two_var,
                               const double* log_norm, double* acc, size_t n);

/// Pruned exp-and-sum over `terms[0, n)`: for every term with
/// max_term − term ≤ gap, adds exp(term − shift) to state.sum (strictly
/// in term order); every other term increments state.pruned. `shift` is
/// max_term for the log-space path and 0.0 for the linear path; the
/// scalar level is the compensated two-pass log-sum-exp (or linear sum)
/// reference.
using PrunedExpAccumFn = void (*)(const double* terms, size_t n,
                                  double max_term, double shift, double gap,
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

/// The elementwise polynomial exp of the vector paths for one scalar
/// input — the remainder handling of the vector exp-and-sum passes runs
/// the terms that do not fill a vector through it. Accuracy ≤2 ulp on
/// [−708, 710]; inputs below −708 flush to +0 (std::exp returns a
/// subnormal ≤ 3.3e-308 there — see DESIGN.md §4k for why this is
/// invisible under the 1e-12 contract).
///
/// It issues the same operations as a vector lane, but not the same
/// rounding sequence: at default flags GCC contracts the lanes' `m +
/// magic` rounding step (ExpPd256/ExpPd512) into an FMA, while this
/// function rounds the product and the add separately. Near a k-rounding
/// boundary a lane and this function can therefore pick different k, and
/// there a term's exp bits depend on whether it landed in a full vector
/// or in the remainder — so the split invariance promised above holds
/// exactly only for terms away from those boundaries (a window of about
/// one ulp of x·log2e around each half-integer). Making both sides round
/// alike is the ROADMAP floating-point-contract item.
///
/// Compiled in its own translation unit with -ffp-contract=off (so no
/// flag, -march included, can fuse the separately rounded steps) at the
/// baseline ISA, where std::fma is a libm call. This is the portable
/// reference.
double SimdPolyExp(double x);

/// SimdPolyExp's body compiled for FMA hardware, where each std::fma is
/// one instruction: bit-identical to SimdPolyExp (every fma rounds once
/// either way, and the contraction-free build keeps the rest). Callers
/// must run on an FMA-capable CPU; every vector dispatch level does.
double SimdPolyExpFma(double x);

}  // namespace udm::kde_internal

#endif  // UDM_KDE_SIMD_SWEEP_H_
