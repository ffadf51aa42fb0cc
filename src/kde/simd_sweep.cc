#include "kde/simd_sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "kde/kernel_table.h"
#include "kde/poly_exp.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UDM_SIMD_X86 1
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
// GCC's _mm512_undefined_pd()/_mm512_undefined_epi32() are implemented as
// deliberately-uninitialized self-initialized locals, which trips
// -Wmaybe-uninitialized (GCC PR 105593) when the min/slli intrinsics
// inline into our target("avx512f,...") functions, and -Wuninitialized
// for the max intrinsic. Nothing here reads truly uninitialized data.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#else
#define UDM_SIMD_X86 0
#endif

namespace udm::kde_internal {
namespace {

// ---------------------------------------------------------------------------
// Scalar level: the reference. The sweep is the kernel_table.h inline;
// the exp-and-sum is the compensated two-pass sum with the shift
// generalized (max_term for log space, 0.0 for linear — note t − 0.0 ≡ t
// bitwise, including −0.0).

void SweepScalar(double x_d, const double* col, const double* neg_inv_two_var,
                 const double* log_norm, double* acc, size_t n) {
  SweepLogKernel(x_d, col, neg_inv_two_var, log_norm, acc, n);
}

void ExpAccumScalar(const double* terms, size_t n, double max_term,
                    double shift, double gap, ExpSumState& state) {
  for (size_t i = 0; i < n; ++i) {
    if (max_term - terms[i] > gap) {
      ++state.pruned;
      continue;
    }
    state.AddCompensated(std::exp(terms[i] - shift));
  }
}

double MaxTermScalar(const double* terms, size_t n, double init) {
  double m = init;
  for (size_t i = 0; i < n; ++i) m = std::max(m, terms[i]);
  return m;
}

}  // namespace

#if UDM_SIMD_X86

namespace {

// ---------------------------------------------------------------------------
// AVX2 + FMA level: 4 double lanes. Scalar tails reuse std::fma (the
// compiler emits the same vfmadd the lanes use) and SimdPolyExpFma.

// Lane-parallel maxima equal the in-order fold in value (NaN terms lose
// every select, so each lane holds the max of init and its non-NaN
// terms); only the sign of a zero maximum depends on which zero the fold
// met first. `m` is the lane-parallel result.
double FirstZeroIfZero(double m, const double* terms, size_t n,
                       double init) {
  if (m != 0.0) return m;
  if (init == 0.0) return init;
  for (size_t i = 0; i < n; ++i) {
    if (terms[i] == 0.0) return terms[i];
  }
  return m;
}

__attribute__((target("avx2,fma"))) inline __m256d ExpPd256(__m256d x) {
  const __m256d zero_mask =
      _mm256_cmp_pd(x, _mm256_set1_pd(kExpZeroBelow), _CMP_LT_OQ);
  // min(hi, x) propagates NaN from x (the second operand wins on NaN).
  const __m256d xc = _mm256_min_pd(_mm256_set1_pd(kExpClampHi), x);
  const __m256d magic = _mm256_set1_pd(kExpRoundMagic);
  const __m256d m = _mm256_mul_pd(xc, _mm256_set1_pd(kExpLog2e));
  const __m256d k = _mm256_sub_pd(_mm256_add_pd(m, magic), magic);
  const __m256d r1 = _mm256_fnmadd_pd(k, _mm256_set1_pd(kExpLn2Hi), xc);
  const __m256d r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kExpLn2Lo), r1);
  __m256d q = _mm256_set1_pd(kExpC13);
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(kExpC12));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(kExpC11));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(kExpC10));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(kExpC9));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(kExpC8));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(kExpC7));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(kExpC6));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(kExpC5));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(kExpC4));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(kExpC3));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(kExpC2));
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d v = _mm256_fmadd_pd(q, r2, r);
  const __m256d p = _mm256_add_pd(v, _mm256_set1_pd(1.0));
  const __m256d u = _mm256_add_pd(k, _mm256_set1_pd(kExpScaleBias));
  const __m256d scale = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_castpd_si256(u), 52));
  return _mm256_andnot_pd(zero_mask, _mm256_mul_pd(p, scale));
}

__attribute__((target("avx2,fma"))) void SweepAvx2(double x_d,
                                                   const double* col,
                                                   const double* neg_inv_two_var,
                                                   const double* log_norm,
                                                   double* acc, size_t n) {
  const __m256d vx = _mm256_set1_pd(x_d);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(vx, _mm256_loadu_pd(col + i));
    const __m256d base =
        _mm256_add_pd(_mm256_loadu_pd(acc + i), _mm256_loadu_pd(log_norm + i));
    const __m256d res = _mm256_fmadd_pd(
        _mm256_mul_pd(d, d), _mm256_loadu_pd(neg_inv_two_var + i), base);
    _mm256_storeu_pd(acc + i, res);
  }
  for (; i < n; ++i) {  // identical per-element fma sequence
    const double delta = x_d - col[i];
    acc[i] =
        std::fma(delta * delta, neg_inv_two_var[i], acc[i] + log_norm[i]);
  }
}

__attribute__((target("avx2,fma"))) void ExpAccumAvx2(const double* terms,
                                                      size_t n,
                                                      double max_term,
                                                      double shift, double gap,
                                                      ExpSumState& state) {
  const __m256d vmax = _mm256_set1_pd(max_term);
  const __m256d vshift = _mm256_set1_pd(shift);
  const __m256d vgap = _mm256_set1_pd(gap);
  alignas(32) double exps[4];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vterm = _mm256_loadu_pd(terms + i);
    // Prune where max − term > gap; NaN terms compare false and are kept,
    // matching the scalar test exactly.
    const __m256d prune =
        _mm256_cmp_pd(_mm256_sub_pd(vmax, vterm), vgap, _CMP_GT_OQ);
    // Zero the pruned lanes and drain in term order without branching:
    // a +0.0 add is a bitwise no-op on the non-negative running sum, so
    // the fold stays identical to skipping — the bit-stability anchor
    // across index modes and range splits.
    _mm256_store_pd(
        exps, _mm256_andnot_pd(prune, ExpPd256(_mm256_sub_pd(vterm, vshift))));
    state.pruned +=
        static_cast<uint64_t>(__builtin_popcount(_mm256_movemask_pd(prune)));
    state.AddPlain(exps[0]);
    state.AddPlain(exps[1]);
    state.AddPlain(exps[2]);
    state.AddPlain(exps[3]);
  }
  for (; i < n; ++i) {
    if (max_term - terms[i] > gap) {
      ++state.pruned;
      continue;
    }
    state.AddPlain(SimdPolyExpFma(terms[i] - shift));
  }
}

// max_pd(t, m) is (t > m) ? t : m, the scalar fold's select. Two
// accumulators hide the max latency; the fold over lanes is exact in
// value, so their order does not matter.
__attribute__((target("avx2,fma"))) double MaxTermAvx2(const double* terms,
                                                      size_t n, double init) {
  __m256d m0 = _mm256_set1_pd(init);
  __m256d m1 = m0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    m0 = _mm256_max_pd(_mm256_loadu_pd(terms + i), m0);
    m1 = _mm256_max_pd(_mm256_loadu_pd(terms + i + 4), m1);
  }
  if (i + 4 <= n) {
    m0 = _mm256_max_pd(_mm256_loadu_pd(terms + i), m0);
    i += 4;
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_max_pd(m1, m0));
  double m = init;
  for (const double lane : lanes) m = std::max(m, lane);
  for (; i < n; ++i) m = std::max(m, terms[i]);
  return FirstZeroIfZero(m, terms, n, init);
}

// ---------------------------------------------------------------------------
// AVX-512 level: 8 double lanes, masked tail for the sweeps (the masked
// lanes issue the same sub/mul/add/fma sequence per element, so the tail
// stays bit-identical to the scalar reference).

__attribute__((target("avx512f,avx512dq"))) inline __m512d ExpPd512(
    __m512d x) {
  const __mmask8 zero_mask =
      _mm512_cmp_pd_mask(x, _mm512_set1_pd(kExpZeroBelow), _CMP_LT_OQ);
  const __m512d xc = _mm512_min_pd(_mm512_set1_pd(kExpClampHi), x);
  const __m512d magic = _mm512_set1_pd(kExpRoundMagic);
  const __m512d m = _mm512_mul_pd(xc, _mm512_set1_pd(kExpLog2e));
  const __m512d k = _mm512_sub_pd(_mm512_add_pd(m, magic), magic);
  const __m512d r1 = _mm512_fnmadd_pd(k, _mm512_set1_pd(kExpLn2Hi), xc);
  const __m512d r = _mm512_fnmadd_pd(k, _mm512_set1_pd(kExpLn2Lo), r1);
  __m512d q = _mm512_set1_pd(kExpC13);
  q = _mm512_fmadd_pd(q, r, _mm512_set1_pd(kExpC12));
  q = _mm512_fmadd_pd(q, r, _mm512_set1_pd(kExpC11));
  q = _mm512_fmadd_pd(q, r, _mm512_set1_pd(kExpC10));
  q = _mm512_fmadd_pd(q, r, _mm512_set1_pd(kExpC9));
  q = _mm512_fmadd_pd(q, r, _mm512_set1_pd(kExpC8));
  q = _mm512_fmadd_pd(q, r, _mm512_set1_pd(kExpC7));
  q = _mm512_fmadd_pd(q, r, _mm512_set1_pd(kExpC6));
  q = _mm512_fmadd_pd(q, r, _mm512_set1_pd(kExpC5));
  q = _mm512_fmadd_pd(q, r, _mm512_set1_pd(kExpC4));
  q = _mm512_fmadd_pd(q, r, _mm512_set1_pd(kExpC3));
  q = _mm512_fmadd_pd(q, r, _mm512_set1_pd(kExpC2));
  const __m512d r2 = _mm512_mul_pd(r, r);
  const __m512d v = _mm512_fmadd_pd(q, r2, r);
  const __m512d p = _mm512_add_pd(v, _mm512_set1_pd(1.0));
  const __m512d u = _mm512_add_pd(k, _mm512_set1_pd(kExpScaleBias));
  const __m512d scale = _mm512_castsi512_pd(
      _mm512_slli_epi64(_mm512_castpd_si512(u), 52));
  return _mm512_maskz_mov_pd(~zero_mask, _mm512_mul_pd(p, scale));
}

__attribute__((target("avx512f,avx512dq"))) void SweepAvx512(
    double x_d, const double* col, const double* neg_inv_two_var,
    const double* log_norm, double* acc, size_t n) {
  const __m512d vx = _mm512_set1_pd(x_d);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d d = _mm512_sub_pd(vx, _mm512_loadu_pd(col + i));
    const __m512d base =
        _mm512_add_pd(_mm512_loadu_pd(acc + i), _mm512_loadu_pd(log_norm + i));
    const __m512d res = _mm512_fmadd_pd(
        _mm512_mul_pd(d, d), _mm512_loadu_pd(neg_inv_two_var + i), base);
    _mm512_storeu_pd(acc + i, res);
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512d d =
        _mm512_sub_pd(vx, _mm512_maskz_loadu_pd(tail, col + i));
    const __m512d base = _mm512_add_pd(_mm512_maskz_loadu_pd(tail, acc + i),
                                       _mm512_maskz_loadu_pd(tail, log_norm + i));
    const __m512d res = _mm512_fmadd_pd(
        _mm512_mul_pd(d, d), _mm512_maskz_loadu_pd(tail, neg_inv_two_var + i),
        base);
    _mm512_mask_storeu_pd(acc + i, tail, res);
  }
}

__attribute__((target("avx512f,avx512dq"))) void ExpAccumAvx512(
    const double* terms, size_t n, double max_term, double shift, double gap,
    ExpSumState& state) {
  const __m512d vmax = _mm512_set1_pd(max_term);
  const __m512d vshift = _mm512_set1_pd(shift);
  const __m512d vgap = _mm512_set1_pd(gap);
  alignas(64) double exps[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d vterm = _mm512_loadu_pd(terms + i);
    const __mmask8 prune =
        _mm512_cmp_pd_mask(_mm512_sub_pd(vmax, vterm), vgap, _CMP_GT_OQ);
    // Branchless drain: pruned lanes are zeroed, and a +0.0 add is a
    // bitwise no-op on the non-negative running sum (see ExpAccumAvx2).
    _mm512_store_pd(exps, _mm512_maskz_mov_pd(
                              static_cast<__mmask8>(~prune),
                              ExpPd512(_mm512_sub_pd(vterm, vshift))));
    state.pruned += static_cast<uint64_t>(
        __builtin_popcount(static_cast<unsigned>(prune)));
    state.AddPlain(exps[0]);
    state.AddPlain(exps[1]);
    state.AddPlain(exps[2]);
    state.AddPlain(exps[3]);
    state.AddPlain(exps[4]);
    state.AddPlain(exps[5]);
    state.AddPlain(exps[6]);
    state.AddPlain(exps[7]);
  }
  for (; i < n; ++i) {
    if (max_term - terms[i] > gap) {
      ++state.pruned;
      continue;
    }
    state.AddPlain(SimdPolyExpFma(terms[i] - shift));
  }
}

__attribute__((target("avx512f,avx512dq"))) double MaxTermAvx512(
    const double* terms, size_t n, double init) {
  const __m512d vinit = _mm512_set1_pd(init);
  __m512d m0 = vinit;
  __m512d m1 = vinit;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    m0 = _mm512_max_pd(_mm512_loadu_pd(terms + i), m0);
    m1 = _mm512_max_pd(_mm512_loadu_pd(terms + i + 8), m1);
  }
  // Ragged rest: masked-off lanes take init, a no-op in the fold.
  for (; i < n; i += 8) {
    const size_t len = std::min<size_t>(n - i, 8);
    const __mmask8 mask = static_cast<__mmask8>((1u << len) - 1u);
    m0 = _mm512_max_pd(_mm512_mask_loadu_pd(vinit, mask, terms + i), m0);
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, _mm512_max_pd(m1, m0));
  double m = init;
  for (const double lane : lanes) m = std::max(m, lane);
  return FirstZeroIfZero(m, terms, n, init);
}

}  // namespace

#endif  // UDM_SIMD_X86

const SimdDispatch& GetSimdDispatch(SimdLevel level) {
  static const SimdDispatch kScalarTable{SimdLevel::kScalar, &SweepScalar,
                                         &ExpAccumScalar, &MaxTermScalar};
#if UDM_SIMD_X86
  static const SimdDispatch kAvx2Table{SimdLevel::kAvx2, &SweepAvx2,
                                       &ExpAccumAvx2, &MaxTermAvx2};
  static const SimdDispatch kAvx512Table{SimdLevel::kAvx512, &SweepAvx512,
                                         &ExpAccumAvx512, &MaxTermAvx512};
  switch (level) {
    case SimdLevel::kAvx512:
      return kAvx512Table;
    case SimdLevel::kAvx2:
      return kAvx2Table;
    case SimdLevel::kScalar:
      return kScalarTable;
  }
#endif
  (void)level;
  return kScalarTable;
}

const SimdDispatch& ProcessSimdDispatch() {
  static const SimdDispatch& dispatch = GetSimdDispatch(ProcessSimdLevel());
  return dispatch;
}

}  // namespace udm::kde_internal
