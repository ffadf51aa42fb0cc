#include "kde/simd_sweep.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "kde/kernel_table.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UDM_SIMD_X86 1
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
// GCC's _mm512_undefined_pd()/_mm512_undefined_epi32() are implemented as
// deliberately-uninitialized self-initialized locals, which trips
// -Wmaybe-uninitialized (GCC PR 105593) when the min/slli intrinsics
// inline into our target("avx512f,...") functions. Nothing here reads
// truly uninitialized data.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#else
#define UDM_SIMD_X86 0
#endif

namespace udm::kde_internal {
namespace {

// ---------------------------------------------------------------------------
// Shared exp constants. The polynomial exp is the same elementwise
// algorithm at every width — scalar (SimdPolyExp), 4 lanes (AVX2), 8
// lanes (AVX-512) — built from sub/mul/add/fma/min and a round-to-
// nearest-even via the 1.5·2^52 magic-number trick, all of which round
// per element. A term's exp therefore never depends on which lane (or
// the tail) it landed in, which is what makes the exp-and-sum pass
// bit-stable across index modes and range splits at a given level.
//
// Algorithm: k = round(x·log2e); Cody–Waite reduction r = x − k·ln2_hi −
// k·ln2_lo (ln2_hi carries 20 trailing zero bits, so k·ln2_hi is exact
// for |k| ≤ 2^20); e^r ≈ 1 + r + r²·P(r) with P the Taylor tail 1/2! +
// r/3! + … + r^11/13! (truncation < 5e-18 on |r| ≤ ln2/2); scale by 2^k
// through exponent-field construction. Total error ≤ 2 ulp per term.
//
// Range handling: inputs are clamped above at 710 (exp overflows to +inf
// exactly as std::exp does by 709.79) and flushed to +0 below −708 —
// std::exp still returns a subnormal down to −745, so the poly path
// differs there by at most 3.3e-308 absolute per term, invisible under
// the 1e-12 relative contract for any sum whose leading kept term is
// ≥ e^−671 (log-space sums always lead with exp(0) = 1).
inline constexpr double kExpLog2e = 0x1.71547652b82fep+0;   // log2(e)
inline constexpr double kExpLn2Hi = 0x1.62e42fee00000p-1;   // 20 low zeros
inline constexpr double kExpLn2Lo = 0x1.a39ef35793c76p-33;  // ln2 − ln2_hi
inline constexpr double kExpRoundMagic = 0x1.8p+52;         // 1.5·2^52
inline constexpr double kExpScaleBias = 4503599627371519.0;  // 2^52 + 1023
inline constexpr double kExpClampHi = 710.0;
inline constexpr double kExpZeroBelow = -708.0;
// Taylor tail coefficients 1/k! for k = 2..13, highest degree first.
// Spelled as divisions so the scalar and vector paths share the exact
// same correctly-rounded doubles.
inline constexpr double kExpC13 = 1.0 / 6227020800.0;
inline constexpr double kExpC12 = 1.0 / 479001600.0;
inline constexpr double kExpC11 = 1.0 / 39916800.0;
inline constexpr double kExpC10 = 1.0 / 3628800.0;
inline constexpr double kExpC9 = 1.0 / 362880.0;
inline constexpr double kExpC8 = 1.0 / 40320.0;
inline constexpr double kExpC7 = 1.0 / 5040.0;
inline constexpr double kExpC6 = 1.0 / 720.0;
inline constexpr double kExpC5 = 1.0 / 120.0;
inline constexpr double kExpC4 = 1.0 / 24.0;
inline constexpr double kExpC3 = 1.0 / 6.0;
inline constexpr double kExpC2 = 1.0 / 2.0;

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

}  // namespace

// Scalar lane of the vector exp; noinline keeps it compiled in the
// baseline ISA context even when called from the AVX2/AVX-512 tail
// loops, so no FMA contraction can sneak into the add/sub sequence and
// diverge it from what baseline-compiled callers (tests) compute.
__attribute__((noinline)) double SimdPolyExp(double x) {
  if (x < kExpZeroBelow) return 0.0;  // matches the vector flush mask
  const double xc = std::isnan(x) ? x : (x < kExpClampHi ? x : kExpClampHi);
  const double m = xc * kExpLog2e;
  const double k = (m + kExpRoundMagic) - kExpRoundMagic;  // nearest-even
  const double r1 = std::fma(k, -kExpLn2Hi, xc);
  const double r = std::fma(k, -kExpLn2Lo, r1);
  double q = kExpC13;
  q = std::fma(q, r, kExpC12);
  q = std::fma(q, r, kExpC11);
  q = std::fma(q, r, kExpC10);
  q = std::fma(q, r, kExpC9);
  q = std::fma(q, r, kExpC8);
  q = std::fma(q, r, kExpC7);
  q = std::fma(q, r, kExpC6);
  q = std::fma(q, r, kExpC5);
  q = std::fma(q, r, kExpC4);
  q = std::fma(q, r, kExpC3);
  q = std::fma(q, r, kExpC2);
  const double r2 = r * r;
  const double v = std::fma(q, r2, r);
  const double p = 1.0 + v;
  const double u = k + kExpScaleBias;  // exact: k + 1023 ∈ [2, 2047]
  const double scale =
      std::bit_cast<double>(std::bit_cast<uint64_t>(u) << 52);
  return p * scale;
}

#if UDM_SIMD_X86

namespace {

// ---------------------------------------------------------------------------
// AVX2 + FMA level: 4 double lanes. Scalar tails reuse std::fma (the
// compiler emits the same vfmadd the lanes use) and SimdPolyExp.

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
    state.AddPlain(SimdPolyExp(terms[i] - shift));
  }
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
    state.AddPlain(SimdPolyExp(terms[i] - shift));
  }
}

}  // namespace

#endif  // UDM_SIMD_X86

const SimdDispatch& GetSimdDispatch(SimdLevel level) {
  static const SimdDispatch kScalarTable{SimdLevel::kScalar, &SweepScalar,
                                         &ExpAccumScalar};
#if UDM_SIMD_X86
  static const SimdDispatch kAvx2Table{SimdLevel::kAvx2, &SweepAvx2,
                                       &ExpAccumAvx2};
  static const SimdDispatch kAvx512Table{SimdLevel::kAvx512, &SweepAvx512,
                                         &ExpAccumAvx512};
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
