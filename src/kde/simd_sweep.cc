#include "kde/simd_sweep.h"

#include <algorithm>
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

void ExpAccumScalar(const double* terms, size_t n, size_t /*offset*/,
                    double max_term, double shift, double gap,
                    ExpSumState& state) {
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
// The vector exp, one algorithm at both vector levels:
//   k = round(x·8·log2e), to nearest even;
//   r = x − k·ln2_hi/8 − k·ln2_lo/8 (Cody–Waite; ln2_hi carries 20
//       trailing zero bits, so k·ln2_hi is exact), |r| ≤ ln2/16;
//   write k = 8e + j with j ∈ [1, 8], so e = floor((k − 1)/8);
//   T = 2^(j/8), correctly rounded, from an 8-entry table;
//   q = r + r²·(1/2! + r/3! + … + r⁶/8!), the degree-8 Taylor of e^r − 1
//       (truncation < 1.5e-18 relative on |r| ≤ ln2/16);
//   e^x = fma(T, q, T) · 2^e.
// Within 1 ulp of the correctly rounded exp on the finite range. Every
// fused step is an explicit FMA and no product feeds an add, so the bits
// do not depend on the compiler's contraction setting. Taking j ∈ [1, 8]
// rather than [0, 8) keeps e ∈ [−1022, 1023] over the whole unflushed
// range, so 2^e is one normal double even where the result nears
// DBL_MAX: AVX2 builds it in the exponent field and AVX-512 applies it
// with vscalefpd, and both round the product once.
//
// Range: x ≥ 710 (or +inf) clamps to 710 and overflows to +inf, as
// std::exp does above ln(DBL_MAX) ≈ 709.7827; below that the result is
// finite. Inputs below −708 (−inf included) flush to +0: std::exp still
// returns a subnormal ≤ 3.3e-308 there, invisible under the 1e-12
// relative contract for any sum whose leading kept term is ≥ e^−671
// (log-space sums always lead with exp(0) = 1). NaN stays NaN.

inline constexpr double kExp8Log2e = 0x1.71547652b82fep+3;    // 8·log2(e)
inline constexpr double kExpLn2HiBy8 = 0x1.62e42fee00000p-4;  // ln2_hi/8
inline constexpr double kExpLn2LoBy8 = 0x1.a39ef35793c76p-36; // ln2_lo/8
inline constexpr double kExpRoundMagic = 0x1.8p+52;           // 1.5·2^52
inline constexpr double kExpScaleBias = 4503599627371519.0;   // 2^52 + 1023
inline constexpr double kExpClampHi = 710.0;
inline constexpr double kExpZeroBelow = -708.0;
// Taylor coefficients 1/k! for k = 2..8, spelled as divisions so both
// levels share the same correctly rounded doubles.
inline constexpr double kExpC8 = 1.0 / 40320.0;
inline constexpr double kExpC7 = 1.0 / 5040.0;
inline constexpr double kExpC6 = 1.0 / 720.0;
inline constexpr double kExpC5 = 1.0 / 120.0;
inline constexpr double kExpC4 = 1.0 / 24.0;
inline constexpr double kExpC3 = 1.0 / 6.0;
inline constexpr double kExpC2 = 1.0 / 2.0;
// 2^(j/8) for j = 1..8, correctly rounded; entry j − 1 holds 2^(j/8).
alignas(64) inline constexpr double kExp2Eighths[8] = {
    0x1.172b83c7d517bp+0, 0x1.306fe0a31b715p+0, 0x1.4bfdad5362a27p+0,
    0x1.6a09e667f3bcdp+0, 0x1.8ace5422aa0dbp+0, 0x1.ae89f995ad3adp+0,
    0x1.d5818dcfba487p+0, 0x1p+1};

// ---------------------------------------------------------------------------
// AVX2 + FMA level: 4 double lanes. The sweep's scalar tail reuses
// std::fma (the compiler emits the same vfmadd the lanes use).

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

// The table exp at 4 lanes (see the vector exp notes above). The lookup
// runs in registers: vpermps picks entry (k − 1) mod 4 of each half of
// the table and a blend on bit 2 of k − 1 picks the half.
__attribute__((target("avx2,fma"))) inline __m256d ExpPd256(__m256d x) {
  const __m256d zero_mask =
      _mm256_cmp_pd(x, _mm256_set1_pd(kExpZeroBelow), _CMP_LT_OQ);
  // min(hi, x) propagates NaN from x (the second operand wins on NaN).
  const __m256d xc = _mm256_min_pd(_mm256_set1_pd(kExpClampHi), x);
  const __m256d k =
      _mm256_round_pd(_mm256_mul_pd(xc, _mm256_set1_pd(kExp8Log2e)),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d r1 = _mm256_fnmadd_pd(k, _mm256_set1_pd(kExpLn2HiBy8), xc);
  const __m256d r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kExpLn2LoBy8), r1);
  __m256d s = _mm256_set1_pd(kExpC8);
  s = _mm256_fmadd_pd(s, r, _mm256_set1_pd(kExpC7));
  s = _mm256_fmadd_pd(s, r, _mm256_set1_pd(kExpC6));
  s = _mm256_fmadd_pd(s, r, _mm256_set1_pd(kExpC5));
  s = _mm256_fmadd_pd(s, r, _mm256_set1_pd(kExpC4));
  s = _mm256_fmadd_pd(s, r, _mm256_set1_pd(kExpC3));
  s = _mm256_fmadd_pd(s, r, _mm256_set1_pd(kExpC2));
  const __m256d q = _mm256_fmadd_pd(s, _mm256_mul_pd(r, r), r);
  // 2k + 1.5·2^52 − 2 is exact, so the low dword of each lane holds
  // 2(k − 1) mod 2^32: dwords (2(k − 1), 2(k − 1) + 1) select double
  // (k − 1) mod 4 of a half, and bit 3 (k − 1's bit 2) moves to the sign
  // for the blend.
  const __m256i k2 = _mm256_castpd_si256(_mm256_add_pd(
      _mm256_add_pd(k, k), _mm256_set1_pd(kExpRoundMagic - 2.0)));
  const __m256i idx = _mm256_add_epi32(_mm256_shuffle_epi32(k2, 0xA0),
                                       _mm256_set_epi32(1, 0, 1, 0, 1, 0, 1, 0));
  const __m256d lo = _mm256_castps_pd(_mm256_permutevar8x32_ps(
      _mm256_castpd_ps(_mm256_load_pd(kExp2Eighths)), idx));
  const __m256d hi = _mm256_castps_pd(_mm256_permutevar8x32_ps(
      _mm256_castpd_ps(_mm256_load_pd(kExp2Eighths + 4)), idx));
  const __m256d t = _mm256_blendv_pd(
      lo, hi, _mm256_castsi256_pd(_mm256_slli_epi64(k2, 60)));
  const __m256d p = _mm256_fmadd_pd(t, q, t);
  // e = floor((k − 1)/8) ∈ [−1022, 1023]; 2^e is built in the exponent
  // field (exact: e + 2^52 + 1023 is an integer below 2^53).
  const __m256d e = _mm256_round_pd(
      _mm256_fmadd_pd(k, _mm256_set1_pd(0.125), _mm256_set1_pd(-0.125)),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_castpd_si256(_mm256_add_pd(e, _mm256_set1_pd(kExpScaleBias))),
      52));
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

// Folds four lanes of one stripe group into `acc`: the lanes marked in
// `valid` (all of them when kFull) hold terms, the rest are padding.
// Prune where max − term > gap; NaN terms compare false and are kept,
// matching the scalar test exactly. Pruned and padding lanes add +0.0.
template <bool kFull>
__attribute__((target("avx2,fma"), always_inline)) inline void FoldAvx2(
    __m256d vterm, __m256d valid, __m256d vmax, __m256d vshift, __m256d vgap,
    __m256d& acc, uint64_t& pruned) {
  __m256d prune = _mm256_cmp_pd(_mm256_sub_pd(vmax, vterm), vgap, _CMP_GT_OQ);
  __m256d exps = _mm256_andnot_pd(prune, ExpPd256(_mm256_sub_pd(vterm, vshift)));
  if (!kFull) {
    prune = _mm256_and_pd(prune, valid);
    exps = _mm256_and_pd(exps, valid);
  }
  acc = _mm256_add_pd(acc, exps);
  pruned += static_cast<uint64_t>(__builtin_popcount(_mm256_movemask_pd(prune)));
}

// Folds a ragged group: run[0, len) are the terms of stripes first,
// first + 1, …, copied into a zeroed 8-slot buffer at those positions.
__attribute__((target("avx2,fma"))) void FoldPartialAvx2(
    const double* run, size_t first, size_t len, __m256d vmax, __m256d vshift,
    __m256d vgap, __m256d& acc_lo, __m256d& acc_hi, uint64_t& pruned) {
  alignas(32) double buf[kExpSumStripes] = {};
  alignas(32) int64_t valid[kExpSumStripes] = {};
  for (size_t s = 0; s < len; ++s) {
    buf[first + s] = run[s];
    valid[first + s] = -1;
  }
  const auto* valid_vec = reinterpret_cast<const __m256i*>(valid);
  FoldAvx2<false>(_mm256_load_pd(buf),
                  _mm256_castsi256_pd(_mm256_load_si256(valid_vec)), vmax,
                  vshift, vgap, acc_lo, pruned);
  FoldAvx2<false>(_mm256_load_pd(buf + 4),
                  _mm256_castsi256_pd(_mm256_load_si256(valid_vec + 1)), vmax,
                  vshift, vgap, acc_hi, pruned);
}

// Stripes 0–3 live in one accumulator and 4–7 in the other. A ragged
// head or tail goes through a zeroed 8-slot buffer at its stripe
// positions, so every term runs through the same vector exp.
__attribute__((target("avx2,fma"))) void ExpAccumAvx2(
    const double* terms, size_t n, size_t offset, double max_term,
    double shift, double gap, ExpSumState& state) {
  const __m256d vmax = _mm256_set1_pd(max_term);
  const __m256d vshift = _mm256_set1_pd(shift);
  const __m256d vgap = _mm256_set1_pd(gap);
  __m256d acc_lo = _mm256_load_pd(state.stripes);
  __m256d acc_hi = _mm256_load_pd(state.stripes + 4);
  uint64_t pruned = 0;
  size_t i = 0;
  const size_t phase = offset % kExpSumStripes;
  if (phase != 0 && n != 0) {
    i = std::min(n, kExpSumStripes - phase);
    FoldPartialAvx2(terms, phase, i, vmax, vshift, vgap, acc_lo, acc_hi,
                    pruned);
  }
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  for (; i + kExpSumStripes <= n; i += kExpSumStripes) {
    FoldAvx2<true>(_mm256_loadu_pd(terms + i), all, vmax, vshift, vgap,
                   acc_lo, pruned);
    FoldAvx2<true>(_mm256_loadu_pd(terms + i + 4), all, vmax, vshift, vgap,
                   acc_hi, pruned);
  }
  if (i < n) {
    FoldPartialAvx2(terms + i, 0, n - i, vmax, vshift, vgap, acc_lo, acc_hi,
                    pruned);
  }
  _mm256_store_pd(state.stripes, acc_lo);
  _mm256_store_pd(state.stripes + 4, acc_hi);
  state.pruned += pruned;
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

// The table exp at 8 lanes (see the vector exp notes above): one vpermpd
// looks up 2^(j/8) and vscalefpd applies 2^floor((k − 1)/8).
__attribute__((target("avx512f,avx512dq"))) inline __m512d ExpPd512(
    __m512d x) {
  const __mmask8 zero_mask =
      _mm512_cmp_pd_mask(x, _mm512_set1_pd(kExpZeroBelow), _CMP_LT_OQ);
  const __m512d xc = _mm512_min_pd(_mm512_set1_pd(kExpClampHi), x);
  const __m512d k =
      _mm512_roundscale_pd(_mm512_mul_pd(xc, _mm512_set1_pd(kExp8Log2e)),
                           _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m512d r1 = _mm512_fnmadd_pd(k, _mm512_set1_pd(kExpLn2HiBy8), xc);
  const __m512d r = _mm512_fnmadd_pd(k, _mm512_set1_pd(kExpLn2LoBy8), r1);
  __m512d s = _mm512_set1_pd(kExpC8);
  s = _mm512_fmadd_pd(s, r, _mm512_set1_pd(kExpC7));
  s = _mm512_fmadd_pd(s, r, _mm512_set1_pd(kExpC6));
  s = _mm512_fmadd_pd(s, r, _mm512_set1_pd(kExpC5));
  s = _mm512_fmadd_pd(s, r, _mm512_set1_pd(kExpC4));
  s = _mm512_fmadd_pd(s, r, _mm512_set1_pd(kExpC3));
  s = _mm512_fmadd_pd(s, r, _mm512_set1_pd(kExpC2));
  const __m512d q = _mm512_fmadd_pd(s, _mm512_mul_pd(r, r), r);
  // k + 1.5·2^52 − 1 is exact and leaves k − 1 mod 2^51 in the low
  // mantissa bits; vpermpd reads the low three.
  const __m512i j = _mm512_castpd_si512(
      _mm512_add_pd(k, _mm512_set1_pd(kExpRoundMagic - 1.0)));
  const __m512d t = _mm512_permutexvar_pd(j, _mm512_load_pd(kExp2Eighths));
  const __m512d p = _mm512_fmadd_pd(t, q, t);
  // vscalefpd floors its exponent operand, (k − 1)/8 (exact).
  return _mm512_maskz_scalef_pd(
      static_cast<__mmask8>(~zero_mask), p,
      _mm512_fmadd_pd(k, _mm512_set1_pd(0.125), _mm512_set1_pd(-0.125)));
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

// Folds one stripe group into `acc`: lane l is stripe l, and only the
// lanes marked in `valid` hold terms. Pruned and padding lanes keep their
// stripe as is, the same bits as adding +0.0 (see FoldAvx2).
__attribute__((target("avx512f,avx512dq"), always_inline)) inline void
FoldAvx512(__m512d vterm, __mmask8 valid, __m512d vmax, __m512d vshift,
           __m512d vgap, __m512d& acc, uint64_t& pruned) {
  const __mmask8 prune = _mm512_mask_cmp_pd_mask(
      valid, _mm512_sub_pd(vmax, vterm), vgap, _CMP_GT_OQ);
  acc = _mm512_mask_add_pd(acc, static_cast<__mmask8>(valid & ~prune), acc,
                           ExpPd512(_mm512_sub_pd(vterm, vshift)));
  pruned += static_cast<uint64_t>(
      __builtin_popcount(static_cast<unsigned>(prune)));
}

// One accumulator holds all eight stripes. The ragged head expand-loads
// its terms into the lanes of their stripes; the tail is a masked load.
__attribute__((target("avx512f,avx512dq"))) void ExpAccumAvx512(
    const double* terms, size_t n, size_t offset, double max_term,
    double shift, double gap, ExpSumState& state) {
  const __m512d vmax = _mm512_set1_pd(max_term);
  const __m512d vshift = _mm512_set1_pd(shift);
  const __m512d vgap = _mm512_set1_pd(gap);
  __m512d acc = _mm512_load_pd(state.stripes);
  uint64_t pruned = 0;
  size_t i = 0;
  const size_t phase = offset % kExpSumStripes;
  if (phase != 0 && n != 0) {
    i = std::min(n, kExpSumStripes - phase);
    const auto head = static_cast<__mmask8>(((1u << i) - 1u) << phase);
    FoldAvx512(_mm512_maskz_expandloadu_pd(head, terms), head, vmax, vshift,
               vgap, acc, pruned);
  }
  for (; i + kExpSumStripes <= n; i += kExpSumStripes) {
    FoldAvx512(_mm512_loadu_pd(terms + i), 0xFF, vmax, vshift, vgap, acc,
               pruned);
  }
  if (i < n) {
    const auto tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    FoldAvx512(_mm512_maskz_loadu_pd(tail, terms + i), tail, vmax, vshift,
               vgap, acc, pruned);
  }
  _mm512_store_pd(state.stripes, acc);
  state.pruned += pruned;
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
