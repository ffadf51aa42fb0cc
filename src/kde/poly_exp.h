#ifndef UDM_KDE_POLY_EXP_H_
#define UDM_KDE_POLY_EXP_H_

/// Constants of the polynomial exp shared by its scalar form
/// (kde/poly_exp.cc) and its AVX2/AVX-512 lanes (kde/simd_sweep.cc).
/// Internal to the density kernels.
///
/// The polynomial exp is the same elementwise algorithm at every width —
/// scalar (SimdPolyExp), 4 lanes (AVX2), 8 lanes (AVX-512) — built from
/// sub/mul/add/fma/min and a round-to-nearest-even via the 1.5·2^52
/// magic-number trick, all of which round per element (see SimdPolyExp
/// in kde/simd_sweep.h for where the default build contracts a lane).
///
/// Algorithm: k = round(x·log2e); Cody–Waite reduction r = x − k·ln2_hi −
/// k·ln2_lo (ln2_hi carries 20 trailing zero bits, so k·ln2_hi is exact
/// for |k| ≤ 2^20); e^r ≈ 1 + r + r²·P(r) with P the Taylor tail 1/2! +
/// r/3! + … + r^11/13! (truncation < 5e-18 on |r| ≤ ln2/2); scale by 2^k
/// through exponent-field construction. Total error ≤ 2 ulp per term.
///
/// Range handling: inputs are clamped above at 710 (exp overflows to +inf
/// exactly as std::exp does by 709.79) and flushed to +0 below −708 —
/// std::exp still returns a subnormal down to −745, so the poly path
/// differs there by at most 3.3e-308 absolute per term, invisible under
/// the 1e-12 relative contract for any sum whose leading kept term is
/// ≥ e^−671 (log-space sums always lead with exp(0) = 1).

namespace udm::kde_internal {

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

}  // namespace udm::kde_internal

#endif  // UDM_KDE_POLY_EXP_H_
