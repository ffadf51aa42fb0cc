// The scalar polynomial exp (SimdPolyExp and its FMA twin). This file is
// compiled with -ffp-contract=off (src/kde/CMakeLists.txt): the body
// rounds x·log2e before adding the magic constant, and only the explicit
// std::fma calls may fuse, whatever -march says.
#include <bit>
#include <cmath>
#include <cstdint>

#include "kde/poly_exp.h"
#include "kde/simd_sweep.h"

namespace udm::kde_internal {
namespace {

// The one body. Inlined into both entry points below; in the FMA one each
// std::fma becomes a single instruction, in the baseline one a libm call,
// and both round once per fma, so the two return the same bits.
[[gnu::always_inline]] inline double PolyExp(double x) {
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

}  // namespace

double SimdPolyExp(double x) { return PolyExp(x); }

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
[[gnu::target("fma")]] double SimdPolyExpFma(double x) { return PolyExp(x); }
#else
double SimdPolyExpFma(double x) { return PolyExp(x); }
#endif

}  // namespace udm::kde_internal
