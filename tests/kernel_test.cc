#include "kde/kernel.h"

#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"

namespace udm {
namespace {

double Integrate(double lo, double hi, size_t steps,
                 const std::function<double(double)>& f) {
  const std::vector<double> grid = Linspace(lo, hi, steps);
  double integral = 0.0;
  for (size_t i = 1; i < grid.size(); ++i) {
    integral += 0.5 * (f(grid[i - 1]) + f(grid[i])) * (grid[i] - grid[i - 1]);
  }
  return integral;
}

TEST(KernelTest, GaussianKernelIntegratesToOne) {
  // The plain Gaussian kernel K_h of Eq. 2 is the ψ = 0 error kernel.
  const double h = 0.35;
  const double xi = 2.0;
  const double integral =
      Integrate(xi - 10.0, xi + 10.0, 20000, [&](double x) {
        return ErrorKernelValue(x - xi, h, 0.0);
      });
  EXPECT_NEAR(integral, 1.0, 1e-4);
}

TEST(ErrorKernelTest, ZeroPsiReducesToGaussianKernel) {
  // Eq. 3 with ψ = 0 must equal Eq. 2, K_h(δ) = φ(δ/h)/h, under both
  // normalizations.
  const double h = 0.4;
  for (const double delta : {-2.0, -0.3, 0.0, 0.7, 1.9}) {
    const double standard = StdNormalPdf(delta / h) / h;
    EXPECT_NEAR(ErrorKernelValue(delta, h, 0.0, KernelNormalization::kPaper),
                standard, 1e-14);
    EXPECT_NEAR(ErrorKernelValue(delta, h, 0.0, KernelNormalization::kExact),
                standard, 1e-14);
  }
}

TEST(ErrorKernelTest, NormalizationsAgreeWhenEitherWidthIsZero) {
  // h→0 limit: the kernel becomes a Gaussian with std-dev exactly ψ (the
  // paper's "limiting case" argument).
  const double psi = 0.8;
  const double h = 1e-9;
  for (const double delta : {-1.0, 0.0, 0.5}) {
    const double paper =
        ErrorKernelValue(delta, h, psi, KernelNormalization::kPaper);
    const double exact =
        ErrorKernelValue(delta, h, psi, KernelNormalization::kExact);
    EXPECT_NEAR(paper, exact, 1e-8);
    EXPECT_NEAR(paper, NormalPdf(delta, 0.0, psi), 1e-6);
  }
}

TEST(ErrorKernelTest, ExactNormalizationIntegratesToOne) {
  const double h = 0.5;
  const double psi = 1.2;
  const double integral = Integrate(-12.0, 12.0, 40000, [&](double x) {
    return ErrorKernelValue(x, h, psi, KernelNormalization::kExact);
  });
  EXPECT_NEAR(integral, 1.0, 1e-4);
}

TEST(ErrorKernelTest, PaperNormalizationIntegralIsKnownDeficit) {
  // ∫ Q'_paper = sqrt(h²+ψ²)/(h+ψ) — strictly below 1 when both h, ψ > 0.
  const double h = 0.5;
  const double psi = 1.2;
  const double integral = Integrate(-12.0, 12.0, 40000, [&](double x) {
    return ErrorKernelValue(x, h, psi, KernelNormalization::kPaper);
  });
  const double expected = std::sqrt(h * h + psi * psi) / (h + psi);
  EXPECT_NEAR(integral, expected, 1e-4);
  EXPECT_LT(integral, 1.0);
}

TEST(ErrorKernelTest, LargerPsiFlattensTheBump) {
  const double h = 0.3;
  // At the center the kernel value decreases with ψ; far away it increases.
  EXPECT_GT(ErrorKernelValue(0.0, h, 0.1), ErrorKernelValue(0.0, h, 2.0));
  EXPECT_LT(ErrorKernelValue(5.0, h, 0.1), ErrorKernelValue(5.0, h, 2.0));
}

TEST(ErrorKernelTest, LogMatchesLinear) {
  for (const double delta : {-3.0, -0.5, 0.0, 1.0, 4.0}) {
    for (const double psi : {0.0, 0.5, 2.0}) {
      for (const KernelNormalization norm :
           {KernelNormalization::kPaper, KernelNormalization::kExact}) {
        const double linear = ErrorKernelValue(delta, 0.4, psi, norm);
        const double log_value = LogErrorKernelValue(delta, 0.4, psi, norm);
        EXPECT_NEAR(std::exp(log_value), linear, 1e-12 * (1.0 + linear));
      }
    }
  }
}

TEST(ErrorKernelTest, LogAvoidsUnderflow) {
  // 400σ offset: exp underflows but the log form stays finite and correct.
  const double log_value =
      LogErrorKernelValue(400.0, 1.0, 0.0, KernelNormalization::kExact);
  EXPECT_TRUE(std::isfinite(log_value));
  EXPECT_NEAR(log_value, -0.5 * 400.0 * 400.0 - std::log(kSqrt2Pi), 1e-6);
  EXPECT_DOUBLE_EQ(ErrorKernelValue(400.0, 1.0, 0.0), 0.0);  // underflows
}

struct KernelCase {
  double h;
  double psi;
};

class ErrorKernelSweep : public ::testing::TestWithParam<KernelCase> {};

TEST_P(ErrorKernelSweep, SymmetricInDelta) {
  const auto [h, psi] = GetParam();
  for (const double delta : {0.2, 1.0, 3.3}) {
    EXPECT_DOUBLE_EQ(ErrorKernelValue(delta, h, psi),
                     ErrorKernelValue(-delta, h, psi));
  }
}

TEST_P(ErrorKernelSweep, MonotoneDecayFromCenter) {
  const auto [h, psi] = GetParam();
  double previous = ErrorKernelValue(0.0, h, psi);
  for (double delta = 0.25; delta <= 5.0; delta += 0.25) {
    const double value = ErrorKernelValue(delta, h, psi);
    if (previous == 0.0) break;  // narrow kernels underflow in the far tail
    EXPECT_LT(value, previous);
    previous = value;
  }
}

TEST_P(ErrorKernelSweep, EffectiveVarianceIsSumOfSquares) {
  // The exact-normalized kernel is N(0, h²+ψ²): check its second moment.
  const auto [h, psi] = GetParam();
  const double var = h * h + psi * psi;
  const double lim = 12.0 * std::sqrt(var);
  const double second_moment =
      Integrate(-lim, lim, 40000, [&](double x) {
        return x * x * ErrorKernelValue(x, h, psi,
                                        KernelNormalization::kExact);
      });
  EXPECT_NEAR(second_moment, var, 1e-3 * var);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ErrorKernelSweep,
    ::testing::Values(KernelCase{0.1, 0.0}, KernelCase{0.1, 0.5},
                      KernelCase{0.5, 0.5}, KernelCase{1.0, 2.0},
                      KernelCase{2.0, 0.1}));

}  // namespace
}  // namespace udm
