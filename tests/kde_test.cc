// The plain Gaussian product KDE of Eqs. 1-2, expressed as the paper's
// error KDE with an all-zero error model (ψ ≡ 0, DESIGN.md S10).
#include "kde/error_kde.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "dataset/synthetic.h"
#include "error/error_model.h"

namespace udm {
namespace {

Dataset OneDimPoints(const std::vector<double>& xs) {
  Dataset d = Dataset::Create(1).value();
  for (double x : xs) {
    EXPECT_TRUE(d.AppendRow(std::vector<double>{x}, 0).ok());
  }
  return d;
}

/// Fits the ψ ≡ 0 error KDE — the plain KDE — over `data`.
Result<ErrorKernelDensity> FitPlain(const Dataset& data,
                                    const DensityEvalOptions& options = {}) {
  return ErrorKernelDensity::Fit(
      data, ErrorModel::Zero(data.NumRows(), data.NumDims()), options);
}

TEST(KdeTest, RejectsEmptyDataset) {
  const Dataset d = Dataset::Create(1).value();
  EXPECT_FALSE(FitPlain(d).ok());
}

TEST(KdeTest, RejectsBadKnobs) {
  const Dataset d = OneDimPoints({1.0, 2.0});
  DensityEvalOptions options;
  options.bandwidth_scale = 0.0;
  EXPECT_FALSE(FitPlain(d, options).ok());
  options = DensityEvalOptions();
  options.min_bandwidth = -1.0;
  EXPECT_FALSE(FitPlain(d, options).ok());
}

TEST(KdeTest, SinglePointIsAKernelBump) {
  const Dataset d = OneDimPoints({5.0});
  const ErrorKernelDensity kde = FitPlain(d).value();
  const double h = kde.bandwidths()[0];
  const std::vector<double> at_center{5.0};
  // h is the min_bandwidth floor (1e-9) here, so the density is ~4e8 and
  // the tolerance must be relative: the precomputed log-kernel path agrees
  // with the direct formula to ~1 ulp per term, not bit-for-bit.
  const double expected = StdNormalPdf(0.0) / h;
  EXPECT_NEAR(kde.Evaluate(at_center), expected, 1e-12 * expected);
}

TEST(KdeTest, DensityIntegratesToOne1D) {
  Rng rng(21);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.Gaussian(0.0, 1.0));
  const Dataset d = OneDimPoints(xs);
  const ErrorKernelDensity kde = FitPlain(d).value();
  const std::vector<double> grid = Linspace(-8.0, 8.0, 2000);
  double integral = 0.0;
  for (size_t i = 1; i < grid.size(); ++i) {
    const std::vector<double> a{grid[i - 1]};
    const std::vector<double> b{grid[i]};
    integral +=
        0.5 * (kde.Evaluate(a) + kde.Evaluate(b)) * (grid[i] - grid[i - 1]);
  }
  EXPECT_NEAR(integral, 1.0, 0.01);
}

TEST(KdeTest, PeaksNearTheDataMode) {
  Rng rng(22);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.Gaussian(3.0, 0.5));
  const Dataset d = OneDimPoints(xs);
  const ErrorKernelDensity kde = FitPlain(d).value();
  const std::vector<double> at_mode{3.0};
  const std::vector<double> far{8.0};
  EXPECT_GT(kde.Evaluate(at_mode), 10.0 * kde.Evaluate(far));
}

TEST(KdeTest, ApproximatesTrueGaussianDensity) {
  Rng rng(23);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Gaussian(0.0, 1.0));
  const Dataset d = OneDimPoints(xs);
  const ErrorKernelDensity kde = FitPlain(d).value();
  for (const double x : {-2.0, -1.0, 0.0, 0.5, 1.5}) {
    const std::vector<double> point{x};
    EXPECT_NEAR(kde.Evaluate(point), StdNormalPdf(x), 0.02) << "x=" << x;
  }
}

TEST(KdeTest, SubspaceEvaluationMatchesProjectedFit) {
  MixtureDatasetSpec spec;
  spec.num_dims = 3;
  spec.num_informative_dims = 3;
  spec.seed = 8;
  const Dataset d = MakeMixtureDataset(spec, 300).value();
  const ErrorKernelDensity full = FitPlain(d).value();

  const std::vector<size_t> dims{0, 2};
  const Dataset projected = d.ProjectDims(dims).value();
  const ErrorKernelDensity proj = FitPlain(projected).value();

  const std::vector<double> x{0.4, -0.7, 1.1};
  const std::vector<double> x_proj{0.4, 1.1};
  EXPECT_NEAR(full.EvaluateSubspace(x, dims), proj.Evaluate(x_proj), 1e-12);
}

TEST(KdeTest, NonNegativeEverywhere) {
  Rng rng(31);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(rng.Gaussian(0.0, 2.0));
  const Dataset d = OneDimPoints(xs);
  const ErrorKernelDensity kde = FitPlain(d).value();
  for (double x = -10.0; x <= 10.0; x += 0.5) {
    const std::vector<double> point{x};
    EXPECT_GE(kde.Evaluate(point), 0.0);
  }
}

TEST(KdeTest, MassConcentratedOnData) {
  Rng rng(32);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(rng.Gaussian(0.0, 1.0));
  const Dataset d = OneDimPoints(xs);
  const ErrorKernelDensity kde = FitPlain(d).value();
  const std::vector<double> center{0.0};
  const std::vector<double> tail{6.0};
  EXPECT_GT(kde.Evaluate(center), kde.Evaluate(tail));
}

}  // namespace
}  // namespace udm
