#include "kde/error_kde.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "dataset/synthetic.h"
#include "error/perturbation.h"

namespace udm {
namespace {

Dataset OneDimPoints(const std::vector<double>& xs) {
  Dataset d = Dataset::Create(1).value();
  for (double x : xs) {
    EXPECT_TRUE(d.AppendRow(std::vector<double>{x}, 0).ok());
  }
  return d;
}

TEST(ErrorKdeTest, ValidatesShapes) {
  const Dataset d = OneDimPoints({1.0, 2.0});
  EXPECT_FALSE(ErrorKernelDensity::Fit(d, ErrorModel::Zero(3, 1)).ok());
  EXPECT_FALSE(ErrorKernelDensity::Fit(d, ErrorModel::Zero(2, 2)).ok());
  const Dataset empty = Dataset::Create(1).value();
  EXPECT_FALSE(ErrorKernelDensity::Fit(empty, ErrorModel::Zero(0, 1)).ok());
}

TEST(ErrorKdeTest, ZeroErrorsEqualStandardGaussianKde) {
  Rng rng(41);
  std::vector<double> xs;
  for (int i = 0; i < 150; ++i) xs.push_back(rng.Gaussian(2.0, 1.5));
  const Dataset d = OneDimPoints(xs);
  const ErrorKernelDensity error_kde =
      ErrorKernelDensity::Fit(d, ErrorModel::Zero(d.NumRows(), 1)).value();
  // The standard Gaussian KDE of Eq. 2, summed directly.
  const double h = error_kde.bandwidths()[0];
  for (const double x : {-1.0, 0.0, 2.0, 3.5, 6.0}) {
    double standard = 0.0;
    for (const double xi : xs) standard += StdNormalPdf((x - xi) / h) / h;
    standard /= static_cast<double>(xs.size());
    const std::vector<double> point{x};
    EXPECT_NEAR(error_kde.Evaluate(point), standard, 1e-12);
  }
}

TEST(ErrorKdeTest, ErrorsWidenTheEstimate) {
  // One tight cluster; with large per-point errors the density spreads:
  // lower at the center, higher in the periphery.
  std::vector<double> xs;
  Rng rng(43);
  for (int i = 0; i < 100; ++i) xs.push_back(rng.Gaussian(0.0, 0.2));
  const Dataset d = OneDimPoints(xs);
  const ErrorKernelDensity no_error =
      ErrorKernelDensity::Fit(d, ErrorModel::Zero(d.NumRows(), 1)).value();
  const ErrorKernelDensity with_error =
      ErrorKernelDensity::Fit(
          d, ErrorModel::PerDimension(d.NumRows(), std::vector<double>{2.0})
                 .value())
          .value();
  const std::vector<double> center{0.0};
  const std::vector<double> periphery{3.0};
  EXPECT_GT(no_error.Evaluate(center), with_error.Evaluate(center));
  EXPECT_LT(no_error.Evaluate(periphery), with_error.Evaluate(periphery));
}

TEST(ErrorKdeTest, ExactNormalizationIntegratesToOne) {
  Rng rng(47);
  std::vector<double> xs;
  std::vector<double> psi_values;
  Dataset d = Dataset::Create(1).value();
  std::vector<double> table;
  for (int i = 0; i < 60; ++i) {
    const double x = rng.Gaussian(0.0, 1.0);
    ASSERT_TRUE(d.AppendRow(std::vector<double>{x}, 0).ok());
    table.push_back(rng.Uniform(0.0, 1.5));
  }
  const ErrorModel errors = ErrorModel::FromTable(60, 1, table).value();
  DensityEvalOptions options;
  options.normalization = KernelNormalization::kExact;
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(d, errors, options).value();
  const std::vector<double> grid = Linspace(-12.0, 12.0, 4000);
  double integral = 0.0;
  for (size_t i = 1; i < grid.size(); ++i) {
    const std::vector<double> a{grid[i - 1]};
    const std::vector<double> b{grid[i]};
    integral +=
        0.5 * (kde.Evaluate(a) + kde.Evaluate(b)) * (grid[i] - grid[i - 1]);
  }
  EXPECT_NEAR(integral, 1.0, 0.01);
}

TEST(ErrorKdeTest, PaperNormalizationUnderestimatesMass) {
  Rng rng(53);
  Dataset d = Dataset::Create(1).value();
  std::vector<double> table;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        d.AppendRow(std::vector<double>{rng.Gaussian(0.0, 1.0)}, 0).ok());
    table.push_back(1.0);  // constant ψ
  }
  const ErrorModel errors = ErrorModel::FromTable(60, 1, table).value();
  const ErrorKernelDensity kde = ErrorKernelDensity::Fit(d, errors).value();
  const std::vector<double> grid = Linspace(-12.0, 12.0, 4000);
  double integral = 0.0;
  for (size_t i = 1; i < grid.size(); ++i) {
    const std::vector<double> a{grid[i - 1]};
    const std::vector<double> b{grid[i]};
    integral +=
        0.5 * (kde.Evaluate(a) + kde.Evaluate(b)) * (grid[i] - grid[i - 1]);
  }
  EXPECT_LT(integral, 1.0);
  EXPECT_GT(integral, 0.5);
}

TEST(ErrorKdeTest, LogEvaluateMatchesLinear) {
  MixtureDatasetSpec spec;
  spec.num_dims = 3;
  spec.num_informative_dims = 3;
  spec.seed = 13;
  const Dataset clean = MakeMixtureDataset(spec, 200).value();
  PerturbationOptions perturb;
  perturb.f = 1.0;
  const UncertainDataset uncertain = Perturb(clean, perturb).value();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(uncertain.data, uncertain.errors).value();
  const std::vector<size_t> dims{0, 1, 2};
  for (size_t i = 0; i < 5; ++i) {
    const auto x = uncertain.data.Row(i);
    const double linear = kde.EvaluateSubspace(x, dims);
    const double logged = kde.LogEvaluateSubspace(x, dims);
    EXPECT_NEAR(std::exp(logged), linear, 1e-9 * (1.0 + linear));
  }
}

TEST(ErrorKdeTest, LogEvaluateStableInFarTail) {
  const Dataset d = OneDimPoints({0.0});
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(d, ErrorModel::Zero(1, 1)).value();
  const std::vector<double> far{1e6};
  const std::vector<size_t> dims{0};
  const double log_density = kde.LogEvaluateSubspace(far, dims);
  EXPECT_TRUE(std::isfinite(log_density));
  EXPECT_LT(log_density, -1e6);  // astronomically unlikely, but finite
  EXPECT_DOUBLE_EQ(kde.EvaluateSubspace(far, dims), 0.0);  // underflows
}

TEST(ErrorKdeTest, SubspaceMatchesProjectedFit) {
  MixtureDatasetSpec spec;
  spec.num_dims = 4;
  spec.num_informative_dims = 4;
  spec.seed = 17;
  const Dataset clean = MakeMixtureDataset(spec, 150).value();
  PerturbationOptions perturb;
  perturb.f = 0.8;
  const UncertainDataset uncertain = Perturb(clean, perturb).value();

  const ErrorKernelDensity full =
      ErrorKernelDensity::Fit(uncertain.data, uncertain.errors).value();

  const std::vector<size_t> dims{1, 3};
  const Dataset projected = uncertain.data.ProjectDims(dims).value();
  const ErrorModel projected_errors =
      uncertain.errors.ProjectDims(dims).value();
  const ErrorKernelDensity proj =
      ErrorKernelDensity::Fit(projected, projected_errors).value();

  const std::vector<double> x{0.1, -0.5, 0.9, 1.3};
  const std::vector<double> x_proj{-0.5, 1.3};
  EXPECT_NEAR(full.EvaluateSubspace(x, dims), proj.Evaluate(x_proj), 1e-12);
}

class ErrorKdeNormalizationSweep
    : public ::testing::TestWithParam<KernelNormalization> {};

TEST_P(ErrorKdeNormalizationSweep, PositiveDensityOnSampledPoints) {
  MixtureDatasetSpec spec;
  spec.num_dims = 2;
  spec.seed = 19;
  const Dataset clean = MakeMixtureDataset(spec, 100).value();
  PerturbationOptions perturb;
  perturb.f = 1.5;
  const UncertainDataset uncertain = Perturb(clean, perturb).value();
  DensityEvalOptions options;
  options.normalization = GetParam();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(uncertain.data, uncertain.errors, options)
          .value();
  for (size_t i = 0; i < uncertain.data.NumRows(); i += 10) {
    EXPECT_GT(kde.Evaluate(uncertain.data.Row(i)), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Normalizations, ErrorKdeNormalizationSweep,
                         ::testing::Values(KernelNormalization::kPaper,
                                           KernelNormalization::kExact));

}  // namespace
}  // namespace udm
