#include "microcluster/mc_density.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "dataset/synthetic.h"
#include "error/perturbation.h"
#include "kde/error_kde.h"
#include "microcluster/clusterer.h"
#include "obs/metrics.h"

namespace udm {
namespace {

UncertainDataset MakeUncertain(size_t n, double f, uint64_t seed = 5) {
  MixtureDatasetSpec spec;
  spec.num_dims = 2;
  spec.seed = seed;
  const Dataset clean = MakeMixtureDataset(spec, n).value();
  PerturbationOptions options;
  options.f = f;
  options.seed = seed + 1;
  return Perturb(clean, options).value();
}

TEST(McDensityTest, ValidatesInput) {
  EXPECT_FALSE(McDensityModel::Build({}).ok());
  const std::vector<MicroCluster> empty_clusters(3, MicroCluster(2));
  EXPECT_FALSE(McDensityModel::Build(empty_clusters).ok());
}

TEST(McDensityTest, SkipsEmptyClustersButKeepsMass) {
  std::vector<MicroCluster> clusters(3, MicroCluster(1));
  clusters[1].AddPoint(std::vector<double>{1.0}, std::vector<double>{0.0});
  const McDensityModel model = McDensityModel::Build(clusters).value();
  EXPECT_EQ(model.num_clusters(), 1u);
  EXPECT_EQ(model.total_count(), 1u);
}

TEST(McDensityTest, OnePointPerClusterEqualsExactErrorKde) {
  // When every point gets its own cluster (q >= N): centroid = point,
  // Δ_j² = 0 + ψ_j², weight = 1/N — Eq. 10 collapses to Eq. 4 exactly.
  const UncertainDataset uncertain = MakeUncertain(80, 1.2);
  MicroClusterer::Options options;
  options.num_clusters = 1000;  // > N: seeding gives one point per cluster
  const auto clusters =
      BuildMicroClusters(uncertain.data, uncertain.errors, options).value();
  ASSERT_EQ(clusters.size(), 80u);

  const McDensityModel mc_model = McDensityModel::Build(clusters).value();
  const ErrorKernelDensity exact =
      ErrorKernelDensity::Fit(uncertain.data, uncertain.errors).value();

  const std::vector<size_t> dims{0, 1};
  for (size_t i = 0; i < uncertain.data.NumRows(); i += 7) {
    const auto x = uncertain.data.Row(i);
    EXPECT_NEAR(mc_model.EvaluateSubspace(x, dims),
                exact.EvaluateSubspace(x, dims),
                1e-9 * (1.0 + exact.EvaluateSubspace(x, dims)));
  }
}

TEST(McDensityTest, EvalSecondsRecordsOneSamplePerEvaluateCall) {
  // `kde.eval.seconds` has one meaning on every model: one sample per
  // Evaluate(EvalRequest) call, however many queries, tiles or threads.
  const UncertainDataset uncertain = MakeUncertain(300, 1.0);
  MicroClusterer::Options options;
  options.num_clusters = 20;
  const McDensityModel mc = McDensityModel::Build(
      BuildMicroClusters(uncertain.data, uncertain.errors, options).value())
                                .value();
  const ErrorKernelDensity exact =
      ErrorKernelDensity::Fit(uncertain.data, uncertain.errors).value();
  const obs::Histogram& seconds =
      obs::MetricsRegistry::Global().GetHistogram("kde.eval.seconds");
  EvalRequest request;
  request.points = uncertain.data.values().subspan(0, 40 * 2);
  request.threads = 2;
  for (const bool log_space : {false, true}) {
    request.log_space = log_space;
    uint64_t before = seconds.Count();
    ASSERT_TRUE(exact.Evaluate(request).ok());
    EXPECT_EQ(seconds.Count(), before + 1) << "error KDE, log=" << log_space;
    before = seconds.Count();
    ASSERT_TRUE(mc.Evaluate(request).ok());
    EXPECT_EQ(seconds.Count(), before + 1) << "mc, log=" << log_space;
  }
  // The per-point entry points are not batch calls and record nothing.
  const uint64_t before = seconds.Count();
  (void)exact.EvaluateSubspace(uncertain.data.Row(0), std::vector<size_t>{0});
  (void)mc.LogEvaluateSubspace(uncertain.data.Row(0), std::vector<size_t>{1});
  EXPECT_EQ(seconds.Count(), before);
}

TEST(McDensityTest, LogMatchesLinear) {
  const UncertainDataset uncertain = MakeUncertain(500, 1.0);
  MicroClusterer::Options options;
  options.num_clusters = 30;
  const auto clusters =
      BuildMicroClusters(uncertain.data, uncertain.errors, options).value();
  const McDensityModel model = McDensityModel::Build(clusters).value();
  const std::vector<size_t> dims{0, 1};
  for (size_t i = 0; i < 20; ++i) {
    const auto x = uncertain.data.Row(i);
    const double linear = model.EvaluateSubspace(x, dims);
    EXPECT_NEAR(std::exp(model.LogEvaluateSubspace(x, dims)), linear,
                1e-9 * (1.0 + linear));
  }
}

TEST(McDensityTest, ApproximatesExactDensityWithModestBudget) {
  // The whole point of §2.1: a few dozen clusters approximate the exact
  // error-based density well. Compare on a correlation-style criterion.
  const UncertainDataset uncertain = MakeUncertain(3000, 1.0);
  MicroClusterer::Options options;
  options.num_clusters = 100;
  const auto clusters =
      BuildMicroClusters(uncertain.data, uncertain.errors, options).value();
  const McDensityModel mc_model = McDensityModel::Build(clusters).value();
  const ErrorKernelDensity exact =
      ErrorKernelDensity::Fit(uncertain.data, uncertain.errors).value();

  double rel_error_sum = 0.0;
  const size_t probes = 50;
  for (size_t i = 0; i < probes; ++i) {
    const auto x = uncertain.data.Row(i * 13);
    const double truth = exact.Evaluate(x);
    const double approx = mc_model.Evaluate(x);
    ASSERT_GT(truth, 0.0);
    rel_error_sum += std::fabs(approx - truth) / truth;
  }
  EXPECT_LT(rel_error_sum / probes, 0.5);  // mean relative error < 50%
}

TEST(McDensityTest, TotalCountAndBandwidthsComeFromSummary) {
  const UncertainDataset uncertain = MakeUncertain(2000, 0.7);
  MicroClusterer::Options options;
  options.num_clusters = 50;
  const auto clusters =
      BuildMicroClusters(uncertain.data, uncertain.errors, options).value();
  const McDensityModel model = McDensityModel::Build(clusters).value();
  EXPECT_EQ(model.total_count(), 2000u);
  EXPECT_EQ(model.num_dims(), 2u);

  // Bandwidths should be close to those computed from the raw data
  // (AggregateStats recovers the same σ via the CF tuples).
  const ErrorKernelDensity exact =
      ErrorKernelDensity::Fit(uncertain.data, uncertain.errors).value();
  for (size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(model.bandwidths()[j], exact.bandwidths()[j],
                1e-6 * exact.bandwidths()[j]);
  }
}

TEST(McDensityTest, ExactNormalizationIntegratesToOne1D) {
  MixtureDatasetSpec spec;
  spec.num_dims = 1;
  spec.num_informative_dims = 1;
  spec.seed = 9;
  const Dataset clean = MakeMixtureDataset(spec, 1000).value();
  PerturbationOptions perturb;
  perturb.f = 1.0;
  const UncertainDataset uncertain = Perturb(clean, perturb).value();
  MicroClusterer::Options mc_options;
  mc_options.num_clusters = 40;
  const auto clusters =
      BuildMicroClusters(uncertain.data, uncertain.errors, mc_options).value();
  DensityEvalOptions density_options;
  density_options.normalization = KernelNormalization::kExact;
  const McDensityModel model =
      McDensityModel::Build(clusters, density_options).value();

  const std::vector<double> grid = Linspace(-30.0, 30.0, 6000);
  double integral = 0.0;
  for (size_t i = 1; i < grid.size(); ++i) {
    const std::vector<double> a{grid[i - 1]};
    const std::vector<double> b{grid[i]};
    integral +=
        0.5 * (model.Evaluate(a) + model.Evaluate(b)) * (grid[i] - grid[i - 1]);
  }
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(McDensityTest, WeightsFollowClusterPopulations) {
  // Two far-apart blobs with very different populations: the density near
  // the big blob must dominate, in the blob-size ratio. The first two rows
  // seed the two clusters (one per blob); the remainder interleaves so each
  // point joins its own blob's cluster.
  Dataset d = Dataset::Create(1).value();
  ASSERT_TRUE(d.AppendRow(std::vector<double>{0.0}, 0).ok());
  ASSERT_TRUE(d.AppendRow(std::vector<double>{100.0}, 0).ok());
  for (int i = 0; i < 899; ++i) {
    ASSERT_TRUE(
        d.AppendRow(std::vector<double>{0.0 + 0.01 * (i % 10)}, 0).ok());
  }
  for (int i = 0; i < 99; ++i) {
    ASSERT_TRUE(
        d.AppendRow(std::vector<double>{100.0 + 0.01 * (i % 10)}, 0).ok());
  }
  MicroClusterer::Options options;
  options.num_clusters = 2;
  const auto clusters =
      BuildMicroClusters(d, ErrorModel::Zero(1000, 1), options).value();
  const McDensityModel model = McDensityModel::Build(clusters).value();
  const std::vector<double> near_big{0.05};
  const std::vector<double> near_small{100.05};
  const double ratio = model.Evaluate(near_big) / model.Evaluate(near_small);
  EXPECT_NEAR(ratio, 9.0, 1.0);
}

class McBudgetFidelitySweep : public ::testing::TestWithParam<size_t> {};

TEST_P(McBudgetFidelitySweep, DensityPositiveOnData) {
  const UncertainDataset uncertain = MakeUncertain(800, 1.5);
  MicroClusterer::Options options;
  options.num_clusters = GetParam();
  const auto clusters =
      BuildMicroClusters(uncertain.data, uncertain.errors, options).value();
  const McDensityModel model = McDensityModel::Build(clusters).value();
  for (size_t i = 0; i < uncertain.data.NumRows(); i += 100) {
    EXPECT_GT(model.Evaluate(uncertain.data.Row(i)), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, McBudgetFidelitySweep,
                         ::testing::Values(5u, 20u, 80u, 140u));

}  // namespace
}  // namespace udm
