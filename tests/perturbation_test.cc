#include "error/perturbation.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dataset/synthetic.h"

namespace udm {
namespace {

Dataset MakeClean(size_t n = 2000, uint64_t seed = 42) {
  MixtureDatasetSpec spec;
  spec.num_dims = 3;
  spec.num_informative_dims = 3;
  spec.seed = seed;
  return MakeMixtureDataset(spec, n).value();
}

TEST(PerturbTest, RejectsNegativeF) {
  PerturbationOptions options;
  options.f = -1.0;
  EXPECT_FALSE(Perturb(MakeClean(10), options).ok());
}

TEST(PerturbTest, ZeroFIsIdentity) {
  const Dataset clean = MakeClean(100);
  PerturbationOptions options;
  options.f = 0.0;
  const UncertainDataset result = Perturb(clean, options).value();
  for (size_t i = 0; i < clean.NumRows(); ++i) {
    for (size_t j = 0; j < clean.NumDims(); ++j) {
      EXPECT_DOUBLE_EQ(result.data.Value(i, j), clean.Value(i, j));
      EXPECT_DOUBLE_EQ(result.errors.Psi(i, j), 0.0);
    }
  }
  EXPECT_TRUE(result.errors.IsZero());
}

TEST(PerturbTest, PreservesShapeAndLabels) {
  const Dataset clean = MakeClean(500);
  PerturbationOptions options;
  options.f = 1.5;
  const UncertainDataset result = Perturb(clean, options).value();
  ASSERT_EQ(result.data.NumRows(), clean.NumRows());
  ASSERT_EQ(result.data.NumDims(), clean.NumDims());
  ASSERT_EQ(result.errors.NumRows(), clean.NumRows());
  for (size_t i = 0; i < clean.NumRows(); ++i) {
    EXPECT_EQ(result.data.Label(i), clean.Label(i));
  }
}

TEST(PerturbTest, PsiWithinProtocolRange) {
  const Dataset clean = MakeClean(2000);
  const auto stats = clean.ComputeStats();
  PerturbationOptions options;
  options.f = 2.0;
  const UncertainDataset result = Perturb(clean, options).value();
  for (size_t i = 0; i < clean.NumRows(); ++i) {
    for (size_t j = 0; j < clean.NumDims(); ++j) {
      EXPECT_GE(result.errors.Psi(i, j), 0.0);
      EXPECT_LE(result.errors.Psi(i, j),
                2.0 * options.f * stats[j].stddev + 1e-12);
    }
  }
}

TEST(PerturbTest, MeanPsiIsFTimesSigma) {
  // ψ ~ U[0, 2f]·σ, so E[ψ] = f·σ: "an increase in error to an average of
  // f standard deviations".
  const Dataset clean = MakeClean(20000);
  const auto stats = clean.ComputeStats();
  PerturbationOptions options;
  options.f = 1.2;
  const UncertainDataset result = Perturb(clean, options).value();
  for (size_t j = 0; j < clean.NumDims(); ++j) {
    double sum = 0.0;
    for (size_t i = 0; i < clean.NumRows(); ++i) {
      sum += result.errors.Psi(i, j);
    }
    const double mean_psi = sum / static_cast<double>(clean.NumRows());
    EXPECT_NEAR(mean_psi / stats[j].stddev, options.f, 0.03);
  }
}

TEST(PerturbTest, NoiseMagnitudeGrowsWithF) {
  const Dataset clean = MakeClean(5000);
  double prev_mean_abs = 0.0;
  for (const double f : {0.5, 1.5, 3.0}) {
    PerturbationOptions options;
    options.f = f;
    options.seed = 9;
    const UncertainDataset result = Perturb(clean, options).value();
    double sum_abs = 0.0;
    for (size_t i = 0; i < clean.NumRows(); ++i) {
      sum_abs += std::fabs(result.data.Value(i, 0) - clean.Value(i, 0));
    }
    const double mean_abs = sum_abs / static_cast<double>(clean.NumRows());
    EXPECT_GT(mean_abs, prev_mean_abs);
    prev_mean_abs = mean_abs;
  }
}

TEST(PerturbTest, DeterministicUnderSeed) {
  const Dataset clean = MakeClean(200);
  PerturbationOptions options;
  options.f = 1.0;
  options.seed = 77;
  const UncertainDataset a = Perturb(clean, options).value();
  const UncertainDataset b = Perturb(clean, options).value();
  for (size_t i = 0; i < clean.NumRows(); ++i) {
    for (size_t j = 0; j < clean.NumDims(); ++j) {
      EXPECT_DOUBLE_EQ(a.data.Value(i, j), b.data.Value(i, j));
      EXPECT_DOUBLE_EQ(a.errors.Psi(i, j), b.errors.Psi(i, j));
    }
  }
}

TEST(ReplicatesTest, RequiresAtLeastTwo) {
  const Dataset clean = MakeClean(10);
  EXPECT_FALSE(EstimateFromReplicates({clean}).ok());
}

TEST(ReplicatesTest, ShapeAndLabelMismatchRejected) {
  const Dataset a = MakeClean(10, 1);
  Dataset b = MakeClean(10, 1);
  b.SetLabel(0, 1 - b.Label(0));
  EXPECT_FALSE(EstimateFromReplicates({a, b}).ok());
  const Dataset c = MakeClean(11, 1);
  EXPECT_FALSE(EstimateFromReplicates({a, c}).ok());
}

TEST(ReplicatesTest, RecoversMeanAndSpread) {
  // Replicates of a constant dataset with known injected noise: the mean
  // should recover the base value and ψ should estimate the noise sigma.
  Dataset base = Dataset::Create(1).value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(base.AppendRow(std::vector<double>{10.0}, 0).ok());
  }
  std::vector<Dataset> replicates;
  Rng rng(5);
  const double noise_sigma = 0.7;
  for (int r = 0; r < 200; ++r) {
    Dataset rep = Dataset::Create(1).value();
    for (size_t i = 0; i < base.NumRows(); ++i) {
      ASSERT_TRUE(
          rep.AppendRow(
                 std::vector<double>{10.0 + rng.Gaussian(0.0, noise_sigma)}, 0)
              .ok());
    }
    replicates.push_back(std::move(rep));
  }
  const UncertainDataset estimated =
      EstimateFromReplicates(replicates).value();
  for (size_t i = 0; i < base.NumRows(); ++i) {
    EXPECT_NEAR(estimated.data.Value(i, 0), 10.0, 0.25);
    EXPECT_NEAR(estimated.errors.Psi(i, 0), noise_sigma, 0.15);
  }
}

class PerturbFSweep : public ::testing::TestWithParam<double> {};

TEST_P(PerturbFSweep, ObservedNoiseVarianceMatchesTheory) {
  // Var of the injected noise at level f: E[sd²] where sd ~ U[0,2f]·σ,
  // i.e. σ²·(2f)²/3.
  const double f = GetParam();
  const Dataset clean = MakeClean(30000);
  const auto stats = clean.ComputeStats();
  PerturbationOptions options;
  options.f = f;
  options.seed = 123;
  const UncertainDataset result = Perturb(clean, options).value();
  for (size_t j = 0; j < 1; ++j) {
    double sq = 0.0;
    for (size_t i = 0; i < clean.NumRows(); ++i) {
      const double noise = result.data.Value(i, j) - clean.Value(i, j);
      sq += noise * noise;
    }
    const double observed_var = sq / static_cast<double>(clean.NumRows());
    const double expected_var =
        stats[j].variance * (4.0 * f * f) / 3.0;
    EXPECT_NEAR(observed_var / stats[j].variance,
                expected_var / stats[j].variance,
                0.15 * (1.0 + expected_var / stats[j].variance));
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, PerturbFSweep,
                         ::testing::Values(0.3, 0.6, 1.2, 2.0, 3.0));

}  // namespace
}  // namespace udm
