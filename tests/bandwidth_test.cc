#include "kde/bandwidth.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dataset/synthetic.h"

namespace udm {
namespace {

TEST(BandwidthTest, SilvermanFormula) {
  // h = 1.06 · σ · N^{-1/5}
  EXPECT_NEAR(SilvermanBandwidth(2.0, 100000), 1.06 * 2.0 * std::pow(1e5, -0.2),
              1e-12);
  EXPECT_NEAR(SilvermanBandwidth(1.0, 1), 1.06, 1e-12);
}

TEST(BandwidthTest, SilvermanShrinksWithN) {
  const double h_small = SilvermanBandwidth(1.0, 100);
  const double h_large = SilvermanBandwidth(1.0, 100000);
  EXPECT_GT(h_small, h_large);
  // N^{-1/5}: a 1000x N increase shrinks h by 1000^{1/5} ≈ 3.98.
  EXPECT_NEAR(h_small / h_large, std::pow(1000.0, 0.2), 1e-9);
}

TEST(BandwidthTest, ZeroSigmaFallsBackToMinimum) {
  EXPECT_DOUBLE_EQ(SilvermanBandwidth(0.0, 100), 1e-9);
  EXPECT_DOUBLE_EQ(SilvermanBandwidth(0.0, 100, 0.5), 0.5);
}

TEST(BandwidthTest, ComputeBandwidthsMatchesPerDimStats) {
  MixtureDatasetSpec spec;
  spec.num_dims = 2;
  spec.num_informative_dims = 1;
  spec.dim_scales = {1.0, 10.0};
  spec.seed = 3;
  const Dataset d = MakeMixtureDataset(spec, 5000).value();
  const auto stats = d.ComputeStats();
  const std::vector<double> h = ComputeBandwidths(d);
  ASSERT_EQ(h.size(), 2u);
  for (size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(h[j], SilvermanBandwidth(stats[j].stddev, d.NumRows()),
                1e-12);
  }
  // Dimension scales propagate into bandwidths.
  EXPECT_GT(h[1], h[0]);
}

TEST(BandwidthTest, ScaleMultiplies) {
  MixtureDatasetSpec spec;
  spec.seed = 4;
  const Dataset d = MakeMixtureDataset(spec, 1000).value();
  const auto h1 = ComputeBandwidths(d, 1.0);
  const auto h2 = ComputeBandwidths(d, 2.0);
  for (size_t j = 0; j < h1.size(); ++j) {
    EXPECT_NEAR(h2[j], 2.0 * h1[j], 1e-12);
  }
}

class BandwidthNSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BandwidthNSweep, PositiveAndDecreasing) {
  const size_t n = GetParam();
  const double h = SilvermanBandwidth(1.0, n);
  EXPECT_GT(h, 0.0);
  EXPECT_LE(h, 1.06);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BandwidthNSweep,
                         ::testing::Values(1u, 10u, 1000u, 100000u,
                                           10000000u));

}  // namespace
}  // namespace udm
