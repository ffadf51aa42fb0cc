#include "microcluster/clustream.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dataset/synthetic.h"
#include "error/perturbation.h"
#include "golden_digest.h"
#include "microcluster/mc_density.h"

namespace udm {
namespace {

TEST(CluStreamTest, ValidatesOptions) {
  EXPECT_FALSE(CluStreamMaintainer::Create(0).ok());
  CluStreamMaintainer::Options options;
  options.num_clusters = 1;
  EXPECT_FALSE(CluStreamMaintainer::Create(2, options).ok());
  options = CluStreamMaintainer::Options();
  options.boundary_factor = 0.0;
  EXPECT_FALSE(CluStreamMaintainer::Create(2, options).ok());
}

TEST(CluStreamTest, AbsorbsNearbyPoints) {
  CluStreamMaintainer::Options options;
  options.num_clusters = 10;
  CluStreamMaintainer maintainer =
      CluStreamMaintainer::Create(1, options).value();
  const std::vector<double> psi{0.0};
  maintainer.Add(std::vector<double>{0.0}, psi);
  maintainer.Add(std::vector<double>{100.0}, psi);
  // Points near an existing centroid join it: each lands within the
  // evolving boundary (singleton boundary = distance to the other
  // centroid; later, boundary_factor x RMS deviation).
  for (double x : {0.4, 0.3, 0.1}) {
    maintainer.Add(std::vector<double>{x}, psi);
  }
  EXPECT_EQ(maintainer.clusters().size(), 2u);
  EXPECT_EQ(maintainer.clusters()[0].Count(), 4u);
  EXPECT_EQ(maintainer.clusters()[1].Count(), 1u);
}

TEST(CluStreamTest, OutlierCreatesNewCluster) {
  CluStreamMaintainer::Options options;
  options.num_clusters = 10;
  CluStreamMaintainer maintainer =
      CluStreamMaintainer::Create(1, options).value();
  const std::vector<double> psi{0.0};
  // Seed two clusters far apart, then grow the first.
  maintainer.Add(std::vector<double>{0.0}, psi);
  maintainer.Add(std::vector<double>{100.0}, psi);
  maintainer.Add(std::vector<double>{0.05}, psi);
  ASSERT_EQ(maintainer.clusters().size(), 2u);
  // A point far outside every boundary founds a third cluster — the
  // behavior the paper's maintainer deliberately does NOT have.
  maintainer.Add(std::vector<double>{500.0}, psi);
  EXPECT_EQ(maintainer.clusters().size(), 3u);
  EXPECT_GE(maintainer.num_creations(), 3u);
}

TEST(CluStreamTest, BudgetEnforcedByMerging) {
  CluStreamMaintainer::Options options;
  options.num_clusters = 3;
  options.boundary_factor = 0.5;
  CluStreamMaintainer maintainer =
      CluStreamMaintainer::Create(1, options).value();
  const std::vector<double> psi{0.0};
  // Far-apart points force creations beyond the budget.
  for (double x : {0.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0}) {
    maintainer.Add(std::vector<double>{x}, psi);
  }
  EXPECT_LE(maintainer.clusters().size(), 3u);
  EXPECT_GT(maintainer.num_merges(), 0u);
  // No point is ever dropped — counts still sum to the input size.
  uint64_t total = 0;
  for (const MicroCluster& c : maintainer.clusters()) total += c.Count();
  EXPECT_EQ(total, 6u);
}

TEST(CluStreamTest, MergePreservesAdditiveStatistics) {
  CluStreamMaintainer::Options options;
  options.num_clusters = 2;
  options.boundary_factor = 0.1;
  CluStreamMaintainer maintainer =
      CluStreamMaintainer::Create(1, options).value();
  const std::vector<double> psi{0.5};
  const std::vector<double> xs{1.0, 5.0, 20.0, 60.0, 200.0};
  for (double x : xs) maintainer.Add(std::vector<double>{x}, psi);

  double cf1 = 0.0;
  double cf2 = 0.0;
  double ef2 = 0.0;
  for (const MicroCluster& c : maintainer.clusters()) {
    cf1 += c.cf1()[0];
    cf2 += c.cf2()[0];
    ef2 += c.ef2()[0];
  }
  double expected_cf1 = 0.0;
  double expected_cf2 = 0.0;
  for (double x : xs) {
    expected_cf1 += x;
    expected_cf2 += x * x;
  }
  EXPECT_NEAR(cf1, expected_cf1, 1e-9);
  EXPECT_NEAR(cf2, expected_cf2, 1e-9);
  EXPECT_NEAR(ef2, xs.size() * 0.25, 1e-9);
}

TEST(CluStreamTest, SummaryFeedsTheDensityModel) {
  MixtureDatasetSpec spec;
  spec.num_dims = 2;
  spec.seed = 41;
  const Dataset clean = MakeMixtureDataset(spec, 3000).value();
  PerturbationOptions perturb;
  perturb.f = 1.0;
  const UncertainDataset u = Perturb(clean, perturb).value();

  CluStreamMaintainer::Options options;
  options.num_clusters = 60;
  CluStreamMaintainer maintainer =
      CluStreamMaintainer::Create(2, options).value();
  ASSERT_TRUE(maintainer.AddDataset(u.data, u.errors).ok());
  EXPECT_LE(maintainer.clusters().size(), 60u);

  const McDensityModel model =
      McDensityModel::Build(maintainer.clusters()).value();
  EXPECT_EQ(model.total_count(), 3000u);
  for (size_t i = 0; i < u.data.NumRows(); i += 500) {
    EXPECT_GT(model.Evaluate(u.data.Row(i)), 0.0);
  }
}

TEST(CluStreamTest, AddDatasetValidatesShapes) {
  CluStreamMaintainer maintainer = CluStreamMaintainer::Create(2).value();
  MixtureDatasetSpec spec;
  spec.num_dims = 2;
  spec.seed = 42;
  const Dataset d = MakeMixtureDataset(spec, 10).value();
  EXPECT_FALSE(maintainer.AddDataset(d, ErrorModel::Zero(9, 2)).ok());
}

// Golden byte identity (DESIGN.md §4k): the CluStream baseline's clusters,
// creations and merges match the recorded digests at every SIMD level.
TEST(CluStreamGoldenTest, ClustersAreByteIdentical) {
  if (!golden::DigestsApply()) GTEST_SKIP() << golden::kDigestsSkipped;
  const UncertainDataset u = golden::ForestLike(3000);
  for (const AssignmentDistance distance :
       {AssignmentDistance::kErrorAdjusted, AssignmentDistance::kEuclidean}) {
    CluStreamMaintainer::Options options;
    options.num_clusters = 50;
    options.distance = distance;
    CluStreamMaintainer maintainer =
        CluStreamMaintainer::Create(u.data.NumDims(), options).value();
    ASSERT_TRUE(maintainer.AddDataset(u.data, u.errors).ok());
    golden::Digest digest;
    digest.Clusters(maintainer.clusters());
    digest.U64(maintainer.num_creations());
    digest.U64(maintainer.num_merges());
    const char* want = distance == AssignmentDistance::kErrorAdjusted
                           ? "0x0dc75b3fcfadbb70"
                           : "0xaac3644fe5b2728f";
    EXPECT_EQ(golden::Hex(digest.value()), want);
  }
}

}  // namespace
}  // namespace udm
