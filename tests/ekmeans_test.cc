#include "cluster/ekmeans.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "golden_digest.h"

namespace udm {
namespace {

Dataset TwoBlobs(Rng* rng, size_t per_blob = 50) {
  Dataset d = Dataset::Create(2).value();
  for (size_t i = 0; i < per_blob; ++i) {
    EXPECT_TRUE(d.AppendRow(std::vector<double>{rng->Gaussian(0.0, 0.5),
                                                rng->Gaussian(0.0, 0.5)},
                            0)
                    .ok());
  }
  for (size_t i = 0; i < per_blob; ++i) {
    EXPECT_TRUE(d.AppendRow(std::vector<double>{rng->Gaussian(8.0, 0.5),
                                                rng->Gaussian(8.0, 0.5)},
                            1)
                    .ok());
  }
  return d;
}

TEST(EkmeansTest, ValidatesInput) {
  const Dataset empty = Dataset::Create(2).value();
  ErrorKMeansOptions options;
  EXPECT_FALSE(ErrorKMeans(empty, ErrorModel::Zero(0, 2), options).ok());

  Rng rng(1);
  const Dataset d = TwoBlobs(&rng);
  EXPECT_FALSE(ErrorKMeans(d, ErrorModel::Zero(3, 2), options).ok());
  options.k = 0;
  EXPECT_FALSE(
      ErrorKMeans(d, ErrorModel::Zero(d.NumRows(), 2), options).ok());
  options.k = d.NumRows() + 1;
  EXPECT_FALSE(
      ErrorKMeans(d, ErrorModel::Zero(d.NumRows(), 2), options).ok());
}

TEST(EkmeansTest, RecoversSeparatedBlobs) {
  Rng rng(2);
  const Dataset d = TwoBlobs(&rng);
  ErrorKMeansOptions options;
  options.k = 2;
  const KMeansResult result =
      ErrorKMeans(d, ErrorModel::Zero(d.NumRows(), 2), options).value();
  EXPECT_TRUE(result.converged);
  // All members of a blob share an assignment, blobs differ.
  const int a = result.assignments[0];
  const int b = result.assignments[50];
  EXPECT_NE(a, b);
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(result.assignments[i], a);
  for (size_t i = 50; i < 100; ++i) EXPECT_EQ(result.assignments[i], b);
  // Centroids land near the blob centers.
  const double c0x = result.centroids[static_cast<size_t>(a) * 2];
  const double c1x = result.centroids[static_cast<size_t>(b) * 2];
  EXPECT_NEAR(c0x, 0.0, 0.5);
  EXPECT_NEAR(c1x, 8.0, 0.5);
}

TEST(EkmeansTest, KEqualsOneGivesGlobalMean) {
  Rng rng(3);
  const Dataset d = TwoBlobs(&rng);
  ErrorKMeansOptions options;
  options.k = 1;
  const KMeansResult result =
      ErrorKMeans(d, ErrorModel::Zero(d.NumRows(), 2), options).value();
  const auto stats = d.ComputeStats();
  EXPECT_NEAR(result.centroids[0], stats[0].mean, 1e-9);
  EXPECT_NEAR(result.centroids[1], stats[1].mean, 1e-9);
}

TEST(EkmeansTest, DeterministicUnderSeed) {
  Rng rng(4);
  const Dataset d = TwoBlobs(&rng);
  ErrorKMeansOptions options;
  options.k = 2;
  options.seed = 99;
  const KMeansResult a =
      ErrorKMeans(d, ErrorModel::Zero(d.NumRows(), 2), options).value();
  const KMeansResult b =
      ErrorKMeans(d, ErrorModel::Zero(d.NumRows(), 2), options).value();
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(EkmeansTest, InertiaIsNonNegativeAndSmallForTightBlobs) {
  Rng rng(5);
  const Dataset d = TwoBlobs(&rng);
  ErrorKMeansOptions options;
  options.k = 2;
  const KMeansResult result =
      ErrorKMeans(d, ErrorModel::Zero(d.NumRows(), 2), options).value();
  EXPECT_GE(result.inertia, 0.0);
  EXPECT_LT(result.inertia / d.NumRows(), 2.0);  // within-blob var ~0.5
}

TEST(EkmeansTest, ErrorAdjustedAssignmentFollowsFigure2) {
  // Build the Figure 2 situation as data: an uncertain point whose error
  // ellipse reaches the far blob flips its assignment when the
  // error-adjusted metric is used.
  Dataset d = Dataset::Create(2).value();
  // Tight anchor blobs to pin the centroids.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(d.AppendRow(std::vector<double>{6.0 + 0.01 * i, 0.0}, 0).ok());
    ASSERT_TRUE(d.AppendRow(std::vector<double>{0.0, 3.0 + 0.01 * i}, 1).ok());
  }
  // The uncertain point at the origin: Euclidean-nearer to blob B (dist 3)
  // than blob A (dist 6), but with ψ_x = 6 the adjusted distance to A is 0.
  ASSERT_TRUE(d.AppendRow(std::vector<double>{0.0, 0.0}, 0).ok());
  ErrorModel errors = ErrorModel::Zero(d.NumRows(), 2);
  errors.SetPsi(60, 0, 6.0);

  ErrorKMeansOptions adjusted_options;
  adjusted_options.k = 2;
  adjusted_options.seed = 7;
  const KMeansResult adjusted = ErrorKMeans(d, errors, adjusted_options).value();

  ErrorKMeansOptions euclidean_options = adjusted_options;
  euclidean_options.distance = AssignmentDistance::kEuclidean;
  const KMeansResult euclidean =
      ErrorKMeans(d, errors, euclidean_options).value();

  // Identify which cluster holds the A anchors in each run.
  const int a_cluster_adjusted = adjusted.assignments[0];
  const int a_cluster_euclidean = euclidean.assignments[0];
  EXPECT_EQ(adjusted.assignments[60], a_cluster_adjusted);
  EXPECT_NE(euclidean.assignments[60], a_cluster_euclidean);
}

class EkmeansKSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(EkmeansKSweep, AssignmentsInRange) {
  Rng rng(6);
  const Dataset d = TwoBlobs(&rng);
  ErrorKMeansOptions options;
  options.k = GetParam();
  const KMeansResult result =
      ErrorKMeans(d, ErrorModel::Zero(d.NumRows(), 2), options).value();
  ASSERT_EQ(result.assignments.size(), d.NumRows());
  for (int a : result.assignments) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, static_cast<int>(options.k));
  }
  EXPECT_EQ(result.centroids.size(), options.k * 2);
}

INSTANTIATE_TEST_SUITE_P(Ks, EkmeansKSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 10u));

// Golden byte identity (DESIGN.md §4k): assignments, centroids, inertia and
// iteration count match the recorded digests at every SIMD level.
TEST(EkmeansGoldenTest, AssignmentsAndCentroidsAreByteIdentical) {
  if (!golden::DigestsApply()) GTEST_SKIP() << golden::kDigestsSkipped;
  const UncertainDataset u = golden::ForestLike(2000);
  for (const AssignmentDistance distance :
       {AssignmentDistance::kErrorAdjusted, AssignmentDistance::kEuclidean}) {
    ErrorKMeansOptions options;
    options.k = 7;
    options.distance = distance;
    const KMeansResult result = ErrorKMeans(u.data, u.errors, options).value();
    golden::Digest digest;
    for (int a : result.assignments) digest.U64(static_cast<uint64_t>(a));
    digest.Doubles(result.centroids);
    digest.Double(result.inertia);
    digest.U64(result.iterations);
    const char* want = distance == AssignmentDistance::kErrorAdjusted
                           ? "0x286e4470e8aa4c9d"
                           : "0x8611a93275d7ae6b";
    EXPECT_EQ(golden::Hex(digest.value()), want);
  }
}

}  // namespace
}  // namespace udm
