#include "outlier/outlier.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace udm {
namespace {

/// A dense blob plus one planted outlier at the end.
Dataset BlobWithOutlier(Rng* rng, size_t blob = 80) {
  Dataset d = Dataset::Create(2).value();
  for (size_t i = 0; i < blob; ++i) {
    EXPECT_TRUE(d.AppendRow(std::vector<double>{rng->Gaussian(0.0, 1.0),
                                                rng->Gaussian(0.0, 1.0)},
                            0)
                    .ok());
  }
  EXPECT_TRUE(d.AppendRow(std::vector<double>{25.0, 25.0}, 0).ok());
  return d;
}

TEST(OutlierTest, ValidatesInput) {
  const Dataset empty = Dataset::Create(1).value();
  EXPECT_FALSE(ScoreOutliers(empty, ErrorModel::Zero(0, 1)).ok());
  Rng rng(1);
  const Dataset d = BlobWithOutlier(&rng);
  EXPECT_FALSE(ScoreOutliers(d, ErrorModel::Zero(2, 2)).ok());
}

TEST(OutlierTest, PlantedOutlierRanksFirst) {
  Rng rng(2);
  const Dataset d = BlobWithOutlier(&rng);
  const OutlierScores scores =
      ScoreOutliers(d, ErrorModel::Zero(d.NumRows(), 2)).value();
  ASSERT_EQ(scores.scores.size(), d.NumRows());
  EXPECT_EQ(scores.ranking[0], d.NumRows() - 1);
}

TEST(OutlierTest, RankingIsSortedByScore) {
  Rng rng(3);
  const Dataset d = BlobWithOutlier(&rng);
  const OutlierScores scores =
      ScoreOutliers(d, ErrorModel::Zero(d.NumRows(), 2)).value();
  for (size_t i = 1; i < scores.ranking.size(); ++i) {
    EXPECT_GE(scores.scores[scores.ranking[i - 1]],
              scores.scores[scores.ranking[i]]);
  }
}

TEST(OutlierTest, TopOutliersTruncates) {
  Rng rng(4);
  const Dataset d = BlobWithOutlier(&rng);
  const std::vector<size_t> top =
      TopOutliers(d, ErrorModel::Zero(d.NumRows(), 2), 3).value();
  EXPECT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], d.NumRows() - 1);
}

TEST(OutlierTest, LeaveOneOutUnmasksIsolatedPoints) {
  // With very few points the self-kernel dominates; leave-one-out scoring
  // must still rank the isolated point first, and score it above the plain
  // full-data density (self-bump removed).
  Dataset d = Dataset::Create(1).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(d.AppendRow(std::vector<double>{0.1 * i}, 0).ok());
  }
  ASSERT_TRUE(d.AppendRow(std::vector<double>{50.0}, 0).ok());

  const ErrorModel zero = ErrorModel::Zero(d.NumRows(), 1);
  const OutlierScores scores = ScoreOutliers(d, zero).value();
  EXPECT_EQ(scores.ranking[0], d.NumRows() - 1);

  const ErrorKernelDensity kde = ErrorKernelDensity::Fit(d, zero).value();
  const std::vector<size_t> dims{0};
  const double naive = -kde.LogEvaluateSubspace(d.Row(d.NumRows() - 1), dims);
  EXPECT_GT(scores.scores[d.NumRows() - 1], naive);
}

TEST(OutlierTest, MicroClusterPathAgreesOnTheTopOutlier) {
  Rng rng(5);
  const Dataset d = BlobWithOutlier(&rng, 300);
  OutlierOptions options;
  options.num_clusters = 40;
  const OutlierScores scores =
      ScoreOutliers(d, ErrorModel::Zero(d.NumRows(), 2), options).value();
  EXPECT_EQ(scores.ranking[0], d.NumRows() - 1);
}

TEST(OutlierTest, DataUncertaintySoftensOutlierScores) {
  // The error-adjusted density widens every data point's kernel by its own
  // ψ, so when the *data* is uncertain a borderline point is less
  // anomalous: the blob's widened bumps reach it.
  Rng rng(6);
  Dataset d = Dataset::Create(1).value();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(d.AppendRow(std::vector<double>{rng.Gaussian(0.0, 1.0)}, 0)
                    .ok());
  }
  ASSERT_TRUE(d.AppendRow(std::vector<double>{4.0}, 0).ok());  // borderline

  const ErrorModel confident = ErrorModel::Zero(d.NumRows(), 1);
  ErrorModel uncertain = ErrorModel::Zero(d.NumRows(), 1);
  for (size_t i = 0; i + 1 < d.NumRows(); ++i) uncertain.SetPsi(i, 0, 2.0);

  const OutlierScores sharp = ScoreOutliers(d, confident).value();
  const OutlierScores soft = ScoreOutliers(d, uncertain).value();
  EXPECT_GT(sharp.scores[d.NumRows() - 1], soft.scores[d.NumRows() - 1]);
}

}  // namespace
}  // namespace udm
