#include "classify/nn_classifier.h"

#include <vector>

#include <gtest/gtest.h>

#include "classify/metrics.h"
#include "dataset/synthetic.h"

namespace udm {
namespace {

Dataset TwoBlobs() {
  Dataset d = Dataset::Create(2).value();
  EXPECT_TRUE(d.AppendRow(std::vector<double>{0.0, 0.0}, 0).ok());
  EXPECT_TRUE(d.AppendRow(std::vector<double>{0.5, 0.2}, 0).ok());
  EXPECT_TRUE(d.AppendRow(std::vector<double>{0.1, 0.6}, 0).ok());
  EXPECT_TRUE(d.AppendRow(std::vector<double>{10.0, 10.0}, 1).ok());
  EXPECT_TRUE(d.AppendRow(std::vector<double>{10.5, 9.8}, 1).ok());
  EXPECT_TRUE(d.AppendRow(std::vector<double>{9.7, 10.4}, 1).ok());
  return d;
}

TEST(NnClassifierTest, ValidatesInput) {
  const Dataset empty = Dataset::Create(2).value();
  EXPECT_FALSE(NnClassifier::Train(empty).ok());

  NnClassifier::Options options;
  options.k = 0;
  EXPECT_FALSE(NnClassifier::Train(TwoBlobs(), options).ok());

  Dataset unlabeled = Dataset::Create(1).value();
  ASSERT_TRUE(
      unlabeled.AppendRow(std::vector<double>{1.0}, Dataset::kNoLabel).ok());
  EXPECT_FALSE(NnClassifier::Train(unlabeled).ok());
}

TEST(NnClassifierTest, NameFollowsTheMetric) {
  EXPECT_EQ(NnClassifier::Train(TwoBlobs()).value().Name(), "nn");
  EXPECT_EQ(NnClassifier::Train(TwoBlobs(), ErrorModel::Zero(6, 2))
                .value()
                .Name(),
            "error_aware_nn");
}

TEST(NnClassifierTest, PredictsNearestBlob) {
  const NnClassifier nn = NnClassifier::Train(TwoBlobs()).value();
  EXPECT_EQ(nn.NumClasses(), 2u);
  EXPECT_EQ(nn.Name(), "nn");
  EXPECT_EQ(nn.Predict(std::vector<double>{0.2, 0.3}).value(), 0);
  EXPECT_EQ(nn.Predict(std::vector<double>{9.9, 10.1}).value(), 1);
}

TEST(NnClassifierTest, ExactTrainingPointsClassifyToThemselves) {
  const Dataset d = TwoBlobs();
  const NnClassifier nn = NnClassifier::Train(d).value();
  for (size_t i = 0; i < d.NumRows(); ++i) {
    EXPECT_EQ(nn.Predict(d.Row(i)).value(), d.Label(i));
  }
}

TEST(NnClassifierTest, DimensionMismatchIsError) {
  const NnClassifier nn = NnClassifier::Train(TwoBlobs()).value();
  const auto result = nn.Predict(std::vector<double>{1.0});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(NnClassifierTest, KMajorityOverridesSingleOutlier) {
  // One mislabeled point inside the class-0 blob: k=1 gets fooled near it,
  // k=3 does not.
  Dataset d = TwoBlobs();
  ASSERT_TRUE(d.AppendRow(std::vector<double>{0.2, 0.1}, 1).ok());

  const NnClassifier nn1 = NnClassifier::Train(d).value();
  NnClassifier::Options options;
  options.k = 3;
  const NnClassifier nn3 = NnClassifier::Train(d, options).value();

  const std::vector<double> query{0.19, 0.11};
  EXPECT_EQ(nn1.Predict(query).value(), 1);
  EXPECT_EQ(nn3.Predict(query).value(), 0);
}

TEST(NnClassifierTest, KLargerThanNIsClamped) {
  NnClassifier::Options options;
  options.k = 100;
  const NnClassifier nn = NnClassifier::Train(TwoBlobs(), options).value();
  // Majority over all 6 points: tie 3-3 -> lowest class index wins.
  EXPECT_EQ(nn.Predict(std::vector<double>{5.0, 5.0}).value(), 0);
}

TEST(NnClassifierTest, HighAccuracyOnSeparableData) {
  MixtureDatasetSpec spec;
  spec.num_dims = 2;
  spec.clusters_per_class = 1;
  spec.class_separation = 6.0;
  spec.seed = 21;
  const Dataset all = MakeMixtureDataset(spec, 700).value();
  std::vector<size_t> train_idx, test_idx;
  for (size_t i = 0; i < all.NumRows(); ++i) {
    (i < 500 ? train_idx : test_idx).push_back(i);
  }
  const Dataset train = all.Select(train_idx);
  const Dataset test = all.Select(test_idx);
  const NnClassifier nn = NnClassifier::Train(train).value();
  const ConfusionMatrix matrix = EvaluateClassifier(nn, test).value();
  EXPECT_GT(matrix.Accuracy(), 0.9);
}

}  // namespace
}  // namespace udm
