#include "classify/metrics.h"

#include <vector>

#include <gtest/gtest.h>

namespace udm {
namespace {

TEST(ConfusionMatrixTest, RecordsAndCounts) {
  ConfusionMatrix m(2);
  m.Record(0, 0);
  m.Record(0, 0);
  m.Record(0, 1);
  m.Record(1, 1);
  EXPECT_EQ(m.At(0, 0), 2u);
  EXPECT_EQ(m.At(0, 1), 1u);
  EXPECT_EQ(m.At(1, 1), 1u);
  EXPECT_EQ(m.At(1, 0), 0u);
  EXPECT_EQ(m.Total(), 4u);
  EXPECT_EQ(m.Correct(), 3u);
  EXPECT_DOUBLE_EQ(m.Accuracy(), 0.75);
}

TEST(ConfusionMatrixTest, EmptyMatrix) {
  ConfusionMatrix m(3);
  EXPECT_EQ(m.Total(), 0u);
  EXPECT_DOUBLE_EQ(m.Accuracy(), 0.0);
}

/// Trivial classifier for harness testing: thresholds the first feature.
class ThresholdClassifier : public Classifier {
 public:
  Result<int> Predict(std::span<const double> x) const override {
    if (x.empty()) return Status::InvalidArgument("empty point");
    return x[0] > 0.0 ? 1 : 0;
  }
  size_t NumClasses() const override { return 2; }
  std::string Name() const override { return "threshold"; }
};

TEST(EvaluateClassifierTest, TalliesAgainstTruth) {
  Dataset test = Dataset::Create(1).value();
  ASSERT_TRUE(test.AppendRow(std::vector<double>{-1.0}, 0).ok());
  ASSERT_TRUE(test.AppendRow(std::vector<double>{-2.0}, 0).ok());
  ASSERT_TRUE(test.AppendRow(std::vector<double>{3.0}, 1).ok());
  ASSERT_TRUE(test.AppendRow(std::vector<double>{4.0}, 0).ok());  // miss
  const ThresholdClassifier classifier;
  const ConfusionMatrix m = EvaluateClassifier(classifier, test).value();
  EXPECT_EQ(m.Total(), 4u);
  EXPECT_EQ(m.Correct(), 3u);
  EXPECT_EQ(m.At(0, 1), 1u);
}

TEST(EvaluateClassifierTest, RejectsOutOfRangeLabels) {
  Dataset test = Dataset::Create(1).value();
  ASSERT_TRUE(test.AppendRow(std::vector<double>{1.0}, 5).ok());
  const ThresholdClassifier classifier;
  EXPECT_FALSE(EvaluateClassifier(classifier, test).ok());

  Dataset unlabeled = Dataset::Create(1).value();
  ASSERT_TRUE(
      unlabeled.AppendRow(std::vector<double>{1.0}, Dataset::kNoLabel).ok());
  EXPECT_FALSE(EvaluateClassifier(classifier, unlabeled).ok());
}

}  // namespace
}  // namespace udm
