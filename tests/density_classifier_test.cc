#include "classify/density_classifier.h"

#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "classify/metrics.h"
#include "common/exec_context.h"
#include "dataset/synthetic.h"
#include "error/perturbation.h"

namespace udm {
namespace {

Dataset SeparableData(size_t n = 600, uint64_t seed = 33,
                      size_t num_classes = 2) {
  MixtureDatasetSpec spec;
  spec.num_dims = 3;
  spec.num_informative_dims = 3;
  spec.clusters_per_class = 1;
  spec.class_separation = 5.0;
  std::vector<double> priors(num_classes, 1.0);
  spec.class_priors = priors;
  spec.seed = seed;
  return MakeMixtureDataset(spec, n).value();
}

TEST(DensityClassifierTest, ValidatesInput) {
  const Dataset d = SeparableData(100);
  // Shape mismatch.
  EXPECT_FALSE(
      DensityBasedClassifier::Train(d, ErrorModel::Zero(99, 3)).ok());
  // Single class.
  Dataset one_class = Dataset::Create(1).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        one_class.AppendRow(std::vector<double>{1.0 * i}, 0).ok());
  }
  EXPECT_FALSE(
      DensityBasedClassifier::Train(one_class, ErrorModel::Zero(10, 1)).ok());
  // Bad threshold.
  DensityBasedClassifier::Options options;
  options.accuracy_threshold = 0.0;
  EXPECT_FALSE(
      DensityBasedClassifier::Train(d, ErrorModel::Zero(100, 3), options)
          .ok());
  // Empty dataset.
  const Dataset empty = Dataset::Create(3).value();
  EXPECT_FALSE(
      DensityBasedClassifier::Train(empty, ErrorModel::Zero(0, 3)).ok());
  // Non-dense labels (class 1 missing).
  Dataset sparse = Dataset::Create(1).value();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sparse.AppendRow(std::vector<double>{1.0 * i}, 0).ok());
    ASSERT_TRUE(sparse.AppendRow(std::vector<double>{1.0 * i + 50}, 2).ok());
  }
  EXPECT_FALSE(
      DensityBasedClassifier::Train(sparse, ErrorModel::Zero(10, 1)).ok());
}

TEST(DensityClassifierTest, NamesDistinguishAdjustment) {
  const Dataset d = SeparableData(100);
  const auto zero = DensityBasedClassifier::Train(
                        d, ErrorModel::Zero(d.NumRows(), d.NumDims()))
                        .value();
  EXPECT_EQ(zero.Name(), "density_no_adjust");
  const ErrorModel nonzero =
      ErrorModel::PerDimension(d.NumRows(), std::vector<double>{0.1, 0.1, 0.1})
          .value();
  const auto adjusted = DensityBasedClassifier::Train(d, nonzero).value();
  EXPECT_EQ(adjusted.Name(), "density_error_adjusted");
}

TEST(DensityClassifierTest, ClassifiesCleanSeparableData) {
  const Dataset d = SeparableData(600);
  DensityBasedClassifier::Options options;
  options.num_clusters = 60;
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  const ConfusionMatrix matrix = EvaluateClassifier(classifier, d).value();
  EXPECT_GT(matrix.Accuracy(), 0.9);
}

TEST(DensityClassifierTest, PredictDimensionMismatch) {
  const Dataset d = SeparableData(100);
  const auto classifier =
      DensityBasedClassifier::Train(d,
                                    ErrorModel::Zero(d.NumRows(), d.NumDims()))
          .value();
  EXPECT_FALSE(classifier.Predict(std::vector<double>{1.0}).ok());
}

TEST(DensityClassifierTest, ExplanationRulesAreDisjointAndSorted) {
  const Dataset d = SeparableData(600);
  DensityBasedClassifier::Options options;
  options.num_clusters = 60;
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  const auto explanation = classifier.Explain(d.Row(0)).value();
  std::set<size_t> used;
  double previous = std::numeric_limits<double>::infinity();
  for (const auto& rule : explanation.selected) {
    EXPECT_LE(rule.log_accuracy, previous);
    previous = rule.log_accuracy;
    for (size_t dim : rule.dims) {
      EXPECT_TRUE(used.insert(dim).second) << "overlapping dim " << dim;
    }
  }
}

TEST(DensityClassifierTest, HugeThresholdTriggersFallback) {
  const Dataset d = SeparableData(300);
  DensityBasedClassifier::Options options;
  options.num_clusters = 40;
  options.accuracy_threshold = 1e9;  // nothing qualifies
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  const auto explanation = classifier.Explain(d.Row(0)).value();
  EXPECT_TRUE(explanation.used_fallback);
  EXPECT_TRUE(explanation.selected.empty());
  // Fallback still classifies separable data correctly most of the time.
  const ConfusionMatrix matrix = EvaluateClassifier(classifier, d).value();
  EXPECT_GT(matrix.Accuracy(), 0.8);
}

TEST(DensityClassifierTest, ForcedFallbackChargesSingletonsAndClassModels) {
  // Every class holds more rows than q, so each model has exactly q
  // pseudo-points. Nothing qualifies: the roll-up scores the d singletons
  // (global + class models each) and the fallback reads the class models
  // over all d dimensions — no global read.
  constexpr size_t kClusters = 40;
  const Dataset d = SeparableData(300);
  DensityBasedClassifier::Options options;
  options.num_clusters = kClusters;
  options.accuracy_threshold = 1e12;
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  for (int c = 0; c < 2; ++c) {
    ASSERT_GT(d.IndicesOfLabel(c).size(), kClusters);
  }
  const size_t dims = d.NumDims();
  const size_t class_terms = 2 * kClusters;
  ExecContext ctx;
  const auto explanation = classifier.Explain(d.Row(0), ctx).value();
  ASSERT_TRUE(explanation.used_fallback);
  EXPECT_EQ(ctx.kernel_evals_spent(),
            dims * (kClusters + class_terms) + dims * class_terms);
}

TEST(DensityClassifierTest, MaxSelectedSubspacesHonored) {
  const Dataset d = SeparableData(300);
  DensityBasedClassifier::Options options;
  options.num_clusters = 40;
  options.max_selected_subspaces = 1;
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  const auto explanation = classifier.Explain(d.Row(5)).value();
  EXPECT_LE(explanation.selected.size(), 1u);
}

TEST(DensityClassifierTest, MaxSubspaceDimHonored) {
  const Dataset d = SeparableData(300);
  DensityBasedClassifier::Options options;
  options.num_clusters = 40;
  options.max_subspace_dim = 1;
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  const auto explanation = classifier.Explain(d.Row(5)).value();
  for (const auto& rule : explanation.selected) {
    EXPECT_EQ(rule.dims.size(), 1u);
  }
}

TEST(DensityClassifierTest, LogLocalAccuracyFavorsTheRightClass) {
  const Dataset d = SeparableData(600);
  const auto classifier =
      DensityBasedClassifier::Train(d,
                                    ErrorModel::Zero(d.NumRows(), d.NumDims()))
          .value();
  const std::vector<size_t> all_dims{0, 1, 2};
  size_t correct = 0;
  size_t tested = 0;
  for (size_t i = 0; i < d.NumRows(); i += 20) {
    const double acc0 = classifier.LogLocalAccuracy(d.Row(i), all_dims, 0);
    const double acc1 = classifier.LogLocalAccuracy(d.Row(i), all_dims, 1);
    const int predicted = acc0 > acc1 ? 0 : 1;
    correct += (predicted == d.Label(i)) ? 1 : 0;
    ++tested;
  }
  EXPECT_GT(static_cast<double>(correct) / tested, 0.9);
}

TEST(DensityClassifierTest, MultiClass) {
  const Dataset d = SeparableData(900, 41, 3);
  DensityBasedClassifier::Options options;
  options.num_clusters = 60;
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  EXPECT_EQ(classifier.NumClasses(), 3u);
  const ConfusionMatrix matrix = EvaluateClassifier(classifier, d).value();
  EXPECT_GT(matrix.Accuracy(), 0.8);
}

TEST(DensityClassifierTest, ErrorAdjustmentHelpsUnderHeavyNoise) {
  // The paper's headline claim (Figs. 4/6): at high f the error-adjusted
  // classifier beats the same classifier with errors ignored. Averaged
  // over several seeds to keep the test robust.
  double adjusted_total = 0.0;
  double unadjusted_total = 0.0;
  const int trials = 3;
  for (int t = 0; t < trials; ++t) {
    MixtureDatasetSpec spec;
    spec.num_dims = 4;
    spec.num_informative_dims = 4;
    spec.clusters_per_class = 1;
    spec.class_separation = 4.0;
    spec.seed = 100 + t;
    const Dataset clean = MakeMixtureDataset(spec, 1200).value();
    PerturbationOptions perturb;
    perturb.f = 2.0;
    perturb.seed = 200 + t;
    const UncertainDataset uncertain = Perturb(clean, perturb).value();

    // Hold out the last quarter as the test set (uses true labels).
    std::vector<size_t> train_idx, test_idx;
    for (size_t i = 0; i < clean.NumRows(); ++i) {
      (i < 900 ? train_idx : test_idx).push_back(i);
    }
    const Dataset train = uncertain.data.Select(train_idx);
    const ErrorModel train_errors = uncertain.errors.Select(train_idx);
    const Dataset test = uncertain.data.Select(test_idx);

    DensityBasedClassifier::Options options;
    options.num_clusters = 80;
    const auto adjusted =
        DensityBasedClassifier::Train(train, train_errors, options).value();
    const auto unadjusted =
        DensityBasedClassifier::Train(
            train, ErrorModel::Zero(train.NumRows(), train.NumDims()), options)
            .value();
    adjusted_total += EvaluateClassifier(adjusted, test).value().Accuracy();
    unadjusted_total +=
        EvaluateClassifier(unadjusted, test).value().Accuracy();
  }
  EXPECT_GT(adjusted_total / trials, unadjusted_total / trials);
}

}  // namespace
}  // namespace udm
