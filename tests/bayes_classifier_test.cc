// The full-dimensional Bayes rule argmax_c log|D_c| + log g(x, D_c):
// DensityBasedClassifier::PredictBayes, the roll-up's fallback.

#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "classify/density_classifier.h"
#include "dataset/synthetic.h"
#include "error/perturbation.h"
#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"

namespace udm {
namespace {

Dataset Separable(size_t n, uint64_t seed) {
  MixtureDatasetSpec spec;
  spec.num_dims = 3;
  spec.num_informative_dims = 3;
  spec.clusters_per_class = 1;
  spec.class_separation = 5.0;
  spec.seed = seed;
  return MakeMixtureDataset(spec, n).value();
}

TEST(BayesClassifierTest, ClassifiesSeparableData) {
  const Dataset d = Separable(600, 21);
  const auto classifier =
      DensityBasedClassifier::Train(d,
                                    ErrorModel::Zero(d.NumRows(), d.NumDims()))
          .value();
  size_t correct = 0;
  for (size_t i = 0; i < d.NumRows(); ++i) {
    if (classifier.PredictBayes(d.Row(i)).value() == d.Label(i)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / d.NumRows(), 0.95);
}

TEST(BayesClassifierTest, DimensionMismatch) {
  const Dataset d = Separable(100, 21);
  const auto classifier =
      DensityBasedClassifier::Train(d,
                                    ErrorModel::Zero(d.NumRows(), d.NumDims()))
          .value();
  EXPECT_FALSE(classifier.PredictBayes(std::vector<double>{1.0}).ok());
  EXPECT_FALSE(
      classifier.PredictBayes(std::vector<double>{1.0, 2.0, 3.0, 4.0}).ok());
}

TEST(BayesClassifierTest, MatchesRollUpFallbackBehavior) {
  // With an unreachable threshold every prediction is the full-dimensional
  // fallback, which must be the Bayes rule argmax_c log|D_c| + log g(x, D_c).
  // The reference builds the per-class models here, independently of the
  // classifier, and is checked on every row.
  const Dataset clean = Separable(500, 33);
  PerturbationOptions perturb;
  perturb.f = 1.0;
  const UncertainDataset u = Perturb(clean, perturb).value();

  DensityBasedClassifier::Options options;
  options.num_clusters = 60;
  options.accuracy_threshold = 1e12;
  const auto rollup =
      DensityBasedClassifier::Train(u.data, u.errors, options).value();

  MicroClusterer::Options clustering;
  clustering.num_clusters = 60;
  std::vector<McDensityModel> models;
  std::vector<double> log_counts;
  for (int c = 0; c < 2; ++c) {
    const std::vector<size_t> rows = u.data.IndicesOfLabel(c);
    models.push_back(
        McDensityModel::Build(BuildMicroClusters(u.data.Select(rows),
                                                 u.errors.Select(rows),
                                                 clustering)
                                  .value())
            .value());
    log_counts.push_back(std::log(static_cast<double>(rows.size())));
  }
  const std::vector<size_t> all_dims{0, 1, 2};
  for (size_t i = 0; i < u.data.NumRows(); ++i) {
    const std::span<const double> x = u.data.Row(i);
    int expected = 0;
    double best = 0.0;
    for (size_t c = 0; c < models.size(); ++c) {
      const double score =
          log_counts[c] + models[c].LogEvaluateSubspace(x, all_dims);
      if (c == 0 || score > best) {
        expected = static_cast<int>(c);
        best = score;
      }
    }
    const auto explanation = rollup.Explain(x).value();
    EXPECT_EQ(explanation.used_fallback, DensityBasedClassifier::kBayes)
        << "row " << i;
    EXPECT_EQ(explanation.predicted, expected) << "row " << i;
    EXPECT_EQ(rollup.PredictBayes(x).value(), expected) << "row " << i;
  }
}

}  // namespace
}  // namespace udm
