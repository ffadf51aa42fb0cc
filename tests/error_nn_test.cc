// The error-aware nearest-neighbor rule of Eq. 5: NnClassifier trained
// with a per-entry error model ψ.

#include <vector>

#include <gtest/gtest.h>

#include "classify/metrics.h"
#include "classify/nn_classifier.h"
#include "dataset/synthetic.h"
#include "error/perturbation.h"

namespace udm {
namespace {

TEST(ErrorNnTest, ValidatesInput) {
  const Dataset empty = Dataset::Create(1).value();
  EXPECT_FALSE(NnClassifier::Train(empty, ErrorModel::Zero(0, 1)).ok());

  Dataset d = Dataset::Create(1).value();
  ASSERT_TRUE(d.AppendRow(std::vector<double>{1.0}, 0).ok());
  EXPECT_FALSE(NnClassifier::Train(d, ErrorModel::Zero(2, 1)).ok());
  EXPECT_FALSE(NnClassifier::Train(d, ErrorModel::Zero(1, 2)).ok());

  NnClassifier::Options options;
  options.k = 0;
  EXPECT_FALSE(NnClassifier::Train(d, ErrorModel::Zero(1, 1), options).ok());
}

TEST(ErrorNnTest, ZeroErrorsMatchPlainNn) {
  MixtureDatasetSpec spec;
  spec.num_dims = 3;
  spec.seed = 81;
  const Dataset d = MakeMixtureDataset(spec, 300).value();
  const ErrorModel zero = ErrorModel::Zero(d.NumRows(), d.NumDims());
  const NnClassifier aware = NnClassifier::Train(d, zero).value();
  const NnClassifier plain = NnClassifier::Train(d).value();
  for (size_t i = 0; i < d.NumRows(); i += 23) {
    std::vector<double> query(d.Row(i).begin(), d.Row(i).end());
    query[0] += 0.37;  // off-sample query
    EXPECT_EQ(aware.Predict(query).value(), plain.Predict(query).value());
  }
}

TEST(ErrorNnTest, Figure1ScenarioFlipsTheNeighbor) {
  // The paper's Figure 1: test point X, training points Y (near, exact)
  // and Z (farther, large error along dimension 1). Plain NN picks Y;
  // the error-aware rule picks Z because X lies within Z's error boundary.
  Dataset train = Dataset::Create(2).value();
  ASSERT_TRUE(train.AppendRow(std::vector<double>{0.0, 2.0}, 0).ok());  // Y
  ASSERT_TRUE(train.AppendRow(std::vector<double>{5.0, 0.0}, 1).ok());  // Z
  ErrorModel errors = ErrorModel::Zero(2, 2);
  errors.SetPsi(1, 0, 6.0);  // Z's dimension-0 error covers X

  const std::vector<double> x{0.0, 0.0};
  const NnClassifier plain = NnClassifier::Train(train).value();
  const NnClassifier aware = NnClassifier::Train(train, errors).value();
  EXPECT_EQ(plain.Predict(x).value(), 0);  // Y is Euclidean-nearer
  EXPECT_EQ(aware.Predict(x).value(), 1);  // Z's error region wins
}

TEST(ErrorNnTest, KMajorityVote) {
  Dataset train = Dataset::Create(1).value();
  ASSERT_TRUE(train.AppendRow(std::vector<double>{0.0}, 0).ok());
  ASSERT_TRUE(train.AppendRow(std::vector<double>{0.2}, 0).ok());
  ASSERT_TRUE(train.AppendRow(std::vector<double>{0.1}, 1).ok());
  NnClassifier::Options options;
  options.k = 3;
  const NnClassifier aware =
      NnClassifier::Train(train, ErrorModel::Zero(3, 1), options).value();
  EXPECT_EQ(aware.Predict(std::vector<double>{0.1}).value(), 0);
}

TEST(ErrorNnTest, BestCaseMatchingFavorsNoisyRecordsUnderHeavyError) {
  // A measured limitation worth pinning down: under heavy per-entry error,
  // Eq. 5's best-case matching makes the *noisiest* training records the
  // nearest neighbor of almost everything (their adjusted distance to any
  // query approaches zero), so the error-aware NN drops below plain NN.
  // This is the pathology that motivates the paper's density-based route:
  // there, a noisy record's influence is flattened, not sharpened.
  double aware_total = 0.0;
  double plain_total = 0.0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    MixtureDatasetSpec spec;
    spec.num_dims = 4;
    spec.num_informative_dims = 4;
    spec.clusters_per_class = 1;
    spec.class_separation = 4.0;
    spec.seed = 90 + seed;
    const Dataset clean = MakeMixtureDataset(spec, 800).value();
    PerturbationOptions perturb;
    perturb.f = 2.0;
    perturb.seed = 70 + seed;
    const UncertainDataset u = Perturb(clean, perturb).value();
    std::vector<size_t> train_idx, test_idx;
    for (size_t i = 0; i < clean.NumRows(); ++i) {
      (i < 600 ? train_idx : test_idx).push_back(i);
    }
    const Dataset train = u.data.Select(train_idx);
    const ErrorModel train_errors = u.errors.Select(train_idx);
    const Dataset test = u.data.Select(test_idx);

    const NnClassifier aware = NnClassifier::Train(train, train_errors).value();
    const NnClassifier plain = NnClassifier::Train(train).value();
    aware_total += EvaluateClassifier(aware, test).value().Accuracy();
    plain_total += EvaluateClassifier(plain, test).value().Accuracy();
  }
  EXPECT_LT(aware_total, plain_total);
}

}  // namespace
}  // namespace udm
