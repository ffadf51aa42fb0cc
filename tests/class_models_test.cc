#include "classify/class_models.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "classify/density_classifier.h"
#include "dataset/synthetic.h"
#include "error/perturbation.h"

namespace udm {
namespace {

UncertainDataset NoisyMixture(size_t n, size_t num_classes, uint64_t seed) {
  MixtureDatasetSpec spec;
  spec.num_dims = 3;
  spec.num_informative_dims = 3;
  spec.clusters_per_class = 1;
  spec.class_separation = 5.0;
  spec.class_priors = std::vector<double>(num_classes, 1.0);
  spec.seed = seed;
  PerturbationOptions perturb;
  perturb.f = 1.0;
  return Perturb(MakeMixtureDataset(spec, n).value(), perturb).value();
}

TEST(ClassModelsTest, TrainerReportsValidationErrors) {
  struct Case {
    std::string what;
    Dataset data;
    ErrorModel errors;
  };
  std::vector<Case> cases;
  cases.push_back({"empty dataset", Dataset::Create(3).value(),
                   ErrorModel::Zero(0, 3)});
  const UncertainDataset u = NoisyMixture(100, 2, 5);
  cases.push_back({"error model shape mismatch", u.data,
                   ErrorModel::Zero(99, 3)});
  Dataset one_class = Dataset::Create(1).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(one_class.AppendRow(std::vector<double>{1.0 * i}, 0).ok());
  }
  cases.push_back(
      {"need at least two classes", one_class, ErrorModel::Zero(10, 1)});
  Dataset sparse = Dataset::Create(1).value();  // class 1 missing
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sparse.AppendRow(std::vector<double>{1.0 * i}, 0).ok());
    ASSERT_TRUE(sparse.AppendRow(std::vector<double>{1.0 * i + 50}, 2).ok());
  }
  cases.push_back({"class 1 has no training rows (labels must be dense)",
                   sparse, ErrorModel::Zero(10, 1)});

  for (const Case& c : cases) {
    const Result<DensityBasedClassifier> rollup =
        DensityBasedClassifier::Train(c.data, c.errors);
    ASSERT_FALSE(rollup.ok()) << c.what;
    EXPECT_EQ(rollup.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(rollup.status().message(), "DensityBasedClassifier: " + c.what);
  }
}

TEST(ClassModelsTest, BuildsOneModelPerClassFromItsRowsInDataOrder) {
  const UncertainDataset u = NoisyMixture(450, 3, 9);
  MicroClusterer::Options clustering;
  clustering.num_clusters = 20;
  const std::vector<McDensityModel> models =
      TrainClassModels(u.data, u.errors, clustering, DensityEvalOptions(),
                       "test")
          .value();
  ASSERT_EQ(models.size(), 3u);

  // Each model is the one built straight from its class's rows, selected
  // in data order: summaries depend on row order, so a reordered split
  // would build different micro-clusters and read different densities.
  const std::vector<size_t> all_dims{0, 1, 2};
  for (size_t c = 0; c < 3; ++c) {
    const std::vector<size_t> rows = u.data.IndicesOfLabel(static_cast<int>(c));
    EXPECT_EQ(models[c].total_count(), rows.size());
    const McDensityModel reference =
        McDensityModel::Build(BuildMicroClusters(u.data.Select(rows),
                                                 u.errors.Select(rows),
                                                 clustering)
                                  .value())
            .value();
    ASSERT_EQ(models[c].num_clusters(), reference.num_clusters());
    for (size_t i = 0; i < u.data.NumRows(); i += 7) {
      EXPECT_EQ(models[c].LogEvaluateSubspace(u.data.Row(i), all_dims),
                reference.LogEvaluateSubspace(u.data.Row(i), all_dims));
    }
  }
}

}  // namespace
}  // namespace udm
