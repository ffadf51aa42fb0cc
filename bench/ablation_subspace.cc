// Ablation D: the Figure-3 subspace roll-up vs the plain full-dimensional
// Bayes density rule (the roll-up's own fallback), both read from one
// trained classifier, so over identical error-adjusted micro-cluster
// summaries. Quantifies what the paper's instance-specific subspace
// selection adds on top of the density transform itself.
#include <vector>

#include "bench_util.h"
#include "classify/density_classifier.h"
#include "classify/metrics.h"
#include "common/logging.h"
#include "common/random.h"
#include "error/perturbation.h"

int main(int argc, char** argv) {
  udm::bench::ParseCommonFlags(argc, argv, "ablation_subspace");
  const udm::Result<udm::Dataset> clean =
      udm::bench::LoadDataset("forest_cover", 12000, 4);
  UDM_CHECK(clean.ok()) << clean.status().ToString();

  const std::vector<double> fs{0.0, 1.0, 2.0, 3.0};
  std::vector<udm::bench::Series> series(2);
  series[0].name = "subspace roll-up";
  series[1].name = "full-dim Bayes";
  for (const double f : fs) {
    double rollup_total = 0.0;
    double bayes_total = 0.0;
    const int repeats = 3;
    for (int r = 0; r < repeats; ++r) {
      udm::PerturbationOptions perturb;
      perturb.f = f;
      perturb.seed = 1000 + static_cast<uint64_t>(r);
      const auto uncertain = udm::Perturb(*clean, perturb);
      UDM_CHECK(uncertain.ok()) << uncertain.status().ToString();
      udm::Rng rng(42 + static_cast<uint64_t>(r));
      const udm::SplitIndices split =
          udm::MakeSplit(clean->NumRows(), 0.25, &rng);
      const udm::Dataset train = uncertain->data.Select(split.train);
      const udm::ErrorModel train_errors =
          uncertain->errors.Select(split.train);
      std::vector<size_t> tidx(split.test.begin(), split.test.begin() + 500);
      const udm::Dataset test = uncertain->data.Select(tidx);

      udm::DensityBasedClassifier::Options rollup_options;
      rollup_options.num_clusters = 140;
      const auto rollup = udm::DensityBasedClassifier::Train(
          train, train_errors, rollup_options);
      UDM_CHECK(rollup.ok()) << rollup.status().ToString();
      rollup_total +=
          udm::EvaluateClassifier(*rollup, test).value().Accuracy();

      size_t bayes_correct = 0;
      for (size_t i = 0; i < test.NumRows(); ++i) {
        if (rollup->PredictBayes(test.Row(i)).value() == test.Label(i)) {
          ++bayes_correct;
        }
      }
      bayes_total += static_cast<double>(bayes_correct) /
                     static_cast<double>(test.NumRows());
    }
    series[0].y.push_back(rollup_total / repeats);
    series[1].y.push_back(bayes_total / repeats);
  }

  udm::bench::PrintFigureHeader(
      "Ablation D", "subspace roll-up (Fig. 3) vs full-dimensional Bayes",
      "forest-cover-like, q=140, error-adjusted summaries, 3-seed avg");
  udm::bench::PrintTable("f", fs, series, "%10.1f");

  udm::bench::ShapeCheck(
      "both engines stay above random (1/7) at every f",
      series[0].y.back() > 1.0 / 7.0 && series[1].y.back() > 1.0 / 7.0);
  return 0;
}
