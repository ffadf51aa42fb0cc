// The parallel engine's determinism contract, checked end to end: every
// threaded path must produce bit-identical results at any worker width,
// because chunk partitions are fixed and each chunk runs in index order
// on one thread. Widths beyond the host's core count still exercise real
// preemptive interleavings (oversubscription), so these tests are
// meaningful on single-core CI hosts too.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "classify/batch.h"
#include "classify/density_classifier.h"
#include "classify/metrics.h"
#include "dataset/synthetic.h"
#include "dataset/uci_like.h"
#include "error/perturbation.h"
#include "kde/error_kde.h"
#include "kde/eval.h"
#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"

namespace udm {
namespace {

constexpr size_t kWidths[] = {2, 3, 8};

struct Fixture {
  Fixture()
      : clean(MakeAdultLike(600, 5).value()),
        uncertain(Perturb(clean, Noise()).value()) {}

  static PerturbationOptions Noise() {
    PerturbationOptions perturb;
    perturb.f = 1.2;
    return perturb;
  }

  Dataset clean;
  UncertainDataset uncertain;
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

/// Batch request over the first `queries` rows of the noisy data.
EvalRequest MakeRequest(const Fixture& f, size_t queries, size_t threads,
                        bool log_space = false) {
  EvalRequest request;
  request.points =
      f.uncertain.data.values().subspan(0, queries * f.clean.NumDims());
  request.threads = threads;
  request.log_space = log_space;
  return request;
}

TEST(ParallelDeterminismTest, ExactKdeBatchMatchesSerial) {
  const Fixture& f = SharedFixture();
  // The plain KDE is the ψ ≡ 0 error KDE (DESIGN.md S10).
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(f.uncertain.data,
                              ErrorModel::Zero(f.uncertain.data.NumRows(),
                                               f.uncertain.data.NumDims()))
          .value();
  const EvalResult serial = kde.Evaluate(MakeRequest(f, 64, 1)).value();
  ASSERT_TRUE(serial.complete());
  for (const size_t threads : kWidths) {
    const EvalResult wide =
        kde.Evaluate(MakeRequest(f, 64, threads)).value();
    EXPECT_EQ(wide.densities, serial.densities) << threads << " threads";
    EXPECT_EQ(wide.stats.kernel_evals, serial.stats.kernel_evals);
  }
}

TEST(ParallelDeterminismTest, ErrorKdeBatchMatchesSerial) {
  const Fixture& f = SharedFixture();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors).value();
  const EvalResult serial = kde.Evaluate(MakeRequest(f, 64, 1)).value();
  for (const size_t threads : kWidths) {
    const EvalResult wide =
        kde.Evaluate(MakeRequest(f, 64, threads)).value();
    EXPECT_EQ(wide.densities, serial.densities) << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, ErrorKdeLogSpaceBatchMatchesSerial) {
  const Fixture& f = SharedFixture();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors).value();
  const EvalResult serial =
      kde.Evaluate(MakeRequest(f, 64, 1, /*log_space=*/true)).value();
  for (const size_t threads : kWidths) {
    const EvalResult wide =
        kde.Evaluate(MakeRequest(f, 64, threads, /*log_space=*/true))
            .value();
    EXPECT_EQ(wide.densities, serial.densities) << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, McDensityBatchMatchesSerial) {
  const Fixture& f = SharedFixture();
  MicroClusterer::Options options;
  options.num_clusters = 40;
  const auto clusters =
      BuildMicroClusters(f.uncertain.data, f.uncertain.errors, options)
          .value();
  const McDensityModel model = McDensityModel::Build(clusters).value();
  const EvalResult serial =
      model.Evaluate(MakeRequest(f, 200, 1)).value();
  for (const size_t threads : kWidths) {
    const EvalResult wide =
        model.Evaluate(MakeRequest(f, 200, threads)).value();
    EXPECT_EQ(wide.densities, serial.densities) << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, BatchPredictMatchesSerial) {
  const Fixture& f = SharedFixture();
  DensityBasedClassifier::Options options;
  options.num_clusters = 30;
  const DensityBasedClassifier classifier =
      DensityBasedClassifier::Train(f.uncertain.data, f.uncertain.errors,
                                    options)
          .value();
  const std::vector<int> serial =
      BatchPredict(classifier, f.uncertain.data, 1).value();
  for (const size_t threads : kWidths) {
    const std::vector<int> wide =
        BatchPredict(classifier, f.uncertain.data, threads).value();
    EXPECT_EQ(wide, serial) << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, EvaluateClassifierMatchesSerial) {
  const Fixture& f = SharedFixture();
  DensityBasedClassifier::Options options;
  options.num_clusters = 30;
  const DensityBasedClassifier classifier =
      DensityBasedClassifier::Train(f.uncertain.data, f.uncertain.errors,
                                    options)
          .value();
  const ConfusionMatrix serial =
      EvaluateClassifier(classifier, f.uncertain.data, 1).value();
  for (const size_t threads : kWidths) {
    const ConfusionMatrix wide =
        EvaluateClassifier(classifier, f.uncertain.data, threads).value();
    ASSERT_EQ(wide.NumClasses(), serial.NumClasses());
    for (size_t t = 0; t < serial.NumClasses(); ++t) {
      for (size_t p = 0; p < serial.NumClasses(); ++p) {
        EXPECT_EQ(wide.At(t, p), serial.At(t, p)) << threads << " threads";
      }
    }
  }
}

TEST(ParallelDeterminismTest, PrunedLogSumExpMatchesSerial) {
  // The pruning decision is a comparison against term *values*, so the
  // fast path must stay bit-identical across widths with pruning active
  // (default threshold), with an aggressive threshold, and with the
  // opt-out. The pruned-term count is value-determined too.
  const Fixture& f = SharedFixture();
  for (const double threshold :
       {37.0, 5.0, std::numeric_limits<double>::infinity()}) {
    DensityEvalOptions options;
    options.log_prune_threshold = threshold;
    const ErrorKernelDensity kde =
        ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors, options)
            .value();
    const EvalResult serial =
        kde.Evaluate(MakeRequest(f, 64, 1, /*log_space=*/true)).value();
    for (const size_t threads : kWidths) {
      const EvalResult wide =
          kde.Evaluate(MakeRequest(f, 64, threads, /*log_space=*/true))
              .value();
      EXPECT_EQ(wide.densities, serial.densities)
          << threads << " threads, threshold " << threshold;
      EXPECT_EQ(wide.stats.pruned_terms, serial.stats.pruned_terms)
          << threads << " threads, threshold " << threshold;
    }
  }
}

TEST(ParallelDeterminismTest, McDensityLogSpaceBatchMatchesSerial) {
  const Fixture& f = SharedFixture();
  MicroClusterer::Options options;
  options.num_clusters = 40;
  const auto clusters =
      BuildMicroClusters(f.uncertain.data, f.uncertain.errors, options)
          .value();
  const McDensityModel model = McDensityModel::Build(clusters).value();
  const EvalResult serial =
      model.Evaluate(MakeRequest(f, 200, 1, /*log_space=*/true)).value();
  for (const size_t threads : kWidths) {
    const EvalResult wide =
        model.Evaluate(MakeRequest(f, 200, threads, /*log_space=*/true))
            .value();
    EXPECT_EQ(wide.densities, serial.densities) << threads << " threads";
    EXPECT_EQ(wide.stats.pruned_terms, serial.stats.pruned_terms);
  }
}

TEST(ParallelDeterminismTest, SpatialIndexModesMatchAcrossWidths) {
  // Index modes compose with thread widths: every (mode, width) pair must
  // reproduce the serial non-indexed reference bit for bit, in both
  // spaces. The fixture is above the default min_points, so kAuto and
  // kForce genuinely take the cell-pruned path here.
  const Fixture& f = SharedFixture();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors).value();
  ASSERT_TRUE(kde.has_index());
  for (const bool log_space : {false, true}) {
    EvalRequest reference = MakeRequest(f, 64, 1, log_space);
    reference.index = IndexMode::kOff;
    const EvalResult serial = kde.Evaluate(reference).value();
    for (const IndexMode mode : {IndexMode::kAuto, IndexMode::kForce}) {
      for (const size_t threads : kWidths) {
        EvalRequest request = MakeRequest(f, 64, threads, log_space);
        request.index = mode;
        const EvalResult wide = kde.Evaluate(request).value();
        EXPECT_EQ(wide.densities, serial.densities)
            << threads << " threads, " << (log_space ? "log" : "linear");
        EXPECT_EQ(wide.stats.pruned_terms, serial.stats.pruned_terms)
            << threads << " threads, " << (log_space ? "log" : "linear");
      }
    }
  }
}

TEST(ParallelDeterminismTest, SubspaceBatchMatchesSerial) {
  const Fixture& f = SharedFixture();
  const ErrorKernelDensity kde =
      ErrorKernelDensity::Fit(f.uncertain.data, f.uncertain.errors).value();
  EvalRequest request = MakeRequest(f, 64, 1);
  const std::vector<size_t> dims = {0, 2, 3};
  request.subspace = dims;
  const EvalResult serial = kde.Evaluate(request).value();
  for (const size_t threads : kWidths) {
    request.threads = threads;
    const EvalResult wide = kde.Evaluate(request).value();
    EXPECT_EQ(wide.densities, serial.densities) << threads << " threads";
  }
}

}  // namespace
}  // namespace udm
