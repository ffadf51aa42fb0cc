#include "classify/density_classifier.h"

#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "classify/metrics.h"
#include "common/deadline.h"
#include "common/exec_context.h"
#include "common/simd.h"
#include "dataset/synthetic.h"
#include "error/perturbation.h"
#include "golden_digest.h"
#include "obs/metrics.h"

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
  EXPECT_EQ(explanation.used_fallback, DensityBasedClassifier::kBayes);
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
  ASSERT_EQ(explanation.used_fallback, DensityBasedClassifier::kBayes);
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

// ---------------------------------------------------------------------------
// Roll-up observability: the classify.* counters are tallied per Explain.

struct RollUpCounters {
  uint64_t scored = 0;
  uint64_t qualified = 0;
  uint64_t fallbacks = 0;
};

RollUpCounters ReadRollUpCounters() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  return {registry.GetCounter("classify.subspaces_scored").Value(),
          registry.GetCounter("classify.subspaces_qualified").Value(),
          registry.GetCounter("classify.fallbacks").Value()};
}

/// Noisy 6-dim mixture where some points qualify rules and some fall back.
UncertainDataset NoisyMixture() {
  MixtureDatasetSpec spec;
  spec.num_dims = 6;
  spec.num_informative_dims = 3;
  spec.clusters_per_class = 2;
  spec.class_separation = 4.0;
  spec.seed = 71;
  const Dataset clean = MakeMixtureDataset(spec, 800).value();
  PerturbationOptions perturb;
  perturb.f = 0.3;
  perturb.seed = 72;
  return Perturb(clean, perturb).value();
}

TEST(DensityClassifierTest, RollUpCountersMatchExplanations) {
  const UncertainDataset u = NoisyMixture();
  const size_t d = u.data.NumDims();
  constexpr size_t kQueries = 80;
  for (const size_t max_dim : {size_t{1}, size_t{0}}) {
    DensityBasedClassifier::Options options;
    options.num_clusters = 40;
    options.max_subspace_dim = max_dim;
    const auto classifier =
        DensityBasedClassifier::Train(u.data, u.errors, options).value();
    const RollUpCounters before = ReadRollUpCounters();
    uint64_t rules = 0;
    uint64_t fallbacks = 0;
    for (size_t i = 0; i < kQueries; ++i) {
      const auto explanation = classifier.Explain(u.data.Row(i)).value();
      rules += explanation.selected.size();
      fallbacks +=
          explanation.used_fallback == DensityBasedClassifier::kBayes ? 1 : 0;
    }
    const RollUpCounters after = ReadRollUpCounters();
    const uint64_t scored = after.scored - before.scored;
    const uint64_t qualified = after.qualified - before.qualified;
    EXPECT_GT(rules, 0u) << "fixture must qualify some rules";
    EXPECT_GT(fallbacks, 0u) << "fixture must fall back somewhere";
    EXPECT_EQ(after.fallbacks - before.fallbacks, fallbacks);
    if (max_dim == 1) {
      // Singletons only: every Explain scores all d of them, and every
      // qualifying singleton is selected (singletons never overlap).
      EXPECT_EQ(scored, kQueries * d);
      EXPECT_EQ(qualified, rules);
    } else {
      // Deeper levels add candidates; selection drops overlapping ones.
      EXPECT_GT(scored, kQueries * d);
      EXPECT_GE(qualified, rules);
      EXPECT_LE(qualified, scored);
    }
  }
}

// ---------------------------------------------------------------------------
// The ladder's bottom rung: a context already spent on entry still gets an
// answer, the class prior, without kernel work; cancellation never does.

struct LadderCounters {
  uint64_t priors = 0;
  uint64_t fallbacks = 0;
  uint64_t truncated_deadline = 0;
  uint64_t truncated_budget = 0;
};

LadderCounters ReadLadderCounters() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  return {registry.GetCounter("classify.priors").Value(),
          registry.GetCounter("classify.fallbacks").Value(),
          registry.GetCounter("classify.truncated.deadline").Value(),
          registry.GetCounter("classify.truncated.budget").Value()};
}

/// Two well-separated 1-dim classes of `n0` and `n1` rows.
DensityBasedClassifier TwoClassClassifier(int n0, int n1) {
  Dataset data = Dataset::Create(1).value();
  for (int i = 0; i < n0; ++i) {
    EXPECT_TRUE(data.AppendRow(std::vector<double>{0.1 * i}, 0).ok());
  }
  for (int i = 0; i < n1; ++i) {
    EXPECT_TRUE(data.AppendRow(std::vector<double>{50.0 + 0.1 * i}, 1).ok());
  }
  DensityBasedClassifier::Options options;
  options.num_clusters = 4;
  return DensityBasedClassifier::Train(
             data, ErrorModel::Zero(data.NumRows(), 1), options)
      .value();
}

TEST(PriorRungTest, ExpiredDeadlineGetsThePriorAtZeroKernelEvals) {
  const DensityBasedClassifier classifier = TwoClassClassifier(6, 9);
  const std::vector<double> x{0.2};  // deep inside class 0
  const LadderCounters before = ReadLadderCounters();
  ExecContext ctx(Deadline::AfterMillis(-5));
  const Result<DensityBasedClassifier::Explanation> e =
      classifier.Explain(x, ctx);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e->used_fallback, DensityBasedClassifier::kPrior);
  EXPECT_EQ(e->predicted, 1);  // the larger class
  EXPECT_EQ(e->stop_cause, StopCause::kDeadline);
  EXPECT_TRUE(e->selected.empty());
  EXPECT_EQ(ctx.kernel_evals_spent(), 0u);
  const LadderCounters after = ReadLadderCounters();
  EXPECT_EQ(after.priors - before.priors, 1u);
  EXPECT_EQ(after.truncated_deadline - before.truncated_deadline, 1u);
  EXPECT_EQ(after.truncated_budget, before.truncated_budget);
  EXPECT_EQ(after.fallbacks, before.fallbacks);
  // Predict answers through the same rung.
  EXPECT_EQ(classifier.Predict(x, ctx).value(), 1);
}

TEST(PriorRungTest, PriorTiesGoToTheLowerLabel) {
  const DensityBasedClassifier classifier = TwoClassClassifier(7, 7);
  const std::vector<double> x{50.2};  // deep inside class 1
  ExecContext ctx(Deadline::AfterMillis(-5));
  const auto e = classifier.Explain(x, ctx).value();
  EXPECT_EQ(e.used_fallback, DensityBasedClassifier::kPrior);
  EXPECT_EQ(e.predicted, 0);
}

TEST(PriorRungTest, BudgetExhaustedAtEntryGetsThePrior) {
  const DensityBasedClassifier classifier = TwoClassClassifier(9, 6);
  const std::vector<double> x{50.2};
  const LadderCounters before = ReadLadderCounters();
  ExecBudget budget;
  budget.max_kernel_evals = 10;
  ExecContext ctx(Deadline::Infinite(), {}, budget);
  // An earlier point of the same batch spent the budget.
  ASSERT_FALSE(ctx.ChargeKernelEvals(11).ok());
  const Result<DensityBasedClassifier::Explanation> e =
      classifier.Explain(x, ctx);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e->used_fallback, DensityBasedClassifier::kPrior);
  EXPECT_EQ(e->predicted, 0);
  EXPECT_EQ(e->stop_cause, StopCause::kBudget);
  EXPECT_EQ(ctx.kernel_evals_spent(), 11u);
  const LadderCounters after = ReadLadderCounters();
  EXPECT_EQ(after.priors - before.priors, 1u);
  EXPECT_EQ(after.truncated_budget - before.truncated_budget, 1u);
  EXPECT_EQ(after.truncated_deadline, before.truncated_deadline);
}

TEST(PriorRungTest, BudgetCutMidRollUpIsTruncatedNotPrior) {
  // A budget that is not yet spent on entry runs the roll-up, which stops
  // at its first charge; the Bayes rule then decides (no rule qualified).
  const DensityBasedClassifier classifier = TwoClassClassifier(9, 6);
  const std::vector<double> x{50.2};
  const LadderCounters before = ReadLadderCounters();
  ExecBudget budget;
  budget.max_kernel_evals = 1;
  ExecContext ctx(Deadline::Infinite(), {}, budget);
  const auto e = classifier.Explain(x, ctx).value();
  EXPECT_EQ(e.used_fallback, DensityBasedClassifier::kBayes);
  EXPECT_EQ(e.predicted, 1);
  EXPECT_EQ(e.stop_cause, StopCause::kBudget);
  EXPECT_GT(ctx.kernel_evals_spent(), 0u);
  const LadderCounters after = ReadLadderCounters();
  EXPECT_EQ(after.priors, before.priors);
  EXPECT_EQ(after.fallbacks - before.fallbacks, 1u);
  EXPECT_EQ(after.truncated_budget - before.truncated_budget, 1u);
}

TEST(PriorRungTest, CancellationFailsWithoutWorkEvenPastTheDeadline) {
  const DensityBasedClassifier classifier = TwoClassClassifier(6, 9);
  const std::vector<double> x{0.2};
  const LadderCounters before = ReadLadderCounters();
  CancellationSource source;
  source.Cancel();
  for (const Deadline deadline :
       {Deadline::Infinite(), Deadline::AfterMillis(-5)}) {
    ExecContext ctx(deadline, source.token());
    const Result<DensityBasedClassifier::Explanation> e =
        classifier.Explain(x, ctx);
    EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(ctx.kernel_evals_spent(), 0u);
  }
  const LadderCounters after = ReadLadderCounters();
  EXPECT_EQ(after.priors, before.priors);
  EXPECT_EQ(after.fallbacks, before.fallbacks);
  EXPECT_EQ(after.truncated_deadline, before.truncated_deadline);
}

TEST(PriorRungTest, WrongDimensionIsRejectedBeforeAnyRung) {
  const DensityBasedClassifier classifier = TwoClassClassifier(6, 9);
  const std::vector<double> x{0.2, 0.3};
  for (const Deadline deadline :
       {Deadline::Infinite(), Deadline::AfterMillis(-5)}) {
    ExecContext ctx(deadline);
    EXPECT_EQ(classifier.Explain(x, ctx).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(PriorRungTest, DecidersNameTheirTiers) {
  EXPECT_STREQ(DeciderToString(DensityBasedClassifier::kRules), "rules");
  EXPECT_STREQ(DeciderToString(DensityBasedClassifier::kBayes), "bayes");
  EXPECT_STREQ(DeciderToString(DensityBasedClassifier::kPrior), "prior");
}

// ---------------------------------------------------------------------------
// Pinned roll-up outputs: the golden ionosphere-like workload (q=140, the
// `classify` benchmark's shape), with one classifier per SIMD level. The
// scalar values were recorded before the singleton fast path landed; the
// vector values moved once, with the striped table-exp sums (every
// ladder rung's answer, stop cause, rule count and cost held).

constexpr size_t kGoldenRows = 2400;
constexpr size_t kGoldenTrainRows = 2000;

const DensityBasedClassifier& GoldenClassifier(SimdLevel level) {
  static std::map<SimdLevel, DensityBasedClassifier>* cache =
      new std::map<SimdLevel, DensityBasedClassifier>();
  auto it = cache->find(level);
  if (it == cache->end()) {
    const UncertainDataset u = golden::IonosphereLike(kGoldenRows);
    std::vector<size_t> train(kGoldenTrainRows);
    for (size_t i = 0; i < train.size(); ++i) train[i] = i;
    DensityBasedClassifier::Options options;
    options.num_clusters = 140;
    options.density.simd = level == SimdLevel::kAvx512 ? SimdRequest::kAvx512
                           : level == SimdLevel::kAvx2 ? SimdRequest::kAvx2
                                                       : SimdRequest::kScalar;
    it = cache
             ->emplace(level, DensityBasedClassifier::Train(
                                  u.data.Select(train),
                                  u.errors.Select(train), options)
                                  .value())
             .first;
  }
  return it->second;
}

/// Every bit of an Explanation that a fast path could move.
void AddExplanation(const DensityBasedClassifier::Explanation& e,
                    golden::Digest& digest) {
  digest.U64(static_cast<uint64_t>(e.predicted));
  digest.U64(static_cast<uint64_t>(e.used_fallback));
  digest.U64(static_cast<uint64_t>(e.stop_cause));
  digest.U64(e.selected.size());
  for (const DensityBasedClassifier::Rule& rule : e.selected) {
    digest.U64(static_cast<uint64_t>(rule.label));
    digest.Double(rule.log_accuracy);
    digest.U64(rule.dims.size());
    for (const size_t dim : rule.dims) digest.U64(dim);
  }
}

class RollUpGoldenTest : public ::testing::TestWithParam<SimdLevel> {
 protected:
  void SetUp() override {
    if (GetParam() > DetectBestSimdLevel()) {
      GTEST_SKIP() << "host CPU lacks the " << SimdLevelName(GetParam())
                   << " level";
    }
  }
};

TEST_P(RollUpGoldenTest, ExplanationsMatchGoldenDigest) {
  const UncertainDataset u = golden::IonosphereLike(kGoldenRows);
  const DensityBasedClassifier& classifier = GoldenClassifier(GetParam());
  golden::Digest digest;
  size_t correct = 0;
  for (size_t i = kGoldenTrainRows; i < kGoldenRows; ++i) {
    const auto explanation = classifier.Explain(u.data.Row(i)).value();
    AddExplanation(explanation, digest);
    correct += explanation.predicted == u.data.Label(i) ? 1 : 0;
  }
  EXPECT_GT(correct, (kGoldenRows - kGoldenTrainRows) * 8 / 10);
  // Scalar sums exps with std::exp and Kahan; both vector levels run one
  // table exp into striped sums, so they agree bit for bit.
  const char* const kExpected[] = {"0x98af2aa200821772", "0xd2c2aef1c190a12c",
                                   "0xd2c2aef1c190a12c"};
  EXPECT_EQ(golden::Hex(digest.value()),
            kExpected[static_cast<size_t>(GetParam())])
      << "level " << SimdLevelName(GetParam());
}

/// One rung of the budget ladder: Explain of one held-out point under
/// ExecBudget{max_kernel_evals = budget}.
struct LadderRung {
  size_t row;
  uint64_t budget;
  int predicted;
  bool used_fallback;
  StopCause stop_cause;
  size_t rules;
  uint64_t kernel_evals;
};

TEST_P(RollUpGoldenTest, BudgetLadderIsPinned) {
  // One subspace dimension costs (k+1)·q = 420 kernel evals, so the
  // singleton level costs 34·420 = 14280, and the Bayes fallback charges
  // 34·280 = 9520 more whatever the budget. Row 2000 completes a deep
  // roll-up at 45780; row 2022 qualifies nothing and falls back. The
  // budgets stop before, inside and at the end of level 1, inside deeper
  // levels, one eval short of completion, and not at all.
  const LadderRung kLadder[] = {
      {2000, 1, 0, true, StopCause::kBudget, 0, 9940},
      {2000, 420, 0, true, StopCause::kBudget, 0, 10360},
      {2000, 5000, 0, false, StopCause::kBudget, 4, 5040},
      {2000, 14280, 0, false, StopCause::kBudget, 5, 15120},
      {2000, 14281, 0, false, StopCause::kBudget, 5, 15120},
      {2000, 20000, 0, false, StopCause::kBudget, 3, 20160},
      {2000, 30000, 0, false, StopCause::kBudget, 3, 30240},
      {2000, 45779, 0, false, StopCause::kBudget, 3, 45780},
      {2000, 45780, 0, false, StopCause::kCompleted, 3, 45780},
      {2000, 0, 0, false, StopCause::kCompleted, 3, 45780},
      {2022, 5000, 1, true, StopCause::kBudget, 0, 14560},
      {2022, 14280, 1, true, StopCause::kCompleted, 0, 23800},
      {2022, 0, 1, true, StopCause::kCompleted, 0, 23800},
  };
  const UncertainDataset u = golden::IonosphereLike(kGoldenRows);
  const DensityBasedClassifier& classifier = GoldenClassifier(GetParam());
  golden::Digest rules_digest;
  for (const LadderRung& rung : kLadder) {
    ExecBudget budget;
    budget.max_kernel_evals = rung.budget;
    ExecContext ctx(Deadline::Infinite(), {}, budget);
    const auto e = classifier.Explain(u.data.Row(rung.row), ctx).value();
    const std::string where = "row " + std::to_string(rung.row) +
                              " budget " + std::to_string(rung.budget);
    EXPECT_EQ(e.predicted, rung.predicted) << where;
    EXPECT_EQ(e.used_fallback, rung.used_fallback) << where;
    EXPECT_EQ(e.stop_cause, rung.stop_cause) << where;
    EXPECT_EQ(e.selected.size(), rung.rules) << where;
    EXPECT_EQ(ctx.kernel_evals_spent(), rung.kernel_evals) << where;
    AddExplanation(e, rules_digest);
  }
  const char* const kExpected[] = {"0xd245ad2810d22524", "0xb8eb0fd638232d06",
                                   "0xb8eb0fd638232d06"};
  EXPECT_EQ(golden::Hex(rules_digest.value()),
            kExpected[static_cast<size_t>(GetParam())])
      << "level " << SimdLevelName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Levels, RollUpGoldenTest,
                         ::testing::Values(SimdLevel::kScalar,
                                           SimdLevel::kAvx2,
                                           SimdLevel::kAvx512),
                         [](const auto& info) {
                           return std::string(SimdLevelName(info.param));
                         });

}  // namespace
}  // namespace udm
