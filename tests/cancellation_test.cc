// Property test for the cancellation contract: a context cancelled before
// the call makes every public deadline-aware query entry point fail with
// kCancelled and mutate nothing — no partial results, no counter bumps, no
// summarizer state drift. The classifier's deadline ladder and
// partial-result semantics apply to deadlines and budgets only;
// cancellation is always a clean no-op failure.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <thread>
#include <vector>

#include "classify/density_classifier.h"
#include "cluster/ekmeans.h"
#include "cluster/udbscan.h"
#include "common/deadline.h"
#include "common/exec_context.h"
#include "dataset/dataset.h"
#include "dataset/uci_like.h"
#include "error/perturbation.h"
#include "kde/error_kde.h"
#include "kde/eval.h"
#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"
#include "robustness/checkpoint.h"
#include "stream/stream_summarizer.h"

namespace udm {
namespace {

class CancellationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Dataset> clean = MakeUciLike("adult", 300, 1);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    Result<UncertainDataset> uncertain = Perturb(*clean, {});
    ASSERT_TRUE(uncertain.ok()) << uncertain.status().ToString();
    data_ = uncertain->data;
    errors_ = uncertain->errors;
    source_.Cancel();
  }

  /// Constructor arguments for a context whose token was cancelled before
  /// the call under test. (ExecContext itself is non-copyable now that its
  /// spend counters are atomic, so each test constructs its own.)
  CancellationToken CancelledToken() { return source_.token(); }

  std::span<const double> Query() const { return data_.Row(0); }

  Dataset data_ = *Dataset::Create(1);
  ErrorModel errors_ = ErrorModel::Zero(0, 1);
  CancellationSource source_;
};

TEST_F(CancellationTest, PlainKdeEvaluate) {
  // The plain KDE is the ψ ≡ 0 error KDE (DESIGN.md S10).
  const Result<ErrorKernelDensity> kde = ErrorKernelDensity::Fit(
      data_, ErrorModel::Zero(data_.NumRows(), data_.NumDims()));
  ASSERT_TRUE(kde.ok()) << kde.status().ToString();
  ExecContext ctx(Deadline::Infinite(), CancelledToken());
  EvalRequest request;
  request.points = Query();
  request.ctx = &ctx;
  EXPECT_EQ(kde->Evaluate(request).status().code(), StatusCode::kCancelled);
  const std::vector<size_t> dims = {0, 1};
  request.subspace = dims;
  EXPECT_EQ(kde->Evaluate(request).status().code(), StatusCode::kCancelled);
}

TEST_F(CancellationTest, ErrorKernelDensityEvaluate) {
  const Result<ErrorKernelDensity> kde =
      ErrorKernelDensity::Fit(data_, errors_);
  ASSERT_TRUE(kde.ok()) << kde.status().ToString();
  ExecContext ctx(Deadline::Infinite(), CancelledToken());
  EvalRequest request;
  request.points = Query();
  request.ctx = &ctx;
  EXPECT_EQ(kde->Evaluate(request).status().code(), StatusCode::kCancelled);
  const std::vector<size_t> dims = {0, 2};
  request.subspace = dims;
  EXPECT_EQ(kde->Evaluate(request).status().code(), StatusCode::kCancelled);
  request.log_space = true;
  EXPECT_EQ(kde->Evaluate(request).status().code(), StatusCode::kCancelled);
}

TEST_F(CancellationTest, McDensityModelEvaluate) {
  MicroClusterer::Options mc_options;
  mc_options.num_clusters = 10;
  const Result<std::vector<MicroCluster>> summary =
      BuildMicroClusters(data_, errors_, mc_options);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  const Result<McDensityModel> model = McDensityModel::Build(*summary);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ExecContext ctx(Deadline::Infinite(), CancelledToken());
  EvalRequest request;
  request.points = Query();
  request.ctx = &ctx;
  EXPECT_EQ(model->Evaluate(request).status().code(), StatusCode::kCancelled);
  const std::vector<size_t> dims = {1};
  request.subspace = dims;
  EXPECT_EQ(model->Evaluate(request).status().code(), StatusCode::kCancelled);
  request.log_space = true;
  EXPECT_EQ(model->Evaluate(request).status().code(), StatusCode::kCancelled);
}

// A cancellation that lands mid-batch (not before the call): the batch
// evaluator must notice at a chunk boundary and fail with kCancelled
// instead of returning a partial EvalResult — partial-prefix semantics
// are reserved for deadlines and budgets. Batches run back to back on one
// context until one observes the cancel, so the test holds in every
// interleaving: a batch that finishes before the cancel lands must be
// complete, and the first batch to start after it lands must fail.
TEST_F(CancellationTest, MidFlightBatchCancellationFailsCleanly) {
  const Result<ErrorKernelDensity> kde =
      ErrorKernelDensity::Fit(data_, errors_);
  ASSERT_TRUE(kde.ok()) << kde.status().ToString();
  // Many copies of the dataset as the query batch: enough work past the
  // first chunk that the controller's cancel usually lands while chunks
  // are still in flight.
  std::vector<double> queries;
  const std::span<const double> values = data_.values();
  for (int copy = 0; copy < 10; ++copy) {
    queries.insert(queries.end(), values.begin(), values.end());
  }
  const size_t num_queries = queries.size() / data_.NumDims();
  CancellationSource mid_source;
  ExecContext ctx(Deadline::Infinite(), mid_source.token());
  EvalRequest request;
  request.points = queries;
  request.ctx = &ctx;
  request.threads = 4;
  // The spend counter is atomic, so the controller can watch evaluation
  // progress and cancel only once work has actually started.
  std::thread controller([&] {
    while (ctx.kernel_evals_spent() == 0) {
      std::this_thread::yield();
    }
    mid_source.Cancel();
  });
  Status observed;
  for (;;) {
    const bool cancelled_before = mid_source.IsCancelled();
    const Result<EvalResult> result = kde->Evaluate(request);
    if (!result.ok()) {
      observed = result.status();
      break;
    }
    // The cancel landed after this batch's last check: it must be whole.
    EXPECT_FALSE(cancelled_before) << "a batch started after the cancel";
    EXPECT_EQ(result->densities.size(), num_queries);
    EXPECT_EQ(result->stop_cause, StopCause::kCompleted);
    if (cancelled_before) break;
  }
  controller.join();
  EXPECT_EQ(observed.code(), StatusCode::kCancelled);
}

TEST_F(CancellationTest, ErrorKMeans) {
  ErrorKMeansOptions options;
  options.k = 3;
  ExecContext ctx(Deadline::Infinite(), CancelledToken());
  const Result<KMeansResult> result =
      ErrorKMeans(data_, errors_, options, ctx);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(CancellationTest, UncertainDbscan) {
  UncertainDbscanOptions options;
  options.eps = 2.0;
  ExecContext ctx(Deadline::Infinite(), CancelledToken());
  const Result<UncertainClustering> result =
      UncertainDbscan(data_, errors_, options, ctx);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(CancellationTest, DensityBasedClassifier) {
  const Result<DensityBasedClassifier> classifier =
      DensityBasedClassifier::Train(data_, errors_);
  ASSERT_TRUE(classifier.ok()) << classifier.status().ToString();
  ExecContext ctx(Deadline::Infinite(), CancelledToken());
  EXPECT_EQ(classifier->Explain(Query(), ctx).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(classifier->Predict(Query(), ctx).status().code(),
            StatusCode::kCancelled);
}

TEST_F(CancellationTest, StreamSummarizerStateIsBitIdentical) {
  StreamSummarizer::Options options;
  options.num_clusters = 4;
  StreamSummarizer stream =
      StreamSummarizer::Create(data_.NumDims(), options).value();
  // Give the summarizer real state so a mutation would be visible.
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(stream.Ingest(data_.Row(i), errors_.RowPsi(i), i + 1).ok());
  }
  const std::string before = SerializeCheckpoint(stream, 50);

  std::vector<RecordView> batch;
  for (size_t i = 50; i < 60; ++i) {
    batch.push_back(RecordView{data_.Row(i), errors_.RowPsi(i), i + 1});
  }
  ExecContext ctx(Deadline::Infinite(), CancelledToken());
  const Result<BatchIngestResult> result = stream.IngestBatch(batch, ctx);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // The cancelled batch must not have touched the summary, the stats, or
  // the backpressure counters: the serialized state is byte-identical.
  EXPECT_EQ(SerializeCheckpoint(stream, 50), before);
}

}  // namespace
}  // namespace udm
