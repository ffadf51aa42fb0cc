#include "stream/sharded_summarizer.h"

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/exec_context.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "robustness/fault_injector.h"

namespace udm {
namespace {

namespace fs = std::filesystem;

constexpr size_t kDims = 3;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

/// Clean 3-d records, timestamps 1..n.
std::vector<StreamRecord> MakeStream(size_t n, uint64_t seed,
                                     double mean = 0.0) {
  Rng rng(seed);
  std::vector<StreamRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    StreamRecord r;
    r.values = {rng.Gaussian(mean, 1.0), rng.Gaussian(mean, 1.0),
                rng.Gaussian(mean, 1.0)};
    r.psi = {rng.Uniform(0.0, 0.3), rng.Uniform(0.0, 0.3),
             rng.Uniform(0.0, 0.3)};
    r.timestamp = i + 1;
    records.push_back(std::move(r));
  }
  return records;
}

std::vector<RecordView> ToViews(std::span<const StreamRecord> records) {
  std::vector<RecordView> views;
  views.reserve(records.size());
  for (const StreamRecord& r : records) {
    views.push_back(RecordView{r.values, r.psi, r.timestamp});
  }
  return views;
}

/// Feeds `records` in batches of `batch_size` under an unbounded context.
void IngestAll(ShardedSummarizer& sharded,
               std::span<const StreamRecord> records, size_t batch_size) {
  const std::vector<RecordView> views = ToViews(records);
  for (size_t at = 0; at < views.size();) {
    const size_t len = std::min(batch_size, views.size() - at);
    ExecContext ctx;
    const Result<ShardedIngestResult> result = sharded.IngestBatch(
        std::span<const RecordView>(views).subspan(at, len), ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->consumed, len);
    at += len;
  }
}

uint64_t TotalPoints(const ShardedSummarizer& sharded) {
  uint64_t total = 0;
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    const StreamSummarizer* s = sharded.shard_summarizer(i);
    if (s != nullptr) total += s->num_points();
  }
  return total;
}

uint64_t MergedCount(const MergeResult& merged) {
  uint64_t total = 0;
  for (const MicroCluster& c : merged.clusters) total += c.Count();
  return total;
}

ShardedSummarizerOptions BaseOptions(const std::string& dir,
                                     FaultInjector* injector = nullptr) {
  ShardedSummarizerOptions options;
  options.num_shards = 3;
  options.shard_options.num_clusters = 15;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 200;
  options.io_faults = injector;
  options.retry.initial_backoff_ms = 0.01;  // keep injected-fault tests fast
  options.retry.max_backoff_ms = 0.1;
  return options;
}

// ---------------------------------------------------------------------------
// Healthy-path basics
// ---------------------------------------------------------------------------

TEST(ShardedSummarizerTest, RoutesEverythingAndPreservesTheCount) {
  const std::vector<StreamRecord> records = MakeStream(1200, 5);
  ShardedSummarizer sharded =
      ShardedSummarizer::Create(kDims, BaseOptions(FreshDir("udm_shard_basic")))
          .value();
  IngestAll(sharded, records, 300);

  EXPECT_EQ(sharded.records_routed(), records.size());
  EXPECT_EQ(sharded.num_degraded(), 0u);
  EXPECT_EQ(sharded.total_replay_remaining(), 0u);
  EXPECT_EQ(TotalPoints(sharded), records.size());

  // Every shard saw traffic: the hash spreads 1200 records over 3 shards.
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    const ShardStatus status = sharded.shard_status(i);
    EXPECT_EQ(status.health, ShardHealth::kHealthy);
    EXPECT_GT(status.records_routed, 0u);
    EXPECT_EQ(status.records_absorbed, status.records_routed);
  }

  // The merged summary respects q and loses no points.
  ExecContext ctx;
  const MergeResult merged = sharded.MergedSummary(ctx);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.shards_merged, 3u);
  EXPECT_LE(merged.clusters.size(), 15u);
  EXPECT_EQ(MergedCount(merged), records.size());
}

TEST(ShardedSummarizerTest, RoutingIsAStableFunctionOfTheRecord) {
  const ShardedSummarizerOptions options = BaseOptions("");
  ShardedSummarizer a = ShardedSummarizer::Create(kDims, options).value();
  ShardedSummarizer b = ShardedSummarizer::Create(kDims, options).value();
  const std::vector<StreamRecord> records = MakeStream(500, 9);
  for (const StreamRecord& r : records) {
    const RecordView view{r.values, r.psi, r.timestamp};
    EXPECT_EQ(a.ShardFor(view), b.ShardFor(view));
    EXPECT_EQ(a.ShardFor(view), a.ShardFor(view));
  }

  // The partition itself is pinned: checkpoints and replay logs written by
  // one build must route identically under the next. Golden digest of the
  // 500 shard indices, in order.
  uint64_t digest = 14695981039346656037ULL;
  for (const StreamRecord& r : records) {
    const RecordView view{r.values, r.psi, r.timestamp};
    digest = (digest ^ a.ShardFor(view)) * 1099511628211ULL;
  }
  EXPECT_EQ(digest, 0xdcffe9d44b7c4c7eULL);
}

TEST(ShardedSummarizerTest, RejectsBadOptions) {
  EXPECT_FALSE(ShardedSummarizer::Create(0, BaseOptions("")).ok());
  ShardedSummarizerOptions no_shards = BaseOptions("");
  no_shards.num_shards = 0;
  EXPECT_FALSE(ShardedSummarizer::Create(kDims, no_shards).ok());
  ShardedSummarizerOptions no_budget = BaseOptions("");
  no_budget.shard_options.num_clusters = 0;
  EXPECT_FALSE(ShardedSummarizer::Create(kDims, no_budget).ok());
}

// ---------------------------------------------------------------------------
// Single-shard crash isolation
// ---------------------------------------------------------------------------

TEST(ShardedSummarizerTest, KillingOneShardLeavesTheOthersIngesting) {
  const std::vector<StreamRecord> records = MakeStream(1800, 13);
  ShardedSummarizer sharded =
      ShardedSummarizer::Create(kDims, BaseOptions(FreshDir("udm_shard_kill")))
          .value();
  const std::vector<RecordView> views = ToViews(records);

  ExecContext ctx;
  ASSERT_TRUE(
      sharded.IngestBatch(std::span<const RecordView>(views).first(600), ctx)
          .ok());
  sharded.KillShard(1);
  EXPECT_EQ(sharded.num_degraded(), 1u);
  EXPECT_EQ(sharded.shard_status(1).health, ShardHealth::kDegraded);
  EXPECT_EQ(sharded.shard_summarizer(1), nullptr);
  EXPECT_FALSE(sharded.shard_status(1).last_error.ok());

  // Traffic keeps flowing: the dead shard buffers, the other two absorb.
  const Result<ShardedIngestResult> mid = sharded.IngestBatch(
      std::span<const RecordView>(views).subspan(600, 600), ctx);
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  EXPECT_EQ(mid->consumed, 600u);
  EXPECT_EQ(mid->shards_degraded, 1u);
  for (size_t i : {0u, 2u}) {
    const ShardStatus status = sharded.shard_status(i);
    EXPECT_EQ(status.health, ShardHealth::kHealthy);
    EXPECT_EQ(status.records_absorbed, status.records_routed);
  }
  const ShardStatus dead = sharded.shard_status(1);
  EXPECT_GT(dead.replay_remaining, 0u);
  EXPECT_EQ(sharded.total_replay_remaining(), dead.replay_remaining);
  // The gauge mirrors the backlog for monitoring.
  EXPECT_EQ(static_cast<uint64_t>(
                obs::MetricsRegistry::Global()
                    .GetGauge("shard.replay_remaining")
                    .Value()),
            dead.replay_remaining);

  // The merge degrades with an explicit flag instead of stalling.
  const MergeResult degraded_merge = sharded.MergedSummary(ctx);
  EXPECT_FALSE(degraded_merge.complete());
  ASSERT_EQ(degraded_merge.skipped_shards.size(), 1u);
  EXPECT_EQ(degraded_merge.skipped_shards[0], 1u);
  EXPECT_EQ(degraded_merge.shards_merged, 2u);
  EXPECT_FALSE(degraded_merge.clusters.empty());

  // Recovery restores from shard 1's own checkpoint and replays only its
  // deferred records; the other shards are untouched.
  ASSERT_TRUE(sharded.RecoverShards(ctx).ok());
  EXPECT_EQ(sharded.num_degraded(), 0u);
  EXPECT_EQ(sharded.shard_status(1).health, ShardHealth::kHealthy);
  EXPECT_EQ(sharded.shard_status(1).recoveries, 1u);
  EXPECT_EQ(sharded.total_replay_remaining(), 0u);

  ASSERT_TRUE(
      sharded.IngestBatch(std::span<const RecordView>(views).subspan(1200), ctx)
          .ok());
  EXPECT_EQ(TotalPoints(sharded), records.size());
  const MergeResult merged = sharded.MergedSummary(ctx);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(MergedCount(merged), records.size());
}

// ---------------------------------------------------------------------------
// Crash-point matrix: die at every site, recover, lose nothing
// ---------------------------------------------------------------------------

class ShardCrashMatrixTest : public ::testing::TestWithParam<ShardCrashSite> {};

TEST_P(ShardCrashMatrixTest, RecoversWithExactlyOnceAbsorption) {
  const ShardCrashSite site = GetParam();
  const std::vector<StreamRecord> records = MakeStream(2000, 17);
  FaultInjector injector({});
  const std::string dir =
      FreshDir("udm_shard_site_" + std::to_string(static_cast<int>(site)));
  ShardedSummarizer sharded =
      ShardedSummarizer::Create(kDims, BaseOptions(dir, &injector)).value();
  const std::vector<RecordView> views = ToViews(records);

  // First half runs clean (several checkpoints land), then the armed crash
  // fires at the parametrized site during the second half.
  ExecContext ctx;
  ASSERT_TRUE(
      sharded.IngestBatch(std::span<const RecordView>(views).first(1000), ctx)
          .ok());
  injector.ArmCrashAt(static_cast<int>(site), 1);
  for (size_t at = 1000; at < views.size(); at += 250) {
    const Result<ShardedIngestResult> result = sharded.IngestBatch(
        std::span<const RecordView>(views).subspan(at, 250), ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->consumed, 250u);
  }
  EXPECT_EQ(injector.armed_crashes_at(static_cast<int>(site)), 0u)
      << "the crash site never fired";
  EXPECT_EQ(injector.crashes_injected(), 1u);
  EXPECT_EQ(sharded.num_degraded(), 1u);

  // Exactly one shard died; the rest absorbed their full routed stream.
  size_t dead = sharded.num_shards();
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    const ShardStatus status = sharded.shard_status(i);
    if (status.health == ShardHealth::kDegraded) {
      dead = i;
      EXPECT_EQ(status.crashes, 1u);
    } else {
      EXPECT_EQ(status.records_absorbed, status.records_routed);
    }
  }
  ASSERT_LT(dead, sharded.num_shards());

  ASSERT_TRUE(sharded.RecoverShards(ctx).ok());
  EXPECT_EQ(sharded.num_degraded(), 0u);
  EXPECT_EQ(sharded.shard_status(dead).recoveries, 1u);
  EXPECT_EQ(sharded.total_replay_remaining(), 0u);

  // The recovery contract: every record absorbed exactly once, whatever
  // the interleaving of crash vs checkpoint.
  EXPECT_EQ(TotalPoints(sharded), records.size());
  const MergeResult merged = sharded.MergedSummary(ctx);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(MergedCount(merged), records.size());
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllSites, ShardCrashMatrixTest,
                         ::testing::Values(ShardCrashSite::kBeforeIngest,
                                           ShardCrashSite::kAfterIngest,
                                           ShardCrashSite::kBeforeCheckpoint,
                                           ShardCrashSite::kAfterCheckpoint));

// ---------------------------------------------------------------------------
// Checkpoint I/O faults quarantine the shard instead of failing the batch
// ---------------------------------------------------------------------------

TEST(ShardedSummarizerTest, CheckpointFailurePastRetriesQuarantines) {
  const std::vector<StreamRecord> records = MakeStream(1500, 19);
  FaultInjector injector({});
  const std::string dir = FreshDir("udm_shard_iofault");
  ShardedSummarizerOptions options = BaseOptions(dir, &injector);
  options.retry.max_attempts = 2;
  ShardedSummarizer sharded =
      ShardedSummarizer::Create(kDims, options).value();
  const std::vector<RecordView> views = ToViews(records);

  ExecContext ctx;
  ASSERT_TRUE(
      sharded.IngestBatch(std::span<const RecordView>(views).first(500), ctx)
          .ok());
  ASSERT_EQ(sharded.num_degraded(), 0u);

  // Enough faults to exhaust one save's retry budget.
  injector.ArmIoFaults(2);
  const Result<ShardedIngestResult> result = sharded.IngestBatch(
      std::span<const RecordView>(views).subspan(500, 500), ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->consumed, 500u);
  EXPECT_EQ(result->shards_degraded, 1u);
  EXPECT_EQ(injector.io_faults_injected(), 2u);

  size_t dead = sharded.num_shards();
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    if (sharded.shard_status(i).health == ShardHealth::kDegraded) dead = i;
  }
  ASSERT_LT(dead, sharded.num_shards());
  EXPECT_EQ(sharded.shard_status(dead).last_error.code(),
            StatusCode::kIoError);

  ASSERT_TRUE(sharded.RecoverShards(ctx).ok());
  ASSERT_TRUE(
      sharded.IngestBatch(std::span<const RecordView>(views).subspan(1000), ctx)
          .ok());
  EXPECT_EQ(TotalPoints(sharded), records.size());
  fs::remove_all(dir);
}

TEST(ShardedSummarizerTest, TornCheckpointQuarantinesAndRecoversFromOlder) {
  const std::vector<StreamRecord> records = MakeStream(1500, 23);
  FaultInjector injector({});
  const std::string dir = FreshDir("udm_shard_torn");
  ShardedSummarizerOptions options = BaseOptions(dir, &injector);
  options.retry.max_attempts = 1;  // a torn write is not transient
  ShardedSummarizer sharded =
      ShardedSummarizer::Create(kDims, options).value();
  const std::vector<RecordView> views = ToViews(records);

  ExecContext ctx;
  ASSERT_TRUE(
      sharded.IngestBatch(std::span<const RecordView>(views).first(900), ctx)
          .ok());
  ASSERT_EQ(sharded.num_degraded(), 0u);

  // The next save commits a truncated generation and fails: the shard is
  // quarantined, and recovery must CRC-reject the torn file and fall back
  // to the previous good one — then make up the difference from the
  // replay log. A forced CheckpointAll guarantees a save attempt happens
  // while the torn write is armed.
  injector.ArmTornWrites(1);
  EXPECT_FALSE(sharded.CheckpointAll().ok());
  EXPECT_EQ(injector.torn_writes_injected(), 1u);
  EXPECT_EQ(sharded.num_degraded(), 1u);

  ASSERT_TRUE(sharded.RecoverShards(ctx).ok());
  EXPECT_EQ(sharded.num_degraded(), 0u);
  ASSERT_TRUE(
      sharded.IngestBatch(std::span<const RecordView>(views).subspan(900), ctx)
          .ok());
  EXPECT_EQ(TotalPoints(sharded), records.size());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Health state machine and deadline behavior
// ---------------------------------------------------------------------------

TEST(ShardedSummarizerTest, RecoveryWalksDegradedRecoveringHealthy) {
  const std::vector<StreamRecord> records = MakeStream(1200, 29);
  ShardedSummarizer sharded =
      ShardedSummarizer::Create(kDims,
                                BaseOptions(FreshDir("udm_shard_health")))
          .value();
  IngestAll(sharded, records, 400);
  sharded.KillShard(0);
  ASSERT_EQ(sharded.shard_status(0).health, ShardHealth::kDegraded);

  // An already-expired deadline lets the restore land but stops the replay
  // before the first record: the shard parks in kRecovering with its
  // progress (the restored checkpoint) kept.
  ExecContext expired(Deadline::AfterMillis(-5));
  const Status partial = sharded.RecoverShards(expired);
  EXPECT_FALSE(partial.ok());
  EXPECT_EQ(sharded.shard_status(0).health, ShardHealth::kRecovering);
  EXPECT_NE(sharded.shard_summarizer(0), nullptr);

  // A second pass under an unbounded context finishes the replay.
  ExecContext ctx;
  ASSERT_TRUE(sharded.RecoverShards(ctx).ok());
  EXPECT_EQ(sharded.shard_status(0).health, ShardHealth::kHealthy);
  EXPECT_EQ(sharded.shard_status(0).recoveries, 1u);
  EXPECT_EQ(TotalPoints(sharded), records.size());
}

TEST(ShardedSummarizerTest, ExpiredDeadlineDegradesTheMergeWithFlags) {
  const std::vector<StreamRecord> records = MakeStream(600, 31);
  ShardedSummarizer sharded =
      ShardedSummarizer::Create(kDims, BaseOptions("")).value();
  IngestAll(sharded, records, 200);

  ExecContext expired(Deadline::AfterMillis(-5));
  const MergeResult merged = sharded.MergedSummary(expired);
  EXPECT_FALSE(merged.complete());
  EXPECT_EQ(merged.skipped_shards.size(), sharded.num_shards());
  EXPECT_EQ(merged.stop_cause, StopCause::kDeadline);
  EXPECT_TRUE(merged.clusters.empty());
  EXPECT_FALSE(sharded.MergedSnapshot(expired).ok());
}

TEST(ShardedSummarizerTest, FullReplayLogAppliesBackpressure) {
  // Healthy shards trim their logs via periodic checkpoints (every 40
  // records, well under the 64-record cap); only the dead shard's log can
  // fill up and push back.
  ShardedSummarizerOptions options = BaseOptions(FreshDir("udm_shard_bp"));
  options.checkpoint_every = 40;
  options.max_replay_buffer = 64;
  ShardedSummarizer sharded =
      ShardedSummarizer::Create(kDims, options).value();
  const std::vector<StreamRecord> records = MakeStream(1200, 37);
  const std::vector<RecordView> views = ToViews(records);

  sharded.KillShard(2);
  ExecContext ctx;
  size_t consumed = 0;
  StopCause last_cause = StopCause::kCompleted;
  while (consumed < views.size()) {
    const Result<ShardedIngestResult> result = sharded.IngestBatch(
        std::span<const RecordView>(views).subspan(consumed), ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    consumed += result->consumed;
    last_cause = result->stop_cause;
    if (result->consumed == 0) break;
  }
  // The dead shard's log filled: the stream stopped at the first record it
  // could not buffer instead of dropping it.
  ASSERT_LT(consumed, views.size());
  EXPECT_EQ(last_cause, StopCause::kBudget);
  EXPECT_EQ(sharded.shard_status(2).replay_remaining, 64u);

  // Recovery drains the backlog and the stream finishes.
  ASSERT_TRUE(sharded.RecoverShards(ctx).ok());
  while (consumed < views.size()) {
    const Result<ShardedIngestResult> result = sharded.IngestBatch(
        std::span<const RecordView>(views).subspan(consumed), ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    consumed += result->consumed;
  }
  EXPECT_EQ(TotalPoints(sharded), records.size());
}

TEST(ShardedSummarizerTest, NoCheckpointDirRecoversByFullReplay) {
  const std::vector<StreamRecord> records = MakeStream(900, 41);
  ShardedSummarizer sharded =
      ShardedSummarizer::Create(kDims, BaseOptions("")).value();
  IngestAll(sharded, records, 300);
  sharded.KillShard(1);
  EXPECT_EQ(sharded.shard_status(1).replay_remaining,
            sharded.shard_status(1).records_routed);

  ExecContext ctx;
  ASSERT_TRUE(sharded.RecoverShards(ctx).ok());
  EXPECT_EQ(sharded.num_degraded(), 0u);
  EXPECT_EQ(TotalPoints(sharded), records.size());
}

// ---------------------------------------------------------------------------
// Merged-model accuracy vs the monolithic path, across a crash
// ---------------------------------------------------------------------------

struct LabeledRecord {
  StreamRecord record;
  int label = 0;
};

std::vector<LabeledRecord> MakeLabeledStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<LabeledRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    LabeledRecord r;
    r.label = static_cast<int>(rng.UniformInt(2));
    const double mean = r.label == 0 ? 0.0 : 3.0;
    r.record.values = {rng.Gaussian(mean, 1.0), rng.Gaussian(mean, 1.0),
                       rng.Gaussian(mean, 1.0)};
    r.record.psi = {rng.Uniform(0.0, 0.3), rng.Uniform(0.0, 0.3),
                    rng.Uniform(0.0, 0.3)};
    r.record.timestamp = i + 1;
    records.push_back(std::move(r));
  }
  return records;
}

double Accuracy(const McDensityModel& m0, double n0, const McDensityModel& m1,
                double n1, const std::vector<LabeledRecord>& test) {
  size_t correct = 0;
  for (const LabeledRecord& t : test) {
    const double s0 = n0 * m0.Evaluate(t.record.values);
    const double s1 = n1 * m1.Evaluate(t.record.values);
    if ((s1 > s0 ? 1 : 0) == t.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

TEST(ShardedAccuracyTest, MergedModelMatchesMonolithicAcrossACrash) {
  constexpr size_t kTrain = 3000;
  constexpr size_t kTest = 600;
  const std::vector<LabeledRecord> train = MakeLabeledStream(kTrain, 43);
  const std::vector<LabeledRecord> test = MakeLabeledStream(kTest, 4321);

  // Split the train stream by class.
  std::vector<StreamRecord> class0, class1;
  for (const LabeledRecord& r : train) {
    (r.label == 0 ? class0 : class1).push_back(r.record);
  }

  // Monolithic reference: one summarizer per class, same budget q.
  StreamSummarizer::Options mono_options;
  mono_options.num_clusters = 20;
  StreamSummarizer mono0 =
      StreamSummarizer::Create(kDims, mono_options).value();
  StreamSummarizer mono1 =
      StreamSummarizer::Create(kDims, mono_options).value();
  for (const StreamRecord& r : class0) {
    ASSERT_TRUE(mono0.Ingest(r.values, r.psi, r.timestamp).ok());
  }
  for (const StreamRecord& r : class1) {
    ASSERT_TRUE(mono1.Ingest(r.values, r.psi, r.timestamp).ok());
  }
  const double mono_accuracy =
      Accuracy(mono0.SnapshotDensity().value(),
               static_cast<double>(mono0.num_points()),
               mono1.SnapshotDensity().value(),
               static_cast<double>(mono1.num_points()), test);
  EXPECT_GT(mono_accuracy, 0.9);  // sanity: the task is learnable

  // Sharded path: 4 shards per class, same merged budget. Class 0 takes a
  // crash mid-stream and recovers; the merged model must not care.
  const auto build_sharded = [&](const std::string& dir,
                                 FaultInjector* injector) {
    ShardedSummarizerOptions options;
    options.num_shards = 4;
    options.shard_options.num_clusters = 20;
    options.merged_clusters = 20;
    options.checkpoint_dir = dir;
    options.checkpoint_every = 150;
    options.io_faults = injector;
    return ShardedSummarizer::Create(kDims, options).value();
  };

  FaultInjector injector({});
  const std::string dir0 = FreshDir("udm_shard_acc0");
  const std::string dir1 = FreshDir("udm_shard_acc1");
  ShardedSummarizer sharded0 = build_sharded(dir0, &injector);
  ShardedSummarizer sharded1 = build_sharded(dir1, nullptr);

  const std::vector<RecordView> views0 = ToViews(class0);
  const std::vector<RecordView> views1 = ToViews(class1);
  ExecContext ctx;
  const size_t half0 = views0.size() / 2;
  ASSERT_TRUE(
      sharded0
          .IngestBatch(std::span<const RecordView>(views0).first(half0), ctx)
          .ok());
  injector.ArmCrashAt(static_cast<int>(ShardCrashSite::kAfterIngest), 1);
  ASSERT_TRUE(sharded0
                  .IngestBatch(std::span<const RecordView>(views0)
                                   .subspan(half0, half0 / 2),
                               ctx)
                  .ok());
  ASSERT_EQ(sharded0.num_degraded(), 1u);
  ASSERT_TRUE(sharded0.RecoverShards(ctx).ok());
  ASSERT_TRUE(
      sharded0
          .IngestBatch(
              std::span<const RecordView>(views0).subspan(half0 + half0 / 2),
              ctx)
          .ok());
  ASSERT_TRUE(
      sharded1.IngestBatch(std::span<const RecordView>(views1), ctx).ok());

  const MergeResult merged0 = sharded0.MergedSummary(ctx);
  const MergeResult merged1 = sharded1.MergedSummary(ctx);
  ASSERT_TRUE(merged0.complete());
  ASSERT_TRUE(merged1.complete());
  ASSERT_EQ(MergedCount(merged0), class0.size());
  ASSERT_EQ(MergedCount(merged1), class1.size());

  const double sharded_accuracy =
      Accuracy(sharded0.MergedSnapshot(ctx).value(),
               static_cast<double>(MergedCount(merged0)),
               sharded1.MergedSnapshot(ctx).value(),
               static_cast<double>(MergedCount(merged1)), test);

  // Sharding + crash + recovery stays within 5 points of the monolithic
  // pass (the assignment decisions differ, the density mass does not).
  EXPECT_NEAR(sharded_accuracy, mono_accuracy, 0.05);
  fs::remove_all(dir0);
  fs::remove_all(dir1);
}

// ---------------------------------------------------------------------------
// Soak: randomized kills under sustained ingest
// ---------------------------------------------------------------------------

TEST(ShardedSoakTest, RandomKillScheduleLosesNothing) {
  constexpr size_t kRounds = 40;
  constexpr size_t kBatch = 250;
  Rng rng(47);
  FaultInjector injector({});
  const std::string dir = FreshDir("udm_shard_soak");
  ShardedSummarizerOptions options = BaseOptions(dir, &injector);
  options.num_shards = 4;
  options.checkpoint_every = 100;
  ShardedSummarizer sharded =
      ShardedSummarizer::Create(kDims, options).value();

  std::vector<StreamRecord> all = MakeStream(kRounds * kBatch, 53);
  const std::vector<RecordView> views = ToViews(all);
  ExecContext ctx;
  for (size_t round = 0; round < kRounds; ++round) {
    const Result<ShardedIngestResult> result = sharded.IngestBatch(
        std::span<const RecordView>(views).subspan(round * kBatch, kBatch),
        ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->consumed, kBatch);

    const uint64_t roll = rng.UniformInt(10);
    if (roll < 2) {
      // Kill a random shard (idempotent if already dead).
      sharded.KillShard(static_cast<size_t>(rng.UniformInt(4)));
    } else if (roll < 4) {
      const Status recovered = sharded.RecoverShards(ctx);
      ASSERT_TRUE(recovered.ok()) << recovered.ToString();
    }
  }
  ASSERT_TRUE(sharded.RecoverShards(ctx).ok());
  EXPECT_EQ(sharded.num_degraded(), 0u);
  EXPECT_EQ(sharded.total_replay_remaining(), 0u);

  // Exactly-once absorption across the whole kill/recover schedule.
  EXPECT_EQ(sharded.records_routed(), all.size());
  EXPECT_EQ(TotalPoints(sharded), all.size());
  ExecContext merge_ctx;
  const MergeResult merged = sharded.MergedSummary(merge_ctx);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(MergedCount(merged), all.size());

  // And the result survives a final checkpoint + cold restore of every
  // shard (a fresh front end over the same directory).
  ASSERT_TRUE(sharded.CheckpointAll().ok());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace udm
