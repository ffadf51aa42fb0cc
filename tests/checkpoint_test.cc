#include "robustness/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/deadline.h"
#include "common/exec_context.h"
#include "common/random.h"
#include "robustness/fault_injector.h"
#include "robustness/retry.h"

namespace udm {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

StreamSummarizer MakeBusySummarizer(size_t n = 600, uint64_t seed = 3) {
  StreamSummarizer::Options options;
  options.num_clusters = 15;
  options.policy = FaultPolicy::kQuarantine;
  StreamSummarizer summarizer = StreamSummarizer::Create(2, options).value();
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double> values{rng.Gaussian(0.0, 1.0),
                                     rng.Gaussian(4.0, 2.0)};
    const std::vector<double> psi{rng.Uniform(0.0, 0.2),
                                  rng.Uniform(0.0, 0.2)};
    EXPECT_TRUE(summarizer.Ingest(values, psi, i + 1).ok());
  }
  return summarizer;
}

void ExpectSameState(const StreamSummarizer& a, const StreamSummarizer& b) {
  ASSERT_EQ(a.num_dims(), b.num_dims());
  EXPECT_EQ(a.num_points(), b.num_points());
  EXPECT_EQ(a.last_timestamp(), b.last_timestamp());
  EXPECT_EQ(a.ingest_stats().records_ok, b.ingest_stats().records_ok);
  EXPECT_EQ(a.ingest_stats().records_quarantined,
            b.ingest_stats().records_quarantined);
  ASSERT_EQ(a.clusters().size(), b.clusters().size());
  for (size_t c = 0; c < a.clusters().size(); ++c) {
    EXPECT_EQ(a.clusters()[c].Count(), b.clusters()[c].Count());
    for (size_t j = 0; j < a.num_dims(); ++j) {
      EXPECT_DOUBLE_EQ(a.clusters()[c].cf1()[j], b.clusters()[c].cf1()[j]);
      EXPECT_DOUBLE_EQ(a.clusters()[c].cf2()[j], b.clusters()[c].cf2()[j]);
      EXPECT_DOUBLE_EQ(a.clusters()[c].ef2()[j], b.clusters()[c].ef2()[j]);
    }
    EXPECT_EQ(a.time_stats()[c].first_timestamp,
              b.time_stats()[c].first_timestamp);
    EXPECT_EQ(a.time_stats()[c].last_timestamp,
              b.time_stats()[c].last_timestamp);
  }
}

TEST(CheckpointSerializationTest, RoundTripsExactly) {
  const StreamSummarizer original = MakeBusySummarizer();
  const std::string payload = SerializeCheckpoint(original, 600);
  const DecodedCheckpoint decoded = DeserializeCheckpoint(payload).value();
  EXPECT_EQ(decoded.cursor, 600u);
  const StreamSummarizer restored =
      StreamSummarizer::FromState(decoded.state).value();
  ExpectSameState(original, restored);
  // The restored summarizer keeps ingesting exactly like the original.
  StreamSummarizer a = StreamSummarizer::FromState(decoded.state).value();
  StreamSummarizer b = StreamSummarizer::FromState(decoded.state).value();
  const std::vector<double> values{1.5, 3.0};
  const std::vector<double> psi{0.1, 0.1};
  ASSERT_TRUE(a.Ingest(values, psi, 601).ok());
  ASSERT_TRUE(b.Ingest(values, psi, 601).ok());
  ExpectSameState(a, b);
}

TEST(CheckpointSerializationTest, DetectsCorruptionAndTruncation) {
  const StreamSummarizer original = MakeBusySummarizer(200);
  const std::string payload = SerializeCheckpoint(original, 200);

  // Bit flip in the middle.
  std::string flipped = payload;
  flipped[payload.size() / 2] ^= 0x04;
  EXPECT_FALSE(DeserializeCheckpoint(flipped).ok());

  // Truncation at any point loses the footer or breaks the CRC.
  EXPECT_FALSE(DeserializeCheckpoint(payload.substr(0, 40)).ok());
  EXPECT_FALSE(
      DeserializeCheckpoint(payload.substr(0, payload.size() / 2)).ok());
  EXPECT_FALSE(
      DeserializeCheckpoint(payload.substr(0, payload.size() - 3)).ok());

  // Garbage never crashes.
  EXPECT_FALSE(DeserializeCheckpoint("").ok());
  EXPECT_FALSE(DeserializeCheckpoint("udm-checkpoint 2\n").ok());
  EXPECT_FALSE(DeserializeCheckpoint("complete nonsense\n\x01\x02").ok());
}

TEST(CheckpointManagerTest, SaveRotatesAndKeepsNewest) {
  CheckpointOptions options;
  options.directory = FreshDir("udm_ckpt_rotate");
  options.max_keep = 3;
  CheckpointManager manager = CheckpointManager::Create(options).value();
  const StreamSummarizer summarizer = MakeBusySummarizer(100);
  for (uint64_t cursor = 1; cursor <= 5; ++cursor) {
    ASSERT_TRUE(manager.Save(summarizer, cursor).ok());
  }
  const std::vector<std::string> files = manager.ListCheckpoints();
  ASSERT_EQ(files.size(), 3u);
  // Newest first, and the newest holds the last cursor.
  const CheckpointManager::Restored restored =
      manager.RestoreLatest().value();
  EXPECT_EQ(restored.cursor, 5u);
  EXPECT_EQ(restored.fallbacks, 0u);
  EXPECT_EQ(restored.path, files[0]);
  fs::remove_all(options.directory);
}

TEST(CheckpointManagerTest, SequenceSurvivesReopen) {
  CheckpointOptions options;
  options.directory = FreshDir("udm_ckpt_reopen");
  const StreamSummarizer summarizer = MakeBusySummarizer(100);
  {
    CheckpointManager manager = CheckpointManager::Create(options).value();
    ASSERT_TRUE(manager.Save(summarizer, 1).ok());
    ASSERT_TRUE(manager.Save(summarizer, 2).ok());
  }
  {
    CheckpointManager manager = CheckpointManager::Create(options).value();
    ASSERT_TRUE(manager.Save(summarizer, 3).ok());
    EXPECT_EQ(manager.RestoreLatest().value().cursor, 3u);
    EXPECT_EQ(manager.ListCheckpoints().size(), 3u);
  }
  fs::remove_all(options.directory);
}

TEST(CheckpointManagerTest, FallsBackPastCorruptNewest) {
  CheckpointOptions options;
  options.directory = FreshDir("udm_ckpt_fallback");
  CheckpointManager manager = CheckpointManager::Create(options).value();
  const StreamSummarizer summarizer = MakeBusySummarizer(300);
  ASSERT_TRUE(manager.Save(summarizer, 100).ok());
  ASSERT_TRUE(manager.Save(summarizer, 200).ok());
  ASSERT_TRUE(manager.Save(summarizer, 300).ok());

  // Corrupt the newest, truncate the second-newest: recovery must land on
  // the oldest.
  const std::vector<std::string> files = manager.ListCheckpoints();
  ASSERT_EQ(files.size(), 3u);
  std::string newest = ReadFile(files[0]);
  newest[newest.size() / 3] ^= 0x10;
  WriteFile(files[0], newest);
  WriteFile(files[1], ReadFile(files[1]).substr(0, 25));

  const CheckpointManager::Restored restored =
      manager.RestoreLatest().value();
  EXPECT_EQ(restored.cursor, 100u);
  EXPECT_EQ(restored.fallbacks, 2u);
  ExpectSameState(summarizer, restored.summarizer);
  fs::remove_all(options.directory);
}

TEST(CheckpointManagerTest, AllCorruptIsAnError) {
  CheckpointOptions options;
  options.directory = FreshDir("udm_ckpt_allbad");
  CheckpointManager manager = CheckpointManager::Create(options).value();
  const StreamSummarizer summarizer = MakeBusySummarizer(100);
  ASSERT_TRUE(manager.Save(summarizer, 1).ok());
  const std::vector<std::string> files = manager.ListCheckpoints();
  WriteFile(files[0], "not a checkpoint at all");
  EXPECT_FALSE(manager.RestoreLatest().ok());
  fs::remove_all(options.directory);
}

TEST(CheckpointManagerTest, EmptyDirectoryIsNotFound) {
  CheckpointOptions options;
  options.directory = FreshDir("udm_ckpt_empty");
  CheckpointManager manager = CheckpointManager::Create(options).value();
  EXPECT_EQ(manager.RestoreLatest().status().code(), StatusCode::kNotFound);
  fs::remove_all(options.directory);
}

TEST(CheckpointManagerTest, RejectsBadOptions) {
  CheckpointOptions options;
  EXPECT_FALSE(CheckpointManager::Create(options).ok());  // empty directory
  options.directory = FreshDir("udm_ckpt_opts");
  options.max_keep = 0;
  EXPECT_FALSE(CheckpointManager::Create(options).ok());
}

// ---------------------------------------------------------------------------
// Transient I/O faults and retry
// ---------------------------------------------------------------------------

RetryPolicy FastRetry(size_t max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.initial_backoff_ms = 0.01;  // keep tests fast
  policy.max_backoff_ms = 0.1;
  return policy;
}

TEST(CheckpointRetryTest, SaveSucceedsThroughTransientFaults) {
  FaultInjector injector({});
  injector.ArmIoFaults(2);  // first two attempts fail

  CheckpointOptions options;
  options.directory = FreshDir("udm_ckpt_transient");
  options.retry = FastRetry(3);
  options.io_faults = &injector;
  CheckpointManager manager = CheckpointManager::Create(options).value();
  const StreamSummarizer summarizer = MakeBusySummarizer(100);

  ASSERT_TRUE(manager.Save(summarizer, 42).ok());
  EXPECT_EQ(manager.last_retry_stats().attempts, 3u);
  EXPECT_EQ(injector.armed_io_faults(), 0u);
  EXPECT_EQ(injector.io_faults_injected(), 2u);

  // The checkpoint written on the surviving attempt is fully valid.
  const CheckpointManager::Restored restored =
      manager.RestoreLatest().value();
  EXPECT_EQ(restored.cursor, 42u);
  ExpectSameState(summarizer, restored.summarizer);
  fs::remove_all(options.directory);
}

TEST(CheckpointRetryTest, SaveFailsCleanlyPastTheRetryBudget) {
  FaultInjector injector({});
  injector.ArmIoFaults(5);  // more faults than attempts

  CheckpointOptions options;
  options.directory = FreshDir("udm_ckpt_exhaust");
  options.retry = FastRetry(3);
  options.io_faults = &injector;
  CheckpointManager manager = CheckpointManager::Create(options).value();
  const StreamSummarizer summarizer = MakeBusySummarizer(100);

  const Status status = manager.Save(summarizer, 1);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(manager.last_retry_stats().attempts, 3u);
  // No partial/corrupt file survives a failed save.
  EXPECT_TRUE(manager.ListCheckpoints().empty());

  // Once the transient condition clears, the same manager works again.
  EXPECT_EQ(injector.armed_io_faults(), 2u);
  injector.ArmIoFaults(0);
  EXPECT_TRUE(manager.Save(summarizer, 2).ok());
  EXPECT_EQ(manager.RestoreLatest().value().cursor, 2u);
  fs::remove_all(options.directory);
}

TEST(CheckpointRetryTest, RestoreSucceedsThroughTransientFaults) {
  CheckpointOptions options;
  options.directory = FreshDir("udm_ckpt_restore_retry");
  options.retry = FastRetry(3);
  CheckpointManager manager = CheckpointManager::Create(options).value();
  const StreamSummarizer summarizer = MakeBusySummarizer(100);
  ASSERT_TRUE(manager.Save(summarizer, 9).ok());

  FaultInjector injector({});
  injector.ArmIoFaults(2);
  options.io_faults = &injector;
  CheckpointManager reader = CheckpointManager::Create(options).value();
  const Result<CheckpointManager::Restored> restored = reader.RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->cursor, 9u);
  EXPECT_EQ(injector.io_faults_injected(), 2u);
  fs::remove_all(options.directory);
}

// ---------------------------------------------------------------------------
// Torn writes and short reads
// ---------------------------------------------------------------------------

TEST(CheckpointTornWriteTest, TornGenerationIsCommittedThenRejected) {
  FaultInjector injector({});

  CheckpointOptions options;
  options.directory = FreshDir("udm_ckpt_torn");
  options.retry = FastRetry(1);  // a torn write is not transient
  options.io_faults = &injector;
  CheckpointManager manager = CheckpointManager::Create(options).value();
  const StreamSummarizer summarizer = MakeBusySummarizer(150);

  ASSERT_TRUE(manager.Save(summarizer, 10).ok());
  ASSERT_TRUE(manager.Save(summarizer, 20).ok());

  // The torn save reports failure *and* leaves a truncated generation at
  // the final path — the on-disk shape of a crash between rename and data
  // flush. It must be newest in the rotation so recovery has to reject it.
  injector.ArmTornWrites(1);
  const Status torn = manager.Save(summarizer, 30);
  EXPECT_EQ(torn.code(), StatusCode::kIoError);
  EXPECT_EQ(injector.torn_writes_injected(), 1u);
  const std::vector<std::string> files = manager.ListCheckpoints();
  ASSERT_EQ(files.size(), 3u);
  const std::string full = SerializeCheckpoint(summarizer, 30);
  EXPECT_LT(ReadFile(files[0]).size(), full.size());

  // Recovery CRC-rejects the torn newest and lands on the last good save.
  const CheckpointManager::Restored restored = manager.RestoreLatest().value();
  EXPECT_EQ(restored.cursor, 20u);
  EXPECT_EQ(restored.fallbacks, 1u);
  ExpectSameState(summarizer, restored.summarizer);

  // The sequence advanced past the torn generation, so the next good save
  // becomes the newest and wins recovery again.
  ASSERT_TRUE(manager.Save(summarizer, 40).ok());
  EXPECT_EQ(manager.RestoreLatest().value().cursor, 40u);
  fs::remove_all(options.directory);
}

TEST(CheckpointShortReadTest, TruncatedReadFallsBackToOlderGeneration) {
  CheckpointOptions options;
  options.directory = FreshDir("udm_ckpt_shortread");
  CheckpointManager writer = CheckpointManager::Create(options).value();
  const StreamSummarizer summarizer = MakeBusySummarizer(150);
  ASSERT_TRUE(writer.Save(summarizer, 11).ok());
  ASSERT_TRUE(writer.Save(summarizer, 22).ok());

  // The file on disk is intact; the *read* observes a prefix. One armed
  // short read hits the newest candidate, so recovery falls back once.
  FaultInjector injector({});
  injector.ArmShortReads(1);
  options.io_faults = &injector;
  CheckpointManager reader = CheckpointManager::Create(options).value();
  const CheckpointManager::Restored restored = reader.RestoreLatest().value();
  EXPECT_EQ(restored.cursor, 11u);
  EXPECT_EQ(restored.fallbacks, 1u);
  EXPECT_EQ(injector.short_reads_injected(), 1u);
  ExpectSameState(summarizer, restored.summarizer);

  // With the fault cleared the same reader sees the newest generation.
  EXPECT_EQ(reader.RestoreLatest().value().cursor, 22u);
  fs::remove_all(options.directory);
}

// ---------------------------------------------------------------------------
// Wire-format versioning
// ---------------------------------------------------------------------------

TEST(CheckpointVersionTest, V4RoundTripsBackpressureAndReplayCounters) {
  StreamSummarizer stream = StreamSummarizer::Create(2).value();
  const std::vector<double> values{1.0, 2.0};
  const std::vector<double> psi{0.1, 0.1};
  std::vector<RecordView> batch;
  for (size_t i = 0; i < 10; ++i) {
    batch.push_back(RecordView{values, psi, i + 1});
  }
  ExecBudget budget;
  budget.max_bytes = 4 * 32;  // four records of (2+2) doubles
  ExecContext ctx(Deadline::Infinite(), CancellationToken(), budget);
  const Result<BatchIngestResult> result = stream.IngestBatch(batch, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(stream.ingest_stats().records_deferred, 0u);

  // Replay part of the deferred tail so all three counters are nonzero.
  ExecContext replay_ctx;
  std::vector<RecordView> tail(batch.begin() + result->consumed,
                               batch.begin() + result->consumed + 2);
  ASSERT_TRUE(stream.IngestBatch(tail, replay_ctx).ok());
  ASSERT_GT(stream.ingest_stats().records_replayed, 0u);

  const std::string payload = SerializeCheckpoint(stream, 4);
  EXPECT_NE(payload.find("udm-checkpoint 4\n"), std::string::npos);
  const DecodedCheckpoint decoded = DeserializeCheckpoint(payload).value();
  EXPECT_EQ(decoded.state.stats.records_deferred,
            stream.ingest_stats().records_deferred);
  EXPECT_EQ(decoded.state.stats.batch_deadline_deferrals,
            stream.ingest_stats().batch_deadline_deferrals);
  EXPECT_EQ(decoded.state.stats.records_replayed,
            stream.ingest_stats().records_replayed);
  const StreamSummarizer restored =
      StreamSummarizer::FromState(decoded.state).value();
  EXPECT_EQ(restored.ingest_stats().records_deferred,
            stream.ingest_stats().records_deferred);
  EXPECT_EQ(restored.ingest_stats().records_replayed,
            stream.ingest_stats().records_replayed);
}

TEST(CheckpointVersionTest, V2PayloadsStillRestoreWithZeroedCounters) {
  // Rebuild a v2 payload from a v4 one: drop the backpressure line, stamp
  // the old version, recompute the CRC footer — exactly what a pre-v3
  // writer produced.
  const StreamSummarizer original = MakeBusySummarizer(120);
  std::string payload = SerializeCheckpoint(original, 120);

  const size_t version_pos = payload.find("udm-checkpoint 4\n");
  ASSERT_NE(version_pos, std::string::npos);
  payload.replace(version_pos, 17, "udm-checkpoint 2\n");

  const size_t bp_begin = payload.find("backpressure ");
  ASSERT_NE(bp_begin, std::string::npos);
  const size_t bp_end = payload.find('\n', bp_begin);
  ASSERT_NE(bp_end, std::string::npos);
  payload.erase(bp_begin, bp_end - bp_begin + 1);

  const size_t footer_pos = payload.rfind("crc32 ");
  ASSERT_NE(footer_pos, std::string::npos);
  payload.erase(footer_pos);
  payload += "crc32 " + Crc32Hex(Crc32(payload)) + "\n";

  const Result<DecodedCheckpoint> decoded = DeserializeCheckpoint(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->cursor, 120u);
  EXPECT_EQ(decoded->state.stats.records_deferred, 0u);
  EXPECT_EQ(decoded->state.stats.batch_deadline_deferrals, 0u);
  EXPECT_EQ(decoded->state.stats.records_replayed, 0u);
  const StreamSummarizer restored =
      StreamSummarizer::FromState(decoded->state).value();
  ExpectSameState(original, restored);
}

TEST(CheckpointVersionTest, V3PayloadsRestoreWithZeroedReplayCounter) {
  // A v3 writer emitted a two-field backpressure line. Rebuild one from a
  // v4 payload and check the third counter reads back as zero.
  const StreamSummarizer original = MakeBusySummarizer(120);
  std::string payload = SerializeCheckpoint(original, 120);

  const size_t version_pos = payload.find("udm-checkpoint 4\n");
  ASSERT_NE(version_pos, std::string::npos);
  payload.replace(version_pos, 17, "udm-checkpoint 3\n");

  const size_t bp_begin = payload.find("backpressure ");
  ASSERT_NE(bp_begin, std::string::npos);
  const size_t bp_end = payload.find('\n', bp_begin);
  ASSERT_NE(bp_end, std::string::npos);
  std::string line = payload.substr(bp_begin, bp_end - bp_begin);
  line.resize(line.rfind(' '));  // drop the records_replayed field
  payload.replace(bp_begin, bp_end - bp_begin, line);

  const size_t footer_pos = payload.rfind("crc32 ");
  ASSERT_NE(footer_pos, std::string::npos);
  payload.erase(footer_pos);
  payload += "crc32 " + Crc32Hex(Crc32(payload)) + "\n";

  const Result<DecodedCheckpoint> decoded = DeserializeCheckpoint(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->state.stats.records_replayed, 0u);
  const StreamSummarizer restored =
      StreamSummarizer::FromState(decoded->state).value();
  ExpectSameState(original, restored);
}

// ---------------------------------------------------------------------------
// Crash consistency
// ---------------------------------------------------------------------------

struct LabeledRecord {
  StreamRecord record;
  int label = 0;
};

/// Two well-separated 3-d Gaussian classes, interleaved, timestamps 1..n.
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

/// Weighted per-class density argmax over the two summarizers.
double ClassifyAccuracy(const StreamSummarizer& class0,
                        const StreamSummarizer& class1,
                        const std::vector<LabeledRecord>& test) {
  const McDensityModel m0 = class0.SnapshotDensity().value();
  const McDensityModel m1 = class1.SnapshotDensity().value();
  size_t correct = 0;
  for (const LabeledRecord& t : test) {
    const double s0 = static_cast<double>(class0.num_points()) *
                      m0.Evaluate(t.record.values);
    const double s1 = static_cast<double>(class1.num_points()) *
                      m1.Evaluate(t.record.values);
    const int predicted = s1 > s0 ? 1 : 0;
    if (predicted == t.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

/// Acceptance criterion: ingestion interrupted ("crash") at a
/// fault-injected point recovers from the newest valid checkpoint — even
/// with the newest generation deliberately corrupted — resumes mid-stream,
/// and lands within 1 percentage point of the uninterrupted run's
/// classification accuracy on the same seeded stream.
TEST(CrashConsistencyTest, RecoveredRunMatchesUninterruptedAccuracy) {
  constexpr size_t kTrain = 3000;
  constexpr size_t kTest = 600;
  constexpr size_t kCheckpointEvery = 500;
  const std::vector<LabeledRecord> train = MakeLabeledStream(kTrain, 7);
  const std::vector<LabeledRecord> test = MakeLabeledStream(kTest, 1234);

  // Corrupt the training stream with a 5% seeded fault schedule. Labels
  // ride along by clean index (drops/duplicates are disabled, so emitted
  // index == clean index).
  std::vector<StreamRecord> clean;
  clean.reserve(kTrain);
  for (const LabeledRecord& r : train) clean.push_back(r.record);
  FaultInjector::Options inject;
  inject.seed = 55;
  inject.fault_rate = 0.05;
  FaultInjector injector(inject);
  const std::vector<StreamRecord> dirty = injector.Apply(clean);
  ASSERT_EQ(dirty.size(), train.size());
  ASSERT_FALSE(injector.faults().empty());

  StreamSummarizer::Options options;
  options.num_clusters = 25;
  options.policy = FaultPolicy::kQuarantine;

  const auto ingest = [&](StreamSummarizer& s0, StreamSummarizer& s1,
                          size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      StreamSummarizer& target = train[i].label == 0 ? s0 : s1;
      ASSERT_TRUE(
          target.Ingest(dirty[i].values, dirty[i].psi, dirty[i].timestamp)
              .ok());
    }
  };

  // Uninterrupted reference run.
  StreamSummarizer ref0 = StreamSummarizer::Create(3, options).value();
  StreamSummarizer ref1 = StreamSummarizer::Create(3, options).value();
  ingest(ref0, ref1, 0, dirty.size());
  const double reference_accuracy = ClassifyAccuracy(ref0, ref1, test);
  EXPECT_GT(reference_accuracy, 0.9);  // sanity: the task is learnable

  // Interrupted run: checkpoint both class summarizers at the same cursor,
  // crash at a fault-injected record past the midpoint.
  CheckpointOptions ckpt0;
  ckpt0.directory = FreshDir("udm_crash_c0");
  CheckpointOptions ckpt1;
  ckpt1.directory = FreshDir("udm_crash_c1");
  CheckpointManager mgr0 = CheckpointManager::Create(ckpt0).value();
  CheckpointManager mgr1 = CheckpointManager::Create(ckpt1).value();

  size_t crash_at = 0;
  for (const InjectedFault& f : injector.faults()) {
    if (f.emitted_index > dirty.size() / 2) {
      crash_at = f.emitted_index;
      break;
    }
  }
  ASSERT_GT(crash_at, 2 * kCheckpointEvery) << "need checkpoints before the "
                                               "crash point";
  {
    StreamSummarizer live0 = StreamSummarizer::Create(3, options).value();
    StreamSummarizer live1 = StreamSummarizer::Create(3, options).value();
    for (size_t i = 0; i < crash_at; ++i) {
      StreamSummarizer& target = train[i].label == 0 ? live0 : live1;
      ASSERT_TRUE(
          target.Ingest(dirty[i].values, dirty[i].psi, dirty[i].timestamp)
              .ok());
      if ((i + 1) % kCheckpointEvery == 0) {
        ASSERT_TRUE(mgr0.Save(live0, i + 1).ok());
        ASSERT_TRUE(mgr1.Save(live1, i + 1).ok());
      }
    }
    // The process dies here; live0/live1 are lost.
  }

  // Deliberately corrupt the newest checkpoint generation of both classes:
  // recovery must fall back to the previous one.
  for (CheckpointManager* mgr : {&mgr0, &mgr1}) {
    const std::vector<std::string> files = mgr->ListCheckpoints();
    ASSERT_GE(files.size(), 2u);
    std::string newest = ReadFile(files[0]);
    newest[newest.size() / 2] ^= 0x40;
    WriteFile(files[0], newest);
  }

  CheckpointManager::Restored rec0 = mgr0.RestoreLatest().value();
  CheckpointManager::Restored rec1 = mgr1.RestoreLatest().value();
  EXPECT_EQ(rec0.fallbacks, 1u);
  EXPECT_EQ(rec1.fallbacks, 1u);
  ASSERT_EQ(rec0.cursor, rec1.cursor) << "class checkpoints were saved at "
                                         "the same cursor";
  ASSERT_LT(rec0.cursor, crash_at);

  // Resume mid-stream and finish.
  ingest(rec0.summarizer, rec1.summarizer, rec0.cursor, dirty.size());
  const double recovered_accuracy =
      ClassifyAccuracy(rec0.summarizer, rec1.summarizer, test);

  EXPECT_NEAR(recovered_accuracy, reference_accuracy, 0.01)
      << "recovered run must stay within 1 percentage point";
  // Stronger: replaying the identical suffix from the restored state is
  // deterministic, so the summaries agree exactly.
  ExpectSameState(ref0, rec0.summarizer);
  ExpectSameState(ref1, rec1.summarizer);

  fs::remove_all(ckpt0.directory);
  fs::remove_all(ckpt1.directory);
}

}  // namespace
}  // namespace udm
