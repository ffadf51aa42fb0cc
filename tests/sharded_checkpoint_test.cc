// CheckpointAll saves every shard concurrently unless a fault injector is
// attached. The concurrent saves must write exactly the files the serial
// loop writes, and every one of them must restore.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_context.h"
#include "common/random.h"
#include "robustness/checkpoint.h"
#include "robustness/fault_injector.h"
#include "stream/sharded_summarizer.h"

namespace udm {
namespace {

namespace fs = std::filesystem;

constexpr size_t kDims = 4;
constexpr size_t kShards = 4;

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

std::vector<StreamRecord> MakeStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<StreamRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < kDims; ++j) {
      records[i].values.push_back(rng.Gaussian(static_cast<double>(j), 1.0));
      records[i].psi.push_back(rng.Uniform(0.0, 0.3));
    }
    records[i].timestamp = i + 1;
  }
  return records;
}

ShardedSummarizerOptions Options(const std::string& dir,
                                 FaultInjector* injector) {
  ShardedSummarizerOptions options;
  options.num_shards = kShards;
  options.shard_options.num_clusters = 20;
  options.shard_options.policy = FaultPolicy::kRepair;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 0;  // explicit CheckpointAll only
  options.io_faults = injector;
  return options;
}

TEST(ShardedCheckpointTest, ConcurrentSavesMatchSerialByteForByte) {
  const std::string serial_dir = FreshDir("udm_ckall_serial");
  const std::string concurrent_dir = FreshDir("udm_ckall_concurrent");
  // An injector with nothing armed fires no fault; attaching it only forces
  // CheckpointAll onto the serial loop.
  FaultInjector unarmed{FaultInjector::Options{}};
  ShardedSummarizer serial =
      ShardedSummarizer::Create(kDims, Options(serial_dir, &unarmed)).value();
  ShardedSummarizer concurrent =
      ShardedSummarizer::Create(kDims, Options(concurrent_dir, nullptr))
          .value();

  const std::vector<StreamRecord> records = MakeStream(1500, 21);
  std::vector<RecordView> views;
  for (const StreamRecord& r : records) {
    views.push_back(RecordView{r.values, r.psi, r.timestamp});
  }
  const std::span<const RecordView> all(views);
  constexpr size_t kRounds = 3;
  for (size_t round = 0; round < kRounds; ++round) {
    const std::span<const RecordView> batch =
        all.subspan(round * 500, 500);
    for (ShardedSummarizer* sharded : {&serial, &concurrent}) {
      ExecContext ctx;
      ASSERT_TRUE(sharded->IngestBatch(batch, ctx).ok());
      ASSERT_TRUE(sharded->CheckpointAll().ok());
    }
  }

  for (size_t i = 0; i < kShards; ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    CheckpointOptions options;
    options.directory = serial_dir + "/shard-" + std::to_string(i);
    const CheckpointManager serial_rotation =
        CheckpointManager::Create(options).value();
    options.directory = concurrent_dir + "/shard-" + std::to_string(i);
    const CheckpointManager concurrent_rotation =
        CheckpointManager::Create(options).value();
    const std::vector<std::string> expected = serial_rotation.ListCheckpoints();
    const std::vector<std::string> actual =
        concurrent_rotation.ListCheckpoints();
    ASSERT_EQ(expected.size(), kRounds);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t g = 0; g < expected.size(); ++g) {
      EXPECT_EQ(fs::path(actual[g]).filename(),
                fs::path(expected[g]).filename());
      EXPECT_EQ(ReadFile(actual[g]), ReadFile(expected[g]));
    }

    // The newest generation restores to the live shard's state.
    const Result<CheckpointManager::Restored> restored =
        concurrent_rotation.RestoreLatest();
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->fallbacks, 0u);
    const StreamSummarizer* live = concurrent.shard_summarizer(i);
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(restored->cursor, concurrent.shard_status(i).records_absorbed);
    EXPECT_EQ(SerializeCheckpoint(restored->summarizer, restored->cursor),
              SerializeCheckpoint(*live, restored->cursor));
  }
}

TEST(ShardedCheckpointTest, ConcurrentSavesReportTheLowestFailingShard) {
  const std::string dir = FreshDir("udm_ckall_failures");
  ShardedSummarizerOptions options = Options(dir, nullptr);
  options.retry.max_attempts = 1;
  ShardedSummarizer sharded =
      ShardedSummarizer::Create(kDims, options).value();
  const std::vector<StreamRecord> records = MakeStream(400, 8);
  std::vector<RecordView> views;
  for (const StreamRecord& r : records) {
    views.push_back(RecordView{r.values, r.psi, r.timestamp});
  }
  ExecContext ctx;
  ASSERT_TRUE(sharded.IngestBatch(views, ctx).ok());

  // A regular file where a shard's rotation directory should be makes that
  // shard's save fail on open, whichever thread runs it.
  for (size_t broken : {3u, 1u}) {
    const std::string shard_dir = dir + "/shard-" + std::to_string(broken);
    fs::remove_all(shard_dir);
    std::ofstream(shard_dir) << "not a directory";
  }
  const Status saved = sharded.CheckpointAll();
  ASSERT_FALSE(saved.ok());
  EXPECT_NE(saved.ToString().find("shard-1"), std::string::npos)
      << saved.ToString();
  for (size_t i = 0; i < kShards; ++i) {
    const bool broken = i == 1 || i == 3;
    EXPECT_EQ(sharded.shard_status(i).health,
              broken ? ShardHealth::kDegraded : ShardHealth::kHealthy)
        << "shard " << i;
  }
}

}  // namespace
}  // namespace udm
