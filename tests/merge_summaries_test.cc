#include "microcluster/merge.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/random.h"
#include "golden_digest.h"
#include "microcluster/serialize.h"
#include "stream/sharded_summarizer.h"

namespace udm {
namespace {

constexpr size_t kDims = 3;

MicroCluster RandomCluster(Rng& rng, double center, size_t points) {
  MicroCluster cluster(kDims);
  for (size_t i = 0; i < points; ++i) {
    std::vector<double> values(kDims);
    std::vector<double> psi(kDims);
    for (size_t j = 0; j < kDims; ++j) {
      values[j] = rng.Gaussian(center, 1.0);
      psi[j] = rng.Uniform(0.0, 0.3);
    }
    cluster.AddPoint(values, psi);
  }
  return cluster;
}

std::vector<MicroCluster> RandomSummary(Rng& rng, size_t num_clusters,
                                        double center) {
  std::vector<MicroCluster> summary;
  summary.reserve(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    summary.push_back(
        RandomCluster(rng, center + static_cast<double>(c), 5 + c % 7));
  }
  return summary;
}

/// Σ over clusters of (n, CF1_j, CF2_j, EF2_j) — the invariant any merge
/// must preserve, however the inputs were sharded.
struct Totals {
  uint64_t count = 0;
  std::vector<double> cf1 = std::vector<double>(kDims, 0.0);
  std::vector<double> cf2 = std::vector<double>(kDims, 0.0);
  std::vector<double> ef2 = std::vector<double>(kDims, 0.0);
};

Totals Aggregate(std::span<const MicroCluster> clusters) {
  Totals t;
  for (const MicroCluster& c : clusters) {
    t.count += c.Count();
    for (size_t j = 0; j < kDims; ++j) {
      t.cf1[j] += c.cf1()[j];
      t.cf2[j] += c.cf2()[j];
      t.ef2[j] += c.ef2()[j];
    }
  }
  return t;
}

void ExpectSameTotals(const Totals& a, const Totals& b, double rel = 1e-9) {
  EXPECT_EQ(a.count, b.count);
  for (size_t j = 0; j < kDims; ++j) {
    EXPECT_NEAR(a.cf1[j], b.cf1[j], rel * (1.0 + std::fabs(a.cf1[j])));
    EXPECT_NEAR(a.cf2[j], b.cf2[j], rel * (1.0 + std::fabs(a.cf2[j])));
    EXPECT_NEAR(a.ef2[j], b.ef2[j], rel * (1.0 + std::fabs(a.ef2[j])));
  }
}

void ExpectSameTuple(const MicroCluster& a, const MicroCluster& b) {
  ASSERT_EQ(a.Count(), b.Count());
  for (size_t j = 0; j < kDims; ++j) {
    EXPECT_NEAR(a.cf1()[j], b.cf1()[j], 1e-12 * (1.0 + std::fabs(a.cf1()[j])));
    EXPECT_NEAR(a.cf2()[j], b.cf2()[j], 1e-12 * (1.0 + std::fabs(a.cf2()[j])));
    EXPECT_NEAR(a.ef2()[j], b.ef2()[j], 1e-12 * (1.0 + std::fabs(a.ef2()[j])));
  }
}

// ---------------------------------------------------------------------------
// CFT tuple algebra (Lemma 1): Merge commutes and associates
// ---------------------------------------------------------------------------

TEST(CftTupleTest, MergeCommutes) {
  Rng rng(11);
  const MicroCluster a = RandomCluster(rng, 0.0, 20);
  const MicroCluster b = RandomCluster(rng, 5.0, 13);

  MicroCluster ab = a;
  ab.Merge(b);
  MicroCluster ba = b;
  ba.Merge(a);
  ExpectSameTuple(ab, ba);
}

TEST(CftTupleTest, MergeAssociates) {
  Rng rng(12);
  const MicroCluster a = RandomCluster(rng, 0.0, 20);
  const MicroCluster b = RandomCluster(rng, 5.0, 13);
  const MicroCluster c = RandomCluster(rng, -3.0, 8);

  MicroCluster left = a;  // (a + b) + c
  left.Merge(b);
  left.Merge(c);

  MicroCluster bc = b;  // a + (b + c)
  bc.Merge(c);
  MicroCluster right = a;
  right.Merge(bc);

  ExpectSameTuple(left, right);
}

// ---------------------------------------------------------------------------
// MergeSummaries
// ---------------------------------------------------------------------------

TEST(MergeSummariesTest, LosslessWhenTotalFitsBudget) {
  Rng rng(21);
  const std::vector<MicroCluster> s0 = RandomSummary(rng, 3, 0.0);
  const std::vector<MicroCluster> s1 = RandomSummary(rng, 4, 10.0);

  MicroClusterer::Options options;
  options.num_clusters = 10;  // 7 inputs fit
  const std::vector<MicroCluster> merged =
      MergeSummaries(s0, s1, kDims, options).value();

  ASSERT_EQ(merged.size(), 7u);
  for (size_t c = 0; c < 3; ++c) ExpectSameTuple(merged[c], s0[c]);
  for (size_t c = 0; c < 4; ++c) ExpectSameTuple(merged[3 + c], s1[c]);
}

TEST(MergeSummariesTest, RespectsBudgetAndPreservesAggregates) {
  Rng rng(22);
  std::vector<std::vector<MicroCluster>> shards;
  for (size_t s = 0; s < 4; ++s) {
    shards.push_back(RandomSummary(rng, 6, static_cast<double>(s) * 4.0));
  }
  std::vector<SummaryView> views(shards.begin(), shards.end());

  Totals input_totals;
  for (const auto& shard : shards) {
    const Totals t = Aggregate(shard);
    input_totals.count += t.count;
    for (size_t j = 0; j < kDims; ++j) {
      input_totals.cf1[j] += t.cf1[j];
      input_totals.cf2[j] += t.cf2[j];
      input_totals.ef2[j] += t.ef2[j];
    }
  }

  MicroClusterer::Options options;
  options.num_clusters = 9;  // 24 inputs must compress
  const std::vector<MicroCluster> merged =
      MergeSummaries(std::span<const SummaryView>(views), kDims, options)
          .value();

  EXPECT_EQ(merged.size(), 9u);
  ExpectSameTotals(Aggregate(merged), input_totals);
  for (const MicroCluster& c : merged) {
    EXPECT_FALSE(c.IsEmpty());
    for (size_t j = 0; j < kDims; ++j) {
      EXPECT_GE(c.Delta2At(j), 0.0);
      EXPECT_TRUE(std::isfinite(c.DeltaAt(j)));
    }
  }
}

TEST(MergeSummariesTest, AggregatesInvariantToSharding) {
  // The same cluster population split across 2 shards vs 6 shards must
  // merge to the same aggregate statistics: sharding is an implementation
  // detail of the ingest path, not of the summary's meaning.
  Rng rng(23);
  const std::vector<MicroCluster> all = RandomSummary(rng, 12, 0.0);

  const std::vector<SummaryView> two = {
      SummaryView(all.data(), 5), SummaryView(all.data() + 5, 7)};
  std::vector<SummaryView> six;
  for (size_t s = 0; s < 6; ++s) six.push_back(SummaryView(all.data() + 2 * s, 2));

  MicroClusterer::Options options;
  options.num_clusters = 5;
  const std::vector<MicroCluster> merged_two =
      MergeSummaries(std::span<const SummaryView>(two), kDims, options)
          .value();
  const std::vector<MicroCluster> merged_six =
      MergeSummaries(std::span<const SummaryView>(six), kDims, options)
          .value();

  EXPECT_EQ(merged_two.size(), 5u);
  EXPECT_EQ(merged_six.size(), 5u);
  ExpectSameTotals(Aggregate(merged_two), Aggregate(merged_six));
  ExpectSameTotals(Aggregate(merged_two), Aggregate(all));
}

TEST(MergeSummariesTest, DeterministicForAGivenInput) {
  Rng rng(24);
  const std::vector<MicroCluster> s0 = RandomSummary(rng, 8, 0.0);
  const std::vector<MicroCluster> s1 = RandomSummary(rng, 8, 6.0);

  MicroClusterer::Options options;
  options.num_clusters = 6;
  const std::vector<MicroCluster> first =
      MergeSummaries(s0, s1, kDims, options).value();
  const std::vector<MicroCluster> second =
      MergeSummaries(s0, s1, kDims, options).value();

  ASSERT_EQ(first.size(), second.size());
  for (size_t c = 0; c < first.size(); ++c) {
    ExpectSameTuple(first[c], second[c]);
  }
}

TEST(MergeSummariesTest, SkipsEmptyClustersAndHandlesEmptyInput) {
  MicroClusterer::Options options;
  options.num_clusters = 4;

  EXPECT_TRUE(MergeSummaries(std::span<const SummaryView>(), kDims, options)
                  .value()
                  .empty());

  std::vector<MicroCluster> with_empties;
  with_empties.emplace_back(kDims);  // empty
  Rng rng(25);
  with_empties.push_back(RandomCluster(rng, 1.0, 9));
  with_empties.emplace_back(kDims);  // empty
  const std::vector<MicroCluster> merged =
      MergeSummaries(with_empties, {}, kDims, options).value();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].Count(), 9u);
}

TEST(MergeSummariesTest, RejectsBadArguments) {
  Rng rng(26);
  const std::vector<MicroCluster> good = RandomSummary(rng, 2, 0.0);
  MicroClusterer::Options options;

  options.num_clusters = 0;
  EXPECT_FALSE(MergeSummaries(good, {}, kDims, options).ok());

  options.num_clusters = 4;
  EXPECT_FALSE(MergeSummaries(good, {}, 0, options).ok());
  // Dimension mismatch between the declared width and an input cluster.
  EXPECT_FALSE(MergeSummaries(good, {}, kDims + 1, options).ok());
}

TEST(MergeSummariesTest, MergedSummarySerializesAndRoundTrips) {
  Rng rng(27);
  const std::vector<MicroCluster> s0 = RandomSummary(rng, 7, 0.0);
  const std::vector<MicroCluster> s1 = RandomSummary(rng, 7, 8.0);

  MicroClusterer::Options options;
  options.num_clusters = 5;
  const std::vector<MicroCluster> merged =
      MergeSummaries(s0, s1, kDims, options).value();

  // The merged model is a first-class summary: it survives the wire format
  // (CRC-checked) bit-exactly, which is what lets `udm_cli merge` hand it
  // to udm_serve.
  const std::string payload = SerializeMicroClusters(merged);
  const std::vector<MicroCluster> loaded =
      DeserializeMicroClusters(payload).value();
  ASSERT_EQ(loaded.size(), merged.size());
  for (size_t c = 0; c < merged.size(); ++c) {
    ExpectSameTuple(loaded[c], merged[c]);
  }
}

// ---------------------------------------------------------------------------
// Golden byte identity (DESIGN.md §4k): over-budget absorption, a 4-shard
// checkpoint's bytes and the merged shard output match the recorded digests
// at every SIMD level.
// ---------------------------------------------------------------------------

TEST(MergeGoldenTest, OverBudgetMergeIsByteIdentical) {
  const UncertainDataset u = golden::ForestLike(4000);
  constexpr size_t kParts = 4;
  std::vector<std::vector<MicroCluster>> parts;
  const size_t rows_per_part = u.data.NumRows() / kParts;
  for (size_t p = 0; p < kParts; ++p) {
    std::vector<size_t> rows(rows_per_part);
    std::iota(rows.begin(), rows.end(), p * rows_per_part);
    MicroClusterer::Options local;
    local.num_clusters = 60;
    parts.push_back(BuildMicroClusters(u.data.Select(rows),
                                       u.errors.Select(rows), local)
                        .value());
  }
  const std::vector<SummaryView> views(parts.begin(), parts.end());
  for (const AssignmentDistance distance :
       {AssignmentDistance::kErrorAdjusted, AssignmentDistance::kEuclidean}) {
    MicroClusterer::Options options;
    options.num_clusters = 100;
    options.distance = distance;
    golden::Digest digest;
    digest.Clusters(
        MergeSummaries(views, u.data.NumDims(), options).value());
    const char* want = distance == AssignmentDistance::kErrorAdjusted
                           ? "0x949456c023b8e680"
                           : "0x2ab86ee14ca04f8a";
    EXPECT_EQ(golden::Hex(digest.value()), want);
  }
}

TEST(MergeGoldenTest, ShardedCheckpointAndMergedOutputAreByteIdentical) {
  namespace fs = std::filesystem;
  const UncertainDataset u = golden::ForestLike(4000);
  // Per-process directory: the SIMD-level variants of this suite run
  // concurrently under ctest -j.
  const std::string dir = ::testing::TempDir() + "/merge_golden_shards_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  ShardedSummarizerOptions options;
  options.num_shards = 4;
  options.shard_options.num_clusters = 40;
  options.merged_clusters = 60;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 0;
  ShardedSummarizer sharded =
      ShardedSummarizer::Create(u.data.NumDims(), options).value();
  std::vector<RecordView> records;
  for (size_t i = 0; i < u.data.NumRows(); ++i) {
    records.push_back({u.data.Row(i), u.errors.RowPsi(i), i + 1});
  }
  const std::span<const RecordView> all(records);
  for (size_t first = 0; first < all.size(); first += 32) {
    ExecContext ctx;
    const size_t n = std::min<size_t>(32, all.size() - first);
    const Result<ShardedIngestResult> result =
        sharded.IngestBatch(all.subspan(first, n), ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->consumed, n);
  }
  ASSERT_TRUE(sharded.CheckpointAll().ok());

  std::vector<std::string> files;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files.push_back(fs::relative(entry.path(), dir).string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_EQ(files.size(), 4u);
  golden::Digest checkpoint;
  for (const std::string& name : files) {
    std::ifstream in(dir + "/" + name, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    checkpoint.Bytes(name.data(), name.size());
    checkpoint.Bytes(bytes.data(), bytes.size());
  }
  EXPECT_EQ(golden::Hex(checkpoint.value()), "0xecb1d6d05c09a7ee");

  ExecContext ctx;
  const MergeResult merged = sharded.MergedSummary(ctx);
  ASSERT_TRUE(merged.complete());
  golden::Digest output;
  output.Clusters(merged.clusters);
  EXPECT_EQ(golden::Hex(output.value()), "0x34bd2f74138ba6fe");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace udm
