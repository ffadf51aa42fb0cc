// fit: the write side of the summaries. DensityBasedClassifier::Train on
// noisy forest-cover-like data (Eq. 5 assignment for the global and the
// per-class summaries), then the same records with their per-entry ψ
// streamed through a 4-shard ShardedSummarizer with periodic CheckpointAll
// and a final MergedSummary (Lemma 1).
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "classify/density_classifier.h"
#include "dataset/uci_like.h"
#include "error/perturbation.h"
#include "stream/sharded_summarizer.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The clean rows are fixed, like a UCI file (generator seed
/// kDatasetSeed); the run seed draws the injected errors.
constexpr size_t kRows = 40000;
constexpr uint64_t kDatasetSeed = 4;
constexpr double kErrorLevel = 1.2;
constexpr size_t kClusters = 140;
constexpr size_t kShards = 4;
/// Records per IngestBatch call: a pass makes 1250 calls.
constexpr size_t kBatch = 32;
constexpr size_t kCheckpointEvery = 20000;
/// Every kDirtyStride-th streamed record carries a NaN reading, which the
/// kQuarantine policy skips and counts (a dirty sensor stream).
constexpr size_t kDirtyStride = 500;

struct Inputs {
  udm::UncertainDataset noisy;
  std::vector<double> stream_values;  // noisy values with the dirty NaNs
  std::vector<udm::RecordView> records;
  size_t dirty = 0;
};

udm::Result<Inputs> Setup(uint64_t seed) {
  UDM_ASSIGN_OR_RETURN(udm::Dataset clean,
                       udm::MakeForestCoverLike(kRows, kDatasetSeed));
  udm::PerturbationOptions perturb;
  perturb.f = kErrorLevel;
  perturb.seed = seed * 7 + 1;
  UDM_ASSIGN_OR_RETURN(udm::UncertainDataset noisy,
                       udm::Perturb(clean, perturb));
  Inputs in{std::move(noisy), {}, {}, 0};
  const size_t d = in.noisy.data.NumDims();
  const std::span<const double> values = in.noisy.data.values();
  in.stream_values.assign(values.begin(), values.end());
  for (size_t i = kDirtyStride - 1; i < kRows; i += kDirtyStride) {
    in.stream_values[i * d + i % d] = std::numeric_limits<double>::quiet_NaN();
    ++in.dirty;
  }
  in.records.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    in.records.push_back({{in.stream_values.data() + i * d, d},
                          in.noisy.errors.RowPsi(i),
                          static_cast<uint64_t>(i + 1)});
  }
  return in;
}

/// Bytes of the newest checkpoint file in each shard directory.
uint64_t NewestCheckpointBytes(const std::string& root) {
  namespace fs = std::filesystem;
  uint64_t bytes = 0;
  std::error_code ec;
  for (const fs::directory_entry& shard : fs::directory_iterator(root, ec)) {
    if (!shard.is_directory()) continue;
    fs::file_time_type newest = fs::file_time_type::min();
    uint64_t size = 0;
    for (const fs::directory_entry& f : fs::directory_iterator(shard, ec)) {
      if (f.is_regular_file() && f.last_write_time() >= newest) {
        newest = f.last_write_time();
        size = f.file_size();
      }
    }
    bytes += size;
  }
  return bytes;
}

struct PassStats {
  double seconds = 0.0;
  std::vector<double> batch_us;
  uint64_t checkpoint_bytes = 0;
  udm::IngestStats ingest;
};

/// One sharded ingest pass over every record; false on any failed call.
bool IngestPass(const Inputs& in, const std::string& ckpt_dir,
                Outcome& out, PassStats& pass) {
  ResetDirectory(ckpt_dir);
  udm::ShardedSummarizerOptions options;
  options.num_shards = kShards;
  options.shard_options.num_clusters = kClusters;
  options.shard_options.policy = udm::FaultPolicy::kQuarantine;
  options.checkpoint_dir = ckpt_dir;
  options.checkpoint_every = 0;  // explicit CheckpointAll only
  udm::Result<udm::ShardedSummarizer> sharded = udm::ShardedSummarizer::Create(
      in.noisy.data.NumDims(), options);
  if (!sharded.ok()) {
    out.Check("fit_create_sharded", false, sharded.status().ToString());
    return false;
  }
  udm::ExecContext ctx;
  const std::span<const udm::RecordView> all(in.records);
  const int64_t start = NowNs();
  size_t since_checkpoint = 0;
  for (size_t first = 0; first < all.size(); first += kBatch) {
    const size_t n = std::min(kBatch, all.size() - first);
    ++out.attempted;
    const int64_t batch_start = NowNs();
    udm::Result<udm::ShardedIngestResult> result = [&] {
      Tracer::Span span("stream.IngestBatch");
      return sharded->IngestBatch(all.subspan(first, n), ctx);
    }();
    pass.batch_us.push_back(static_cast<double>(NowNs() - batch_start) * 1e-3);
    if (!result.ok() || result->consumed != n || result->shards_degraded != 0) {
      ++out.failed;
      out.Check("fit_ingest_batch", false,
                result.ok() ? "short batch" : result.status().ToString());
      return false;
    }
    since_checkpoint += n;
    if (since_checkpoint >= kCheckpointEvery || first + n == all.size()) {
      since_checkpoint = 0;
      ++out.attempted;
      udm::Status saved = [&] {
        Tracer::Span span("robustness.CheckpointAll");
        return sharded->CheckpointAll();
      }();
      if (!saved.ok()) {
        ++out.failed;
        out.Check("fit_checkpoint", false, saved.ToString());
        return false;
      }
      pass.checkpoint_bytes += NewestCheckpointBytes(ckpt_dir);
    }
  }
  ++out.attempted;
  udm::MergeResult merged = [&] {
    Tracer::Span span("microcluster.MergedSummary");
    return sharded->MergedSummary(ctx);
  }();
  pass.seconds = SecondsSince(start);
  pass.ingest = sharded->AggregateIngestStats();

  uint64_t merged_count = 0;
  for (const udm::MicroCluster& c : merged.clusters) merged_count += c.Count();
  const uint64_t ingested =
      pass.ingest.records_ok + pass.ingest.records_repaired;
  const bool ok = merged.complete() && merged.clusters.size() == kClusters &&
                  merged_count == ingested &&
                  ingested == in.records.size() - in.dirty &&
                  pass.ingest.records_quarantined == in.dirty;
  if (!ok) {
    ++out.failed;
    out.Check("fit_merge_accounting", false,
              "merged " + std::to_string(merged_count) + " of " +
                  std::to_string(ingested) + " ingested, " +
                  std::to_string(pass.ingest.records_quarantined) +
                  " quarantined of " + std::to_string(in.dirty) + " dirty");
  }
  return ok;
}

/// Times Train once; returns µs per training record (negative on failure).
double TrainOnce(const Inputs& in, Outcome& out) {
  udm::DensityBasedClassifier::Options options;
  options.num_clusters = kClusters;
  ++out.attempted;
  const int64_t start = NowNs();
  udm::Result<udm::DensityBasedClassifier> trained = [&] {
    Tracer::Span span("classify.Train");
    return udm::DensityBasedClassifier::Train(in.noisy.data, in.noisy.errors,
                                              options);
  }();
  const double seconds = SecondsSince(start);
  if (!trained.ok()) {
    ++out.failed;
    out.Check("fit_train", false, trained.status().ToString());
    return -1.0;
  }
  return seconds * 1e6 / static_cast<double>(kRows);
}

struct Phase {
  std::vector<double> train_us;
  std::vector<double> records_per_s;
  std::vector<double> batch_p90_us;  // p90 IngestBatch latency of each pass
  PassStats last;
};

/// Alternates Train and an ingest pass for `seconds` (at least twice each).
bool MeasurePhase(const Inputs& in, const std::string& ckpt_dir,
                  double seconds, Outcome& out, Phase& phase) {
  const int64_t start = NowNs();
  while (phase.train_us.size() < 2 || SecondsSince(start) < seconds) {
    const double us = TrainOnce(in, out);
    if (us < 0.0) return false;
    phase.train_us.push_back(us);
    PassStats pass;
    if (!IngestPass(in, ckpt_dir, out, pass)) return false;
    phase.records_per_s.push_back(static_cast<double>(in.records.size()) /
                                  pass.seconds);
    phase.batch_p90_us.push_back(Percentile(pass.batch_us, 0.90));
    phase.last = std::move(pass);
  }
  return true;
}

}  // namespace

Outcome RunFit(const Args& args) {
  Outcome out;
  std::vector<double> setup_s;
  udm::Result<Inputs> inputs = udm::Status::Internal("no setup ran");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t start = NowNs();
    inputs = Setup(args.seed);
    setup_s.push_back(SecondsSince(start));
    if (!inputs.ok()) {
      out.Check("fit_setup", false, inputs.status().ToString());
      return out;
    }
  }
  const Inputs& in = *inputs;
  const std::string ckpt_dir = args.work_dir + "/fit-checkpoints";

  Phase phase;
  Phase traced;
  bool ok = true;
  if (!args.trace) {
    ok = MeasurePhase(in, ckpt_dir, args.seconds, out, phase);
  } else {
    ok = MeasurePhase(in, ckpt_dir, args.seconds / 2, out, phase);
    Tracer::Get().set_enabled(true);
    ok = ok && MeasurePhase(in, ckpt_dir, args.seconds / 2, out, traced);
  }
  // Train succeeded above; the replay checks its summaries all reached q.
  ReplaySummaries(in.noisy.data, in.noisy.errors, kClusters,
                  /*per_class=*/true, out);
  out.Check("fit_operations", ok && out.failed == 0,
            std::to_string(out.attempted) + " train/ingest/checkpoint/merge "
            "calls, " + std::to_string(out.failed) + " failed");
  if (!ok) return out;

  out.Set("item_us", Median(phase.train_us));
  out.Set("p90_us", Median(phase.batch_p90_us));
  out.Set("items_per_s", Median(phase.records_per_s));
  out.Set("setup_s", Median(setup_s));
  out.Set("rss_peak_mb", SelfPeakRssMb());
  out.notes.push_back(
      "fit: train " + std::to_string(Median(phase.train_us)) +
      " us/record, ingest " + std::to_string(Median(phase.records_per_s)) +
      " records/s over " + std::to_string(phase.train_us.size()) + " reps");

  if (args.trace) {
    const Tracer& t = Tracer::Get();
    const double passes = static_cast<double>(traced.records_per_s.size());
    out.Set("microcluster.merge_s",
            t.TotalSeconds("microcluster.MergedSummary") / passes);
    out.Set("stream.ingest_s", t.TotalSeconds("stream.IngestBatch") / passes);
    out.Set("stream.records_deferred",
            static_cast<double>(traced.last.ingest.records_deferred));
    out.Set("stream.records_quarantined",
            static_cast<double>(traced.last.ingest.records_quarantined));
    out.Set("robustness.checkpoint_s",
            t.TotalSeconds("robustness.CheckpointAll") / passes);
    out.Set("robustness.checkpoint_bytes",
            static_cast<double>(traced.last.checkpoint_bytes));
    out.Set("trace.overhead_pct",
            (Median(traced.train_us) / Median(phase.train_us) - 1.0) * 100.0);
  }
  return out;
}

}  // namespace perfbench
