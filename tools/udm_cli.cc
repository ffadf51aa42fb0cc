// udm_cli — command-line front end for the core workflows:
//
//   udm_cli <generate|perturb|summarize|density|experiment|stream|recover|
//            merge|classify|stats|top> [--flag value ...]
//
// Each command declares its flags in a table below; `udm_cli <command>
// --help` prints it with every default. A pipeline: generate a UCI-like
// dataset, perturb it with the paper's error model (writing ψ beside it),
// summarize it into micro-clusters, and evaluate the summary's density.
// `stream` ingests the same data record by record under a fault policy,
// with checkpoints (`recover` restores the newest good one) or across
// hash-partitioned shards (`merge` folds their checkpoints into one
// summary). `experiment` runs the paper's classification protocol;
// `classify` the roll-up classifier under per-query deadlines and budgets.
// `stats` renders a RunReport, and `top` polls a live udm_serve.
//
// Every command also accepts the observability flags (DESIGN.md §4d):
// --metrics-out writes a RunReport JSON (every flag's effective value,
// metrics, checks), --trace-out a Chrome trace_event JSON.
//
// Exit codes: 0 success; 2 usage error (bad command line or invalid
// input); 3 a deadline expired after partial results were produced (the
// partials are printed first); 1 any other runtime failure.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "classify/density_classifier.h"
#include "classify/experiment.h"
#include "common/deadline.h"
#include "common/exec_context.h"
#include "common/flags.h"
#include "common/status.h"
#include "dataset/csv.h"
#include "dataset/uci_like.h"
#include "error/perturbation.h"
#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"
#include "microcluster/serialize.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "robustness/checkpoint.h"
#include "robustness/fault_injector.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "stream/sharded_summarizer.h"
#include "stream/stream_summarizer.h"

namespace {

using enum udm::FlagKind;
using udm::FlagSpec;
using udm::FlagValues;
using udm::kRequired;

udm::Result<std::vector<double>> ParsePoint(const std::string& text) {
  std::vector<double> point;
  std::string field;
  for (char c : text + ",") {
    if (c == ',') {
      if (field.empty()) continue;
      char* end = nullptr;
      const double v = std::strtod(field.c_str(), &end);
      if (end == field.c_str() || *end != '\0') {
        return udm::Status::InvalidArgument("bad coordinate '" + field + "'");
      }
      point.push_back(v);
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  if (point.empty()) {
    return udm::Status::InvalidArgument("empty --point");
  }
  return point;
}

constexpr FlagSpec kGenerateFlags[] = {
    {"dataset", kText, kRequired, "adult | ionosphere | breast | forest"},
    {"n", kCount, "5000", "rows to generate"},
    {"seed", kCount, "1", "generator seed"},
    {"out", kText, kRequired, "output CSV"},
};

udm::Status RunGenerate(const FlagValues& flags) {
  const std::string& out = flags.Text("out");
  UDM_ASSIGN_OR_RETURN(const udm::Dataset data,
                       udm::MakeUciLike(flags.Text("dataset"),
                                        flags.Size("n"), flags.Size("seed")));
  UDM_RETURN_IF_ERROR(udm::WriteCsv(data, out));
  std::printf("wrote %zu rows x %zu dims (%zu classes) to %s\n",
              data.NumRows(), data.NumDims(), data.NumClasses(), out.c_str());
  return udm::Status::OK();
}

constexpr FlagSpec kPerturbFlags[] = {
    {"in", kText, kRequired, "clean input CSV"},
    {"out", kText, kRequired, "perturbed output CSV"},
    {"f", kReal, "1.0", "error level f (psi scale, x sigma)"},
    {"seed", kCount, "7", "perturbation seed"},
    {"errors-out", kText, nullptr, "also write the per-entry psi table as CSV"},
};

udm::Status RunPerturb(const FlagValues& flags) {
  const std::string& out = flags.Text("out");
  UDM_ASSIGN_OR_RETURN(const udm::Dataset clean,
                       udm::ReadCsv(flags.Text("in")));
  udm::PerturbationOptions options;
  options.f = flags.Real("f");
  options.seed = flags.Size("seed");
  UDM_ASSIGN_OR_RETURN(const udm::UncertainDataset uncertain,
                       udm::Perturb(clean, options));
  UDM_RETURN_IF_ERROR(udm::WriteCsv(uncertain.data, out));
  const std::string& errors_out = flags.Text("errors-out");
  if (!errors_out.empty()) {
    // Persist ψ as a labeled CSV (label column ignored on load).
    UDM_ASSIGN_OR_RETURN(udm::Dataset psi,
                         udm::Dataset::Create(clean.NumDims()));
    psi.Reserve(clean.NumRows());
    for (size_t i = 0; i < clean.NumRows(); ++i) {
      UDM_RETURN_IF_ERROR(psi.AppendRow(uncertain.errors.RowPsi(i), 0));
    }
    UDM_RETURN_IF_ERROR(udm::WriteCsv(psi, errors_out));
  }
  std::printf("perturbed %zu rows at f=%.2f -> %s%s%s\n", clean.NumRows(),
              options.f, out.c_str(),
              errors_out.empty() ? "" : ", errors -> ",
              errors_out.c_str());
  return udm::Status::OK();
}

udm::Result<udm::ErrorModel> LoadErrors(const std::string& path, size_t rows,
                                        size_t dims) {
  if (path.empty()) return udm::ErrorModel::Zero(rows, dims);
  UDM_ASSIGN_OR_RETURN(const udm::Dataset psi, udm::ReadCsv(path));
  if (psi.NumRows() != rows || psi.NumDims() != dims) {
    return udm::Status::InvalidArgument(
        "error table shape does not match the data");
  }
  std::vector<double> table(psi.values().begin(), psi.values().end());
  return udm::ErrorModel::FromTable(rows, dims, std::move(table));
}

constexpr FlagSpec kSummarizeFlags[] = {
    {"in", kText, kRequired, "input CSV"},
    {"errors", kText, nullptr, "psi table CSV (default: zero errors)"},
    {"clusters", kCount, "140", "micro-cluster budget q"},
    {"out", kText, kRequired, "output summary"},
};

udm::Status RunSummarize(const FlagValues& flags) {
  const std::string& out = flags.Text("out");
  UDM_ASSIGN_OR_RETURN(const udm::Dataset data,
                       udm::ReadCsv(flags.Text("in")));
  UDM_ASSIGN_OR_RETURN(
      const udm::ErrorModel errors,
      LoadErrors(flags.Text("errors"), data.NumRows(), data.NumDims()));
  udm::MicroClusterer::Options options;
  options.num_clusters = flags.Size("clusters");
  UDM_ASSIGN_OR_RETURN(const std::vector<udm::MicroCluster> summary,
                       udm::BuildMicroClusters(data, errors, options));
  UDM_RETURN_IF_ERROR(udm::SaveMicroClusters(summary, out));
  std::printf("summarized %zu rows into %zu micro-clusters -> %s\n",
              data.NumRows(), summary.size(), out.c_str());
  return udm::Status::OK();
}

constexpr FlagSpec kDensityFlags[] = {
    {"summary", kText, kRequired, "micro-cluster summary file"},
    {"point", kText, kRequired, "query point x1,x2,..."},
};

udm::Status RunDensity(const FlagValues& flags) {
  UDM_ASSIGN_OR_RETURN(const std::vector<udm::MicroCluster> summary,
                       udm::LoadMicroClusters(flags.Text("summary")));
  UDM_ASSIGN_OR_RETURN(const udm::McDensityModel model,
                       udm::McDensityModel::Build(summary));
  UDM_ASSIGN_OR_RETURN(const std::vector<double> point,
                       ParsePoint(flags.Text("point")));
  if (point.size() != model.num_dims()) {
    return udm::Status::InvalidArgument(
        "point has " + std::to_string(point.size()) + " coordinates, model " +
        std::to_string(model.num_dims()));
  }
  std::printf("f_Q(x) = %.10g  (summary of %llu points in %zu clusters)\n",
              model.Evaluate(point),
              static_cast<unsigned long long>(model.total_count()),
              model.num_clusters());
  return udm::Status::OK();
}

constexpr FlagSpec kExperimentFlags[] = {
    {"dataset", kText, kRequired, "adult | ionosphere | breast | forest"},
    {"n", kCount, "6000", "rows to generate"},
    {"seed", kCount, "1", "generator seed (the protocol uses +42)"},
    {"f", kReal, "1.2", "error level f"},
    {"clusters", kCount, "140", "micro-cluster budget q per class"},
    {"threshold", kReal, "0.75", "roll-up accuracy threshold"},
    {"test", kCount, "400", "max test examples per repeat"},
    {"repeats", kCount, "3", "random splits averaged"},
    {"threads", kCount, "0", "test-pass width (0 = serial)"},
};

udm::Status RunExperiment(const FlagValues& flags) {
  const std::string& name = flags.Text("dataset");
  const size_t n = flags.Size("n");
  UDM_ASSIGN_OR_RETURN(const udm::Dataset clean,
                       udm::MakeUciLike(name, n, flags.Size("seed")));
  udm::ClassificationExperimentConfig config;
  config.f = flags.Real("f");
  config.num_clusters = flags.Size("clusters");
  config.accuracy_threshold = flags.Real("threshold");
  config.max_test_examples = flags.Size("test");
  config.repeats = flags.Size("repeats");
  config.threads = flags.Size("threads");
  config.seed = flags.Size("seed") + 42;
  UDM_ASSIGN_OR_RETURN(const udm::ClassificationExperimentResult result,
                       udm::RunClassificationExperiment(clean, config));
  std::printf("dataset=%s n=%zu f=%.2f q=%zu\n", name.c_str(), n, config.f,
              config.num_clusters);
  std::printf("  density (error-adjusted): %.4f\n",
              result.accuracy_error_adjusted);
  std::printf("  density (no adjustment) : %.4f\n", result.accuracy_no_adjust);
  std::printf("  1-NN baseline           : %.4f\n", result.accuracy_nn);
  std::printf("  train %.3e s/example, test %.3e s/example\n",
              result.train_seconds_per_example,
              result.test_seconds_per_example);
  return udm::Status::OK();
}

udm::Result<udm::FaultPolicy> ParsePolicy(const std::string& name) {
  if (name == "strict") return udm::FaultPolicy::kStrict;
  if (name == "repair") return udm::FaultPolicy::kRepair;
  if (name == "quarantine") return udm::FaultPolicy::kQuarantine;
  return udm::Status::InvalidArgument(
      "--policy must be strict, repair, or quarantine (got '" + name + "')");
}

void PrintIngestStats(const udm::IngestStats& s) {
  std::printf(
      "  ingest: ok=%llu repaired=%llu quarantined=%llu rejected=%llu\n"
      "  faults: dim-mismatch=%llu out-of-order=%llu non-finite=%llu "
      "negative-psi=%llu\n",
      static_cast<unsigned long long>(s.records_ok),
      static_cast<unsigned long long>(s.records_repaired),
      static_cast<unsigned long long>(s.records_quarantined),
      static_cast<unsigned long long>(s.records_rejected),
      static_cast<unsigned long long>(s.dimension_mismatches),
      static_cast<unsigned long long>(s.out_of_order_timestamps),
      static_cast<unsigned long long>(s.non_finite_values),
      static_cast<unsigned long long>(s.negative_errors));
  if (s.records_deferred > 0 || s.batch_deadline_deferrals > 0) {
    std::printf("  backpressure: deferred=%llu batches-deferred=%llu\n",
                static_cast<unsigned long long>(s.records_deferred),
                static_cast<unsigned long long>(s.batch_deadline_deferrals));
  }
}

/// Per-operation deadline from a --*-ms flag value (<= 0 = unlimited).
udm::Deadline DeadlineFromMillis(double ms) {
  return ms > 0.0 ? udm::Deadline::AfterSeconds(ms / 1000.0)
                  : udm::Deadline::Infinite();
}

constexpr FlagSpec kStreamFlags[] = {
    {"in", kText, kRequired, "input CSV, one record per row"},
    {"errors", kText, nullptr, "psi table CSV (default: zero errors)"},
    {"clusters", kCount, "140", "micro-cluster budget q"},
    {"policy", kText, "strict", "strict | repair | quarantine"},
    {"fault-rate", kReal, "0", "share of records to corrupt"},
    {"fault-seed", kCount, "7", "fault injector seed"},
    {"checkpoint-dir", kText, nullptr, "checkpoint directory"},
    {"checkpoint-every", kCount, "1000", "records per checkpoint (0 = final)"},
    {"resume", kCount, "0", "nonzero: resume from the newest checkpoint"},
    {"retry", kCount, "3", "checkpoint I/O attempts"},
    {"batch", kCount, nullptr,
     "records per deadline-checked batch (default 500 with --shards > 1, "
     "else 0 = record at a time)"},
    {"deadline-ms", kReal, "0", "per-batch deadline (0 = none)"},
    {"shards", kCount, "1", "hash-partitioned shards (each in shard-<i>)"},
    {"threads", kCount, "0", "shard drain width (0 = serial)"},
    {"merged-clusters", kCount, "0", "merged budget (0 = --clusters)"},
    {"out", kText, nullptr, "write the final summary here"},
};

udm::Status RunStream(const FlagValues& flags) {
  const std::string& policy_name = flags.Text("policy");
  UDM_ASSIGN_OR_RETURN(const udm::FaultPolicy policy,
                       ParsePolicy(policy_name));
  const size_t shards = flags.Size("shards");
  const size_t batch = flags.Has("batch") ? flags.Size("batch")
                       : shards > 1       ? 500
                                          : 0;
  if (shards > 1 && batch == 0) {
    // An empty window would never advance the sharded loop below.
    return udm::Status::InvalidArgument("--batch must be > 0 with --shards");
  }
  UDM_ASSIGN_OR_RETURN(const udm::Dataset data,
                       udm::ReadCsv(flags.Text("in")));
  UDM_ASSIGN_OR_RETURN(
      const udm::ErrorModel errors,
      LoadErrors(flags.Text("errors"), data.NumRows(), data.NumDims()));

  // Materialize the stream: one record per row, timestamps 1..n.
  std::vector<udm::StreamRecord> records;
  records.reserve(data.NumRows());
  for (size_t i = 0; i < data.NumRows(); ++i) {
    udm::StreamRecord record;
    record.values.assign(data.Row(i).begin(), data.Row(i).end());
    record.psi.assign(errors.RowPsi(i).begin(), errors.RowPsi(i).end());
    record.timestamp = i + 1;
    records.push_back(std::move(record));
  }

  const double fault_rate = flags.Real("fault-rate");
  if (fault_rate > 0.0) {
    udm::FaultInjector::Options inject;
    inject.fault_rate = fault_rate;
    inject.seed = flags.Size("fault-seed");
    udm::FaultInjector injector(inject);
    records = injector.Apply(records);
    std::printf("injected %llu faults into %zu records (seed %llu)\n",
                static_cast<unsigned long long>(injector.counts().total()),
                records.size(),
                static_cast<unsigned long long>(inject.seed));
  }

  const std::string& checkpoint_dir = flags.Text("checkpoint-dir");
  const size_t checkpoint_every = flags.Size("checkpoint-every");
  const bool resume = flags.Size("resume") != 0;
  const size_t retry = flags.Size("retry");
  const double deadline_ms = flags.Real("deadline-ms");

  // --shards K > 1 switches to the hash-partitioned front end: K
  // independent summarizers, each with its own checkpoint rotation under
  // <checkpoint-dir>/shard-<i>, merged into one global summary at the end.
  if (shards > 1) {
    udm::ShardedSummarizerOptions options;
    options.num_shards = shards;
    options.shard_options.num_clusters = flags.Size("clusters");
    options.shard_options.policy = policy;
    options.merged_clusters = flags.Size("merged-clusters");
    options.checkpoint_dir = checkpoint_dir;
    options.checkpoint_every = checkpoint_every;
    options.retry.max_attempts = retry;
    options.threads = flags.Size("threads");
    UDM_ASSIGN_OR_RETURN(
        udm::ShardedSummarizer sharded,
        udm::ShardedSummarizer::Create(data.NumDims(), options));

    std::vector<udm::RecordView> views;
    size_t i = 0;
    while (i < records.size()) {
      const size_t end = std::min<size_t>(records.size(), i + batch);
      views.clear();
      for (size_t j = i; j < end; ++j) {
        views.push_back(
            {records[j].values, records[j].psi, records[j].timestamp});
      }
      udm::ExecContext ctx(DeadlineFromMillis(deadline_ms));
      const udm::Result<udm::ShardedIngestResult> result =
          sharded.IngestBatch(views, ctx);
      if (!result.ok()) {
        return result.status().WithContext("sharded batch at record " +
                                           std::to_string(i));
      }
      i += result->consumed;
      if (result->consumed == 0) {
        // Backpressure from a full replay log: recover the blocked shard
        // and retry the same window.
        udm::ExecContext recover_ctx;
        UDM_RETURN_IF_ERROR(sharded.RecoverShards(recover_ctx)
                                .WithContext("recovery at record " +
                                             std::to_string(i)));
      }
    }
    if (sharded.num_degraded() > 0) {
      udm::ExecContext recover_ctx;
      UDM_RETURN_IF_ERROR(
          sharded.RecoverShards(recover_ctx).WithContext("final recovery"));
    }
    if (!checkpoint_dir.empty()) {
      UDM_RETURN_IF_ERROR(sharded.CheckpointAll());
    }

    std::printf("streamed %zu records across %zu shards (policy %s)\n",
                records.size(), shards, policy_name.c_str());
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      const udm::ShardStatus status = sharded.shard_status(s);
      std::printf(
          "  shard %zu: %s routed=%llu absorbed=%llu checkpointed=%llu "
          "crashes=%llu recoveries=%llu\n",
          s, udm::ShardHealthToString(status.health),
          static_cast<unsigned long long>(status.records_routed),
          static_cast<unsigned long long>(status.records_absorbed),
          static_cast<unsigned long long>(status.records_checkpointed),
          static_cast<unsigned long long>(status.crashes),
          static_cast<unsigned long long>(status.recoveries));
    }
    PrintIngestStats(sharded.AggregateIngestStats());

    udm::ExecContext merge_ctx;
    const udm::MergeResult merged = sharded.MergedSummary(merge_ctx);
    if (!merged.complete()) {
      return udm::Status::Internal(
          "merge skipped " + std::to_string(merged.skipped_shards.size()) +
          " shards after recovery");
    }
    std::printf("merged %zu shard summaries into %zu micro-clusters\n",
                merged.shards_merged, merged.clusters.size());
    const std::string& out = flags.Text("out");
    if (!out.empty()) {
      UDM_RETURN_IF_ERROR(udm::SaveMicroClusters(merged.clusters, out));
      std::printf("merged summary -> %s\n", out.c_str());
    }
    return udm::Status::OK();
  }

  udm::StreamSummarizer::Options options;
  options.num_clusters = flags.Size("clusters");
  options.policy = policy;

  udm::Result<udm::StreamSummarizer> summarizer_holder =
      udm::StreamSummarizer::Create(data.NumDims(), options);
  UDM_RETURN_IF_ERROR(summarizer_holder.status());
  uint64_t cursor = 0;

  udm::Result<udm::CheckpointManager> manager_holder =
      udm::Status::Unimplemented("no checkpointing");
  if (!checkpoint_dir.empty()) {
    udm::CheckpointOptions ckpt;
    ckpt.directory = checkpoint_dir;
    ckpt.retry.max_attempts = retry;
    manager_holder = udm::CheckpointManager::Create(ckpt);
    UDM_RETURN_IF_ERROR(manager_holder.status());
    if (resume) {
      UDM_ASSIGN_OR_RETURN(udm::CheckpointManager::Restored restored,
                           manager_holder->RestoreLatest());
      std::printf("resuming from %s at record %llu (%zu newer checkpoint%s "
                  "rejected)\n",
                  restored.path.c_str(),
                  static_cast<unsigned long long>(restored.cursor),
                  restored.fallbacks, restored.fallbacks == 1 ? "" : "s");
      summarizer_holder = std::move(restored.summarizer);
      cursor = restored.cursor;
    }
  }
  udm::StreamSummarizer& summarizer = *summarizer_holder;

  if (batch > 0) {
    // Batched ingestion under a per-batch deadline. A batch that runs out
    // of time mid-way defers its tail to the next batch window
    // (backpressure); a batch that makes zero progress within its window
    // surfaces kDeadlineExceeded after printing the partial counters.
    std::vector<udm::RecordView> views;
    uint64_t i = cursor;
    while (i < records.size()) {
      const size_t end = std::min<size_t>(records.size(), i + batch);
      views.clear();
      for (size_t j = i; j < end; ++j) {
        views.push_back(
            {records[j].values, records[j].psi, records[j].timestamp});
      }
      udm::ExecContext ctx(DeadlineFromMillis(deadline_ms));
      const udm::Result<udm::BatchIngestResult> result =
          summarizer.IngestBatch(views, ctx);
      if (!result.ok()) {
        std::printf("stalled at record %llu of %zu\n",
                    static_cast<unsigned long long>(i), records.size());
        PrintIngestStats(summarizer.ingest_stats());
        return result.status().WithContext("batch at record " +
                                           std::to_string(i));
      }
      i += result->consumed;
      if (manager_holder.ok() && checkpoint_every > 0) {
        UDM_RETURN_IF_ERROR(manager_holder->Save(summarizer, i));
      }
    }
  } else {
    for (uint64_t i = cursor; i < records.size(); ++i) {
      const udm::StreamRecord& r = records[i];
      UDM_RETURN_IF_ERROR(
          summarizer.Ingest(r.values, r.psi, r.timestamp)
              .WithContext("record " + std::to_string(i)));
      if (manager_holder.ok() && checkpoint_every > 0 &&
          (i + 1) % checkpoint_every == 0) {
        UDM_RETURN_IF_ERROR(manager_holder->Save(summarizer, i + 1));
      }
    }
  }
  if (manager_holder.ok()) {
    UDM_RETURN_IF_ERROR(manager_holder->Save(summarizer, records.size()));
  }

  std::printf("streamed %zu records into %zu micro-clusters (policy %s)\n",
              records.size(), summarizer.clusters().size(),
              policy_name.c_str());
  PrintIngestStats(summarizer.ingest_stats());

  const std::string& out = flags.Text("out");
  if (!out.empty()) {
    UDM_RETURN_IF_ERROR(udm::SaveMicroClusters(summarizer.clusters(), out));
    std::printf("summary -> %s\n", out.c_str());
  }
  return udm::Status::OK();
}

constexpr FlagSpec kRecoverFlags[] = {
    {"checkpoint-dir", kText, kRequired, "checkpoint directory"},
    {"retry", kCount, "3", "checkpoint read attempts"},
    {"out", kText, nullptr, "write the recovered summary here"},
};

udm::Status RunRecover(const FlagValues& flags) {
  udm::CheckpointOptions ckpt;
  ckpt.directory = flags.Text("checkpoint-dir");
  ckpt.retry.max_attempts = flags.Size("retry");
  UDM_ASSIGN_OR_RETURN(udm::CheckpointManager manager,
                       udm::CheckpointManager::Create(ckpt));
  UDM_ASSIGN_OR_RETURN(udm::CheckpointManager::Restored restored,
                       manager.RestoreLatest());
  std::printf("recovered %s (cursor %llu, %zu newer checkpoint%s rejected)\n",
              restored.path.c_str(),
              static_cast<unsigned long long>(restored.cursor),
              restored.fallbacks, restored.fallbacks == 1 ? "" : "s");
  std::printf("  %llu points in %zu clusters, last timestamp %llu\n",
              static_cast<unsigned long long>(restored.summarizer.num_points()),
              restored.summarizer.clusters().size(),
              static_cast<unsigned long long>(
                  restored.summarizer.last_timestamp()));
  PrintIngestStats(restored.summarizer.ingest_stats());
  const std::string& out = flags.Text("out");
  if (!out.empty()) {
    UDM_RETURN_IF_ERROR(
        udm::SaveMicroClusters(restored.summarizer.clusters(), out));
    std::printf("summary -> %s\n", out.c_str());
  }
  return udm::Status::OK();
}

/// `udm_cli merge` — loads the latest checkpoint of every shard under
/// --checkpoint-dir (written by `stream --shards=K`), merges them into one
/// q-bounded summary, and saves it in the micro-cluster wire format. The
/// output is directly consumable by udm_serve (`mc <name> <file>` manifest
/// lines) and by `udm_cli density`.
constexpr FlagSpec kMergeFlags[] = {
    {"checkpoint-dir", kText, kRequired, "holds the shard-<i> checkpoints"},
    {"shards", kCount, "0", "shards to merge (0 = every shard-<i> found)"},
    {"clusters", kCount, nullptr, "merged budget q (default: the shards' own)"},
    {"retry", kCount, "3", "checkpoint read attempts"},
    {"out", kText, kRequired, "merged summary file"},
};

udm::Status RunMerge(const FlagValues& flags) {
  const std::string& dir = flags.Text("checkpoint-dir");
  const std::string& out = flags.Text("out");
  const size_t shards = flags.Size("shards");
  const size_t retry = flags.Size("retry");

  std::vector<std::vector<udm::MicroCluster>> summaries;
  size_t dims = 0;
  // The shards' own budget and distance: merging with them reproduces the
  // in-process merge of `stream --shards K` from the same checkpoints.
  udm::MicroClusterer::Options options;
  uint64_t total_points = 0;
  for (size_t i = 0; shards == 0 || i < shards; ++i) {
    const std::string shard_dir = dir + "/shard-" + std::to_string(i);
    if (shards == 0 && !std::filesystem::is_directory(shard_dir)) break;
    udm::CheckpointOptions ckpt;
    ckpt.directory = shard_dir;
    ckpt.retry.max_attempts = retry;
    UDM_ASSIGN_OR_RETURN(udm::CheckpointManager manager,
                         udm::CheckpointManager::Create(ckpt));
    udm::Result<udm::CheckpointManager::Restored> restored =
        manager.RestoreLatest();
    UDM_RETURN_IF_ERROR(
        restored.status().WithContext("shard " + std::to_string(i)));
    const udm::StreamSummarizer::Options& shard_options =
        restored->summarizer.options();
    if (dims == 0) {
      dims = restored->summarizer.num_dims();
      options.num_clusters = shard_options.num_clusters;
      options.distance = shard_options.distance;
    } else if (restored->summarizer.num_dims() != dims) {
      return udm::Status::InvalidArgument(
          "shard " + std::to_string(i) + " has " +
          std::to_string(restored->summarizer.num_dims()) +
          " dims, expected " + std::to_string(dims));
    } else if (shard_options.num_clusters != options.num_clusters ||
               shard_options.distance != options.distance) {
      return udm::Status::InvalidArgument(
          "shard " + std::to_string(i) + " was summarized with q=" +
          std::to_string(shard_options.num_clusters) + " and distance " +
          std::to_string(static_cast<int>(shard_options.distance)) +
          ", expected q=" + std::to_string(options.num_clusters) +
          " and distance " +
          std::to_string(static_cast<int>(options.distance)));
    }
    total_points += restored->summarizer.num_points();
    std::printf("shard %zu: %llu points in %zu clusters (cursor %llu%s)\n", i,
                static_cast<unsigned long long>(
                    restored->summarizer.num_points()),
                restored->summarizer.clusters().size(),
                static_cast<unsigned long long>(restored->cursor),
                restored->fallbacks > 0 ? ", fell back past a bad generation"
                                        : "");
    summaries.emplace_back(restored->summarizer.clusters().begin(),
                           restored->summarizer.clusters().end());
  }
  if (summaries.empty()) {
    return udm::Status::NotFound("no shard-<i> checkpoints under '" + dir +
                                 "'");
  }

  // An explicit --clusters overrides the shards' own budget.
  if (flags.Has("clusters")) options.num_clusters = flags.Size("clusters");
  const std::vector<udm::SummaryView> views(summaries.begin(),
                                            summaries.end());
  UDM_ASSIGN_OR_RETURN(
      const std::vector<udm::MicroCluster> merged,
      udm::MergeSummaries(std::span<const udm::SummaryView>(views), dims,
                          options));
  UDM_RETURN_IF_ERROR(udm::SaveMicroClusters(merged, out));
  std::printf(
      "merged %zu shards (%llu points) into %zu micro-clusters -> %s\n",
      summaries.size(), static_cast<unsigned long long>(total_points),
      merged.size(), out.c_str());
  return udm::Status::OK();
}

constexpr FlagSpec kClassifyFlags[] = {
    {"dataset", kText, kRequired, "adult | ionosphere | breast | forest"},
    {"n", kCount, "2000", "rows to generate"},
    {"seed", kCount, "1", "generator seed (perturbation uses +13)"},
    {"f", kReal, "1.0", "error level f"},
    {"test", kCount, "200", "held-out queries (the last rows)"},
    {"clusters", kCount, "60", "micro-cluster budget q per class"},
    {"deadline-ms", kReal, "0", "per-query deadline (0 = none)"},
    {"eval-budget", kCount, "0", "kernel evals per query (0 = none)"},
    {"total-ms", kReal, "0", "sweep budget; partials, then exit 3 (0 = none)"},
};

udm::Status RunClassify(const FlagValues& flags) {
  const uint64_t seed = flags.Size("seed");
  const size_t test = flags.Size("test");
  UDM_ASSIGN_OR_RETURN(const udm::Dataset clean,
                       udm::MakeUciLike(flags.Text("dataset"),
                                        flags.Size("n"), seed));
  if (test == 0 || test >= clean.NumRows()) {
    return udm::Status::InvalidArgument(
        "--test must be in (0, n); got " + std::to_string(test));
  }

  udm::PerturbationOptions perturb;
  perturb.f = flags.Real("f");
  perturb.seed = seed + 13;
  UDM_ASSIGN_OR_RETURN(const udm::UncertainDataset uncertain,
                       udm::Perturb(clean, perturb));

  const size_t train_n = clean.NumRows() - test;
  std::vector<size_t> train_idx(train_n);
  std::iota(train_idx.begin(), train_idx.end(), 0);
  std::vector<size_t> test_idx(test);
  std::iota(test_idx.begin(), test_idx.end(), train_n);
  const udm::Dataset train = uncertain.data.Select(train_idx);
  const udm::ErrorModel train_errors = uncertain.errors.Select(train_idx);
  const udm::Dataset queries = uncertain.data.Select(test_idx);

  udm::DensityBasedClassifier::Options options;
  options.num_clusters = flags.Size("clusters");
  UDM_ASSIGN_OR_RETURN(
      const udm::DensityBasedClassifier classifier,
      udm::DensityBasedClassifier::Train(train, train_errors, options));

  const double deadline_ms = flags.Real("deadline-ms");
  const uint64_t eval_budget = flags.Size("eval-budget");
  const udm::Deadline total_deadline =
      DeadlineFromMillis(flags.Real("total-ms"));

  size_t correct = 0;
  size_t served = 0;
  size_t tiers[3] = {0, 0, 0};    // indexed by Decider: rules, bayes, prior
  size_t truncated[3] = {0, 0, 0};  // indexed by StopCause
  for (size_t i = 0; i < queries.NumRows(); ++i) {
    if (total_deadline.Expired()) break;
    udm::ExecBudget budget;
    budget.max_kernel_evals = eval_budget;
    udm::ExecContext ctx(DeadlineFromMillis(deadline_ms), {}, budget);
    UDM_ASSIGN_OR_RETURN(const udm::DensityBasedClassifier::Explanation e,
                         classifier.Explain(queries.Row(i), ctx));
    ++served;
    if (e.predicted == queries.Label(i)) ++correct;
    ++tiers[e.used_fallback];
    ++truncated[static_cast<size_t>(e.stop_cause)];
  }

  std::printf("classified %zu of %zu queries, accuracy %.4f\n", served,
              queries.NumRows(),
              served > 0 ? static_cast<double>(correct) /
                               static_cast<double>(served)
                         : 0.0);
  std::printf("  tiers: rules=%zu bayes=%zu prior=%zu; truncated "
              "deadline=%zu budget=%zu\n",
              tiers[udm::DensityBasedClassifier::kRules],
              tiers[udm::DensityBasedClassifier::kBayes],
              tiers[udm::DensityBasedClassifier::kPrior],
              truncated[static_cast<size_t>(udm::StopCause::kDeadline)],
              truncated[static_cast<size_t>(udm::StopCause::kBudget)]);
  if (served < queries.NumRows()) {
    return udm::Status::DeadlineExceeded(
        "--total-ms budget exhausted after " + std::to_string(served) +
        " of " + std::to_string(queries.NumRows()) + " queries");
  }
  return udm::Status::OK();
}

/// `udm_cli stats --in report.json` — renders a RunReport (the JSON that
/// --metrics-out writes) as a human-readable summary: header, checks, and
/// the nonzero metrics with histogram quantiles.
constexpr FlagSpec kStatsFlags[] = {
    {"in", kText, kRequired, "RunReport JSON (--metrics-out)"},
};

udm::Status RunStats(const FlagValues& flags) {
  const std::string& in = flags.Text("in");
  std::ifstream file(in, std::ios::binary);
  if (!file) {
    return udm::Status::IoError("cannot open '" + in + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  UDM_ASSIGN_OR_RETURN(const udm::obs::JsonValue root,
                       udm::obs::JsonValue::Parse(buffer.str()));
  if (!root.is_object()) {
    return udm::Status::InvalidArgument("'" + in +
                                        "' is not a JSON object");
  }
  const auto str_field = [&](const char* key) -> std::string {
    const udm::obs::JsonValue* v = root.Find(key);
    return v != nullptr && v->is_string() ? v->string() : "?";
  };
  const auto num_field = [&](const char* key) -> double {
    const udm::obs::JsonValue* v = root.Find(key);
    return v != nullptr && v->is_number() ? v->number() : 0.0;
  };
  std::printf("tool    : %s\n", str_field("tool").c_str());
  std::printf("git     : %s\n", str_field("git").c_str());
  std::printf("wall    : %.3f s   cpu: %.3f s\n", num_field("wall_seconds"),
              num_field("cpu_seconds"));

  if (const udm::obs::JsonValue* checks = root.Find("checks");
      checks != nullptr && checks->is_array() && !checks->items().empty()) {
    std::printf("checks:\n");
    for (const udm::obs::JsonValue& check : checks->items()) {
      if (!check.is_object()) continue;
      const udm::obs::JsonValue* name = check.Find("name");
      const udm::obs::JsonValue* passed = check.Find("passed");
      std::printf("  [%s] %s\n",
                  passed != nullptr && passed->is_bool() && passed->boolean()
                      ? "PASS"
                      : "FAIL",
                  name != nullptr && name->is_string() ? name->string().c_str()
                                                       : "?");
    }
  }

  const udm::obs::JsonValue* metrics = root.Find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    return udm::Status::InvalidArgument("'" + in + "' has no metrics array");
  }

  // Serving summary: when the report came from udm_serve (or a loadgen run
  // against it), roll the admission-control counters and the request
  // latency histogram up into one line each, ahead of the raw dump.
  {
    const auto find_metric =
        [&](const std::string& want) -> const udm::obs::JsonValue* {
      for (const udm::obs::JsonValue& metric : metrics->items()) {
        if (!metric.is_object()) continue;
        const udm::obs::JsonValue* name = metric.Find("name");
        if (name != nullptr && name->is_string() && name->string() == want) {
          return &metric;
        }
      }
      return nullptr;
    };
    const auto metric_value = [&](const char* name,
                                  const char* key) -> double {
      const udm::obs::JsonValue* metric = find_metric(name);
      if (metric == nullptr) return 0.0;
      const udm::obs::JsonValue* v = metric->Find(key);
      return v != nullptr && v->is_number() ? v->number() : 0.0;
    };
    if (find_metric("serve.served_total") != nullptr) {
      std::printf("serving:\n");
      std::printf(
          "  served=%.0f shed=%.0f degraded=%.0f protocol_errors=%.0f "
          "client_aborts=%.0f\n",
          metric_value("serve.served_total", "value"),
          metric_value("serve.shed_total", "value"),
          metric_value("serve.degraded_total", "value"),
          metric_value("serve.protocol_errors", "value"),
          metric_value("serve.client_aborts", "value"));
      if (metric_value("serve.request.seconds", "count") > 0.0) {
        std::printf(
            "  request latency: p50=%.3f ms  p95=%.3f ms  p99=%.3f ms "
            "(n=%.0f)\n",
            metric_value("serve.request.seconds", "p50") * 1000.0,
            metric_value("serve.request.seconds", "p95") * 1000.0,
            metric_value("serve.request.seconds", "p99") * 1000.0,
            metric_value("serve.request.seconds", "count"));
      }
      if (metric_value("serve.queue_wait.seconds", "count") > 0.0) {
        std::printf(
            "  queue wait:      p50=%.3f ms  p95=%.3f ms  p99=%.3f ms\n",
            metric_value("serve.queue_wait.seconds", "p50") * 1000.0,
            metric_value("serve.queue_wait.seconds", "p95") * 1000.0,
            metric_value("serve.queue_wait.seconds", "p99") * 1000.0);
      }
    }
  }

  std::printf("metrics (nonzero):\n");
  for (const udm::obs::JsonValue& metric : metrics->items()) {
    if (!metric.is_object()) continue;
    const udm::obs::JsonValue* name = metric.Find("name");
    const udm::obs::JsonValue* type = metric.Find("type");
    if (name == nullptr || !name->is_string() || type == nullptr ||
        !type->is_string()) {
      continue;
    }
    const std::string& kind = type->string();
    const auto metric_num = [&](const char* key) -> double {
      const udm::obs::JsonValue* v = metric.Find(key);
      return v != nullptr && v->is_number() ? v->number() : 0.0;
    };
    if (kind == "histogram") {
      const double count = metric_num("count");
      if (count <= 0.0) continue;
      std::printf("  %-34s count=%-8.0f p50=%.3e p95=%.3e p99=%.3e\n",
                  name->string().c_str(), count, metric_num("p50"),
                  metric_num("p95"), metric_num("p99"));
    } else {
      const double value = metric_num("value");
      if (value == 0.0) continue;
      std::printf("  %-34s %.10g%s\n", name->string().c_str(), value,
                  kind == "gauge" ? "  (gauge)" : "");
    }
  }
  return udm::Status::OK();
}

constexpr FlagSpec kTopFlags[] = {
    {"socket", kText, kRequired, "udm_serve socket"},
    {"interval-ms", kReal, "1000", "poll interval"},
    {"iterations", kCount, "0", "ticks to render (0 = until killed)"},
    {"window-s", kReal, "60", "trailing stats window"},
};

/// `udm_cli top` — polls a live udm_serve's `stats` op and renders a
/// one-screen dashboard per tick: windowed qps and latency quantiles,
/// admission/shed rates, queue state, and the health rollup.
udm::Status RunTop(const FlagValues& flags) {
  const std::string& socket_path = flags.Text("socket");
  const double interval_ms = flags.Real("interval-ms");
  const size_t iterations = flags.Size("iterations");
  const double window_seconds = flags.Real("window-s");

  const auto num_at = [](const udm::obs::JsonValue* object,
                         const char* key) -> double {
    const udm::obs::JsonValue* v =
        object != nullptr ? object->Find(key) : nullptr;
    return v != nullptr && v->is_number() ? v->number() : 0.0;
  };
  const auto bool_at = [](const udm::obs::JsonValue* object,
                          const char* key) -> bool {
    const udm::obs::JsonValue* v =
        object != nullptr ? object->Find(key) : nullptr;
    return v != nullptr && v->is_bool() && v->boolean();
  };

  udm::Result<udm::serve::ServeClient> client =
      udm::serve::ServeClient::Connect(socket_path);
  for (size_t tick = 0; iterations == 0 || tick < iterations; ++tick) {
    if (tick > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(interval_ms));
    }
    if (!client.ok() || !client.value().connected()) {
      client = udm::serve::ServeClient::Connect(socket_path);
      if (!client.ok()) {
        std::printf("udm_serve @ %s  UNREACHABLE (%s)\n", socket_path.c_str(),
                    client.status().ToString().c_str());
        continue;
      }
    }
    udm::serve::ServeRequest request;
    request.op = udm::serve::ServeOp::kStats;
    request.window_seconds = window_seconds;
    udm::Result<udm::serve::ServeResponse> response =
        client.value().Call(request, interval_ms + 2000.0);
    if (!response.ok()) {
      std::printf("udm_serve @ %s  stats failed (%s)\n", socket_path.c_str(),
                  response.status().ToString().c_str());
      client = udm::Status::IoError("reconnect next tick");
      continue;
    }
    udm::Result<udm::obs::JsonValue> parsed =
        udm::obs::JsonValue::Parse(response.value().stats_json);
    if (!parsed.ok()) {
      std::printf("udm_serve @ %s  bad stats payload (%s)\n",
                  socket_path.c_str(), parsed.status().ToString().c_str());
      continue;
    }
    const udm::obs::JsonValue& stats = parsed.value();
    const udm::obs::JsonValue* window = stats.Find("window");
    const udm::obs::JsonValue* health = stats.Find("health");

    std::printf("udm_serve @ %s  %s  (%.0fs window)\n", socket_path.c_str(),
                bool_at(&stats, "draining") ? "DRAINING" : "up",
                num_at(window, "seconds"));
    std::printf(
        "  qps %7.1f   admit/s %7.1f   shed/s %6.1f   degrade/s %6.1f\n",
        num_at(window, "qps"), num_at(window, "admitted_per_sec"),
        num_at(window, "shed_per_sec"), num_at(window, "degraded_per_sec"));
    std::printf(
        "  latency p50 %8.2fms  p95 %8.2fms  p99 %8.2fms   queue_wait p99 "
        "%8.2fms\n",
        num_at(window, "request_p50_ms"), num_at(window, "request_p95_ms"),
        num_at(window, "request_p99_ms"), num_at(window, "queue_wait_p99_ms"));
    std::printf(
        "  queue %.0f+%.0f in flight   served %.0f  shed %.0f  degraded %.0f "
        " protocol_errors %.0f\n",
        num_at(&stats, "queue_depth"), num_at(&stats, "in_flight"),
        num_at(&stats, "served_ok") + num_at(&stats, "served_partial"),
        num_at(&stats, "shed_overload") + num_at(&stats, "shed_draining"),
        num_at(&stats, "degraded"), num_at(&stats, "protocol_errors"));
    std::printf("  health: %s\n",
                bool_at(health, "healthy") ? "OK" : "UNHEALTHY");
    std::fflush(stdout);
  }
  return udm::Status::OK();
}

/// Exit-code contract: 0 OK; 2 usage/bad input; 3 deadline exceeded (the
/// command printed its partial results before returning); 1 anything else.
int ExitCodeFor(const udm::Status& status) {
  if (status.ok()) return 0;
  switch (status.code()) {
    case udm::StatusCode::kInvalidArgument:
      return 2;
    case udm::StatusCode::kDeadlineExceeded:
      return 3;
    default:
      return 1;
  }
}

struct Command {
  const char* name;
  udm::Status (*run)(const FlagValues&);
  std::span<const FlagSpec> flags;
};

constexpr Command kCommands[] = {
    {"generate", RunGenerate, kGenerateFlags},
    {"perturb", RunPerturb, kPerturbFlags},
    {"summarize", RunSummarize, kSummarizeFlags},
    {"density", RunDensity, kDensityFlags},
    {"experiment", RunExperiment, kExperimentFlags},
    {"stream", RunStream, kStreamFlags},
    {"recover", RunRecover, kRecoverFlags},
    {"merge", RunMerge, kMergeFlags},
    {"classify", RunClassify, kClassifyFlags},
    {"stats", RunStats, kStatsFlags},
    {"top", RunTop, kTopFlags},
};

/// Accepted by every command, after the command's own flags.
constexpr FlagSpec kObservabilityFlags[] = {
    {"metrics-out", kText, nullptr, "write a RunReport JSON"},
    {"trace-out", kText, nullptr, "write a Chrome trace_event JSON"},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const Command* run = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&command](const Command& c) { return command == c.name; });
  if (run == std::end(kCommands)) {
    const bool help = command == "--help";
    std::FILE* out = help ? stdout : stderr;
    if (!help && !command.empty()) {
      std::fprintf(out, "udm_cli: unknown command '%s'\n", command.c_str());
    }
    std::fprintf(out, "usage: udm_cli <command> [--flag value ...]\n"
                      "commands:");
    for (const Command& c : kCommands) std::fprintf(out, " %s", c.name);
    std::fprintf(out, "\n'udm_cli <command> --help' lists its flags\n");
    return help ? 0 : 2;
  }
  std::vector<FlagSpec> specs(run->flags.begin(), run->flags.end());
  specs.insert(specs.end(), std::begin(kObservabilityFlags),
               std::end(kObservabilityFlags));
  const std::string tool = "udm_cli " + command;
  const FlagValues flags = udm::ParseFlagsOrExit(tool, specs, argc, argv, 2);
  const std::string& metrics_out = flags.Text("metrics-out");
  const std::string& trace_out = flags.Text("trace-out");
  std::unique_ptr<udm::obs::RunReport> report;
  if (!metrics_out.empty()) {
    report = std::make_unique<udm::obs::RunReport>(tool);
    report->SetConfig(flags);
  }
  if (!trace_out.empty()) udm::obs::EnableTracing();

  udm::Status status;
  {
    const std::string span_name = "cli." + command;
    UDM_TRACE_SPAN(span_name.c_str());
    status = run->run(flags);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  }
  if (!trace_out.empty()) {
    udm::obs::DisableTracing();
    const udm::Status written = udm::obs::WriteTrace(trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    } else {
      std::printf("trace written to %s (%zu spans)\n", trace_out.c_str(),
                  udm::obs::TraceEventCount());
    }
  }
  if (report != nullptr) {
    report->AddCheck("command succeeded", status.ok(),
                     status.ok() ? "" : status.ToString());
    const udm::Status written = report->Write(metrics_out);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    } else {
      std::printf("run report written to %s\n", metrics_out.c_str());
    }
  }
  return ExitCodeFor(status);
}
