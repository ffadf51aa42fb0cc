#include "stream/sharded_summarizer.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace udm {

namespace {

/// Shard lifecycle counters, process-wide. Resolved once; updates are
/// relaxed atomic adds (safe from a parallel drain).
struct ShardMetrics {
  obs::Counter& records_routed;
  obs::Counter& crashes;
  obs::Counter& recoveries;
  obs::Counter& checkpoints;
  obs::Counter& merges_skipped;
  obs::Gauge& replay_remaining;
  obs::Gauge& degraded;
  obs::Histogram& merge_seconds;

  static ShardMetrics& Get() {
    static ShardMetrics* metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return new ShardMetrics{
          registry.GetCounter("shard.records_routed"),
          registry.GetCounter("shard.crashes"),
          registry.GetCounter("shard.recoveries"),
          registry.GetCounter("shard.checkpoints"),
          registry.GetCounter("shard.merges_skipped"),
          registry.GetGauge("shard.replay_remaining"),
          registry.GetGauge("shard.degraded"),
          registry.GetHistogram("shard.merge.seconds"),
      };
    }();
    return *metrics;
  }
};

StopCause StopCauseFromStatus(const Status& boundary) {
  return boundary.code() == StatusCode::kDeadlineExceeded ? StopCause::kDeadline
                                                          : StopCause::kBudget;
}

/// kDeadline outranks kBudget outranks kCompleted when several shards stop
/// for different reasons in one call.
StopCause WorseStopCause(StopCause a, StopCause b) {
  if (a == StopCause::kDeadline || b == StopCause::kDeadline) {
    return StopCause::kDeadline;
  }
  if (a == StopCause::kBudget || b == StopCause::kBudget) {
    return StopCause::kBudget;
  }
  return StopCause::kCompleted;
}

/// Opens shard `index`'s checkpoint rotation into `slot`.
Status OpenShardCheckpoints(const ShardedSummarizerOptions& options,
                            size_t index,
                            std::optional<CheckpointManager>& slot) {
  CheckpointOptions ck;
  ck.directory = options.checkpoint_dir + "/shard-" + std::to_string(index);
  ck.retry = options.retry;
  ck.io_faults = options.io_faults;
  auto manager = CheckpointManager::Create(ck);
  if (!manager.ok()) {
    return manager.status().WithContext("ShardedSummarizer shard " +
                                        std::to_string(index) + " checkpoints");
  }
  slot.emplace(std::move(manager).value());
  return Status::OK();
}

}  // namespace

const char* ShardHealthToString(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kRecovering:
      return "recovering";
  }
  return "unknown";
}

Result<ShardedSummarizer> ShardedSummarizer::Create(
    size_t num_dims, const ShardedSummarizerOptions& options) {
  if (num_dims == 0) {
    return Status::InvalidArgument("ShardedSummarizer: num_dims == 0");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("ShardedSummarizer: num_shards == 0");
  }
  if (options.shard_options.num_clusters == 0) {
    return Status::InvalidArgument(
        "ShardedSummarizer: shard_options.num_clusters == 0");
  }

  ShardedSummarizer sharded(num_dims, options);
  sharded.shards_.resize(options.num_shards);
  for (size_t i = 0; i < options.num_shards; ++i) {
    Shard& shard = sharded.shards_[i];
    auto summarizer = StreamSummarizer::Create(num_dims, options.shard_options);
    if (!summarizer.ok()) {
      return summarizer.status().WithContext("ShardedSummarizer shard " +
                                             std::to_string(i));
    }
    shard.summarizer.emplace(std::move(summarizer).value());
    if (!options.checkpoint_dir.empty()) {
      Status opened = OpenShardCheckpoints(options, i, shard.checkpoints);
      if (!opened.ok()) return opened;
    }
  }
  return sharded;
}

size_t ShardedSummarizer::ShardFor(const RecordView& record) const {
  // FNV-1a over the value bit patterns and the timestamp. Bit patterns, not
  // rounded values: routing must be a pure function of the record so a
  // replayed stream lands on the same shards.
  constexpr uint64_t kRoutingSeed = 0x9E3779B97F4A7C15ULL;
  uint64_t h = 14695981039346656037ULL ^ kRoutingSeed;
  const auto mix = [&h](uint64_t bits) {
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (double v : record.values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  mix(record.timestamp);
  return static_cast<size_t>(h % shards_.size());
}

bool ShardedSummarizer::CrashPointFired(ShardCrashSite site) {
  return options_.io_faults != nullptr &&
         options_.io_faults->ConsumeCrashAt(static_cast<int>(site));
}

void ShardedSummarizer::Quarantine(Shard& shard, Status cause) {
  // The in-memory summarizer dies with the "process"; everything since the
  // last durable checkpoint exists only in the replay log now.
  shard.summarizer.reset();
  shard.absorbed = shard.checkpoints ? shard.checkpointed : shard.log_base;
  shard.health = ShardHealth::kDegraded;
  shard.last_error = std::move(cause);
  ++shard.crashes;
  ShardMetrics::Get().crashes.Increment();
}

Result<BatchIngestResult> ShardedSummarizer::DrainShard(Shard& shard,
                                                        ExecContext& ctx) {
  BatchIngestResult out;
  if (!shard.summarizer || shard.absorbed == shard.routed) return out;

  const size_t offset = static_cast<size_t>(shard.absorbed - shard.log_base);
  const size_t backlog = static_cast<size_t>(shard.routed - shard.absorbed);
  std::vector<RecordView> views;
  views.reserve(backlog);
  for (size_t i = 0; i < backlog; ++i) {
    const StreamRecord& r = shard.log[offset + i];
    views.push_back(RecordView{r.values, r.psi, r.timestamp});
  }

  // The summarizer's seen-counter tells us how far the cursor moved even
  // when IngestBatch errors out mid-batch (a cancellation after partial
  // progress, or a kStrict rejection): every consumed record is validated
  // exactly once, and a rejected record is counted but not consumed.
  const uint64_t seen_before = shard.summarizer->ingest_stats().records_seen();
  auto result = shard.summarizer->IngestBatch(views, ctx);
  const uint64_t seen_delta =
      shard.summarizer->ingest_stats().records_seen() - seen_before;
  if (!result.ok()) {
    const uint64_t rejected =
        result.status().code() == StatusCode::kInvalidArgument ? 1 : 0;
    shard.absorbed += seen_delta - std::min<uint64_t>(rejected, seen_delta);
    return result.status();
  }
  shard.absorbed += result->consumed;
  return result;
}

Status ShardedSummarizer::MaybeCheckpoint(Shard& shard, bool force) {
  if (!shard.checkpoints || !shard.summarizer) return Status::OK();
  if (!force && (options_.checkpoint_every == 0 ||
                 shard.absorbed - shard.checkpointed <
                     options_.checkpoint_every)) {
    return Status::OK();
  }
  if (CrashPointFired(ShardCrashSite::kBeforeCheckpoint)) {
    Status cause = Status::Internal("injected crash: before checkpoint");
    Quarantine(shard, cause);
    return cause;
  }
  Status saved = shard.checkpoints->Save(*shard.summarizer, shard.absorbed);
  if (!saved.ok()) {
    // A save that failed past its retries (or committed a torn generation)
    // leaves durability behind the promise checkpoint_every makes;
    // quarantine and let recovery re-establish a known-good state.
    Status cause = saved.WithContext("shard checkpoint save");
    Quarantine(shard, cause);
    return cause;
  }
  shard.checkpointed = shard.absorbed;
  ShardMetrics::Get().checkpoints.Increment();
  while (shard.log_base < shard.checkpointed && !shard.log.empty()) {
    shard.log.pop_front();
    ++shard.log_base;
  }
  if (CrashPointFired(ShardCrashSite::kAfterCheckpoint)) {
    Quarantine(shard, Status::Internal("injected crash: after checkpoint"));
  }
  return Status::OK();
}

Result<ShardedIngestResult> ShardedSummarizer::IngestBatch(
    std::span<const RecordView> records, ExecContext& ctx) {
  UDM_RETURN_IF_ERROR(ctx.Check());
  obs::TraceIdScope trace_scope(ctx.trace_id());
  UDM_TRACE_SPAN("shard.ingest_batch");
  ShardMetrics& metrics = ShardMetrics::Get();

  ShardedIngestResult out;
  // Route a prefix into the shard logs. Copies are the price of the replay
  // guarantee: views die with this call, the log must survive a crash.
  for (const RecordView& r : records) {
    Shard& shard = shards_[ShardFor(r)];
    if (shard.log.size() >= options_.max_replay_buffer) {
      out.stop_cause = StopCause::kBudget;
      break;
    }
    shard.log.push_back(StreamRecord{
        std::vector<double>(r.values.begin(), r.values.end()),
        std::vector<double>(r.psi.begin(), r.psi.end()), r.timestamp});
    ++shard.routed;
    ++out.consumed;
  }
  metrics.records_routed.Increment(out.consumed);

  // Drain every healthy shard's backlog. Shard state is disjoint, so the
  // drains are independent; the shared ctx keeps one deadline over all.
  std::vector<StopCause> causes(shards_.size(), StopCause::kCompleted);
  const auto process = [&](size_t begin, size_t end, size_t) -> Status {
    // Pool workers re-bind to the batch's request so per-shard drain spans
    // stitch to the same trace id as shard.ingest_batch.
    obs::TraceIdScope drain_scope(ctx.trace_id());
    UDM_TRACE_SPAN("shard.drain");
    for (size_t i = begin; i < end; ++i) {
      Shard& shard = shards_[i];
      if (shard.health != ShardHealth::kHealthy) continue;
      if (CrashPointFired(ShardCrashSite::kBeforeIngest)) {
        Quarantine(shard, Status::Internal("injected crash: before ingest"));
        continue;
      }
      auto drained = DrainShard(shard, ctx);
      if (!drained.ok()) {
        return drained.status().WithContext("shard " + std::to_string(i));
      }
      if (CrashPointFired(ShardCrashSite::kAfterIngest)) {
        Quarantine(shard, Status::Internal("injected crash: after ingest"));
        continue;
      }
      causes[i] = drained->stop_cause;
      // Quarantines on failure; the batch itself still succeeds — the
      // damage is shard-local and reported via shards_degraded.
      (void)MaybeCheckpoint(shard, /*force=*/false);
    }
    return Status::OK();
  };

  const bool serial = options_.threads <= 1 || options_.io_faults != nullptr;
  if (serial) {
    Status st = process(0, shards_.size(), 0);
    if (!st.ok()) {
      PublishGauges();
      return st;
    }
  } else {
    ParallelForOptions popts;
    popts.threads = options_.threads;
    popts.chunk_size = 1;
    ParallelForResult result = ParallelFor(shards_.size(), popts, process);
    if (!result.ok()) {
      PublishGauges();
      return result.status;
    }
  }

  for (StopCause cause : causes) {
    out.stop_cause = WorseStopCause(out.stop_cause, cause);
  }
  out.shards_degraded = num_degraded();
  PublishGauges();
  return out;
}

Status ShardedSummarizer::RecoverShards(ExecContext& ctx) {
  UDM_TRACE_SPAN("shard.recover");
  ShardMetrics& metrics = ShardMetrics::Get();
  Status first_error;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = shards_[i];
    if (shard.health == ShardHealth::kHealthy) continue;
    const auto record_error = [&](const Status& st) {
      shard.last_error = st;
      if (first_error.ok()) first_error = st;
    };

    shard.health = ShardHealth::kRecovering;
    if (!shard.summarizer) {
      if (shard.checkpoints) {
        auto restored = shard.checkpoints->RestoreLatest();
        if (restored.ok()) {
          if (restored->cursor < shard.log_base ||
              restored->cursor > shard.routed) {
            shard.health = ShardHealth::kDegraded;
            record_error(Status::Internal(
                "shard " + std::to_string(i) + ": checkpoint cursor " +
                std::to_string(restored->cursor) +
                " outside replay log window [" +
                std::to_string(shard.log_base) + ", " +
                std::to_string(shard.routed) + "]"));
            continue;
          }
          shard.absorbed = restored->cursor;
          shard.checkpointed = restored->cursor;
          shard.summarizer.emplace(std::move(restored->summarizer));
        } else if (restored.status().code() == StatusCode::kNotFound) {
          // Crashed before the first save ever landed: the log still holds
          // the shard's whole history (trims only follow saves).
          auto fresh = StreamSummarizer::Create(num_dims_,
                                                options_.shard_options);
          if (!fresh.ok()) {
            shard.health = ShardHealth::kDegraded;
            record_error(fresh.status());
            continue;
          }
          shard.absorbed = shard.log_base;
          shard.checkpointed = shard.log_base;
          shard.summarizer.emplace(std::move(fresh).value());
        } else {
          shard.health = ShardHealth::kDegraded;
          record_error(restored.status().WithContext(
              "shard " + std::to_string(i) + " restore"));
          continue;
        }
      } else {
        // No durable store: recovery is a full replay of the (untrimmed)
        // log through a fresh summarizer.
        auto fresh =
            StreamSummarizer::Create(num_dims_, options_.shard_options);
        if (!fresh.ok()) {
          shard.health = ShardHealth::kDegraded;
          record_error(fresh.status());
          continue;
        }
        shard.absorbed = shard.log_base;
        shard.summarizer.emplace(std::move(fresh).value());
      }
    }

    auto drained = DrainShard(shard, ctx);
    if (!drained.ok()) {
      // Cursor stayed consistent (DrainShard syncs it from the seen
      // counter), so the shard keeps its progress and stays kRecovering.
      record_error(drained.status().WithContext("shard " + std::to_string(i) +
                                                " replay"));
      continue;
    }
    if (shard.absorbed == shard.routed) {
      shard.health = ShardHealth::kHealthy;
      ++shard.recoveries;
      metrics.recoveries.Increment();
    }
    // else: deadline mid-replay — stays kRecovering with progress kept.
  }
  PublishGauges();
  return first_error;
}

Status ShardedSummarizer::CheckpointAll() {
  // Each shard owns its rotation directory, so the saves are independent:
  // they format and fsync concurrently, one shard per chunk, exactly as
  // the drain already calls MaybeCheckpoint. Every save still runs, and the
  // lowest-index failure is reported, as the serial loop would.
  std::vector<Status> saved(shards_.size());
  const std::string trace_id = obs::CurrentTraceId();
  const auto process = [&](size_t begin, size_t end, size_t) -> Status {
    // Pool workers re-bind to the caller's request, as shard.drain does.
    obs::TraceIdScope save_scope(trace_id);
    for (size_t i = begin; i < end; ++i) {
      if (shards_[i].health != ShardHealth::kHealthy) continue;
      saved[i] = MaybeCheckpoint(shards_[i], /*force=*/true);
    }
    return Status::OK();
  };
  // The drain's rule: the fault injector's counters are not thread-safe.
  if (options_.io_faults != nullptr) {
    (void)process(0, shards_.size(), 0);
  } else {
    ParallelForOptions popts;
    popts.threads = shards_.size();
    popts.chunk_size = 1;
    (void)ParallelFor(shards_.size(), popts, process);
  }
  PublishGauges();
  for (Status& status : saved) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

MergeResult ShardedSummarizer::MergedSummary(ExecContext& ctx) const {
  UDM_TRACE_SPAN("shard.merge");
  Stopwatch watch;
  MergeResult out;

  std::vector<SummaryView> views;
  views.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Status boundary = ctx.Check();
    if (!boundary.ok()) {
      // Deadline mid-merge: flag every not-yet-visited shard instead of
      // blocking on it.
      for (size_t j = i; j < shards_.size(); ++j) {
        out.skipped_shards.push_back(j);
      }
      out.stop_cause = StopCauseFromStatus(boundary);
      break;
    }
    const Shard& shard = shards_[i];
    if (shard.health != ShardHealth::kHealthy || !shard.summarizer) {
      out.skipped_shards.push_back(i);
      continue;
    }
    views.push_back(shard.summarizer->clusters());
  }

  MicroClusterer::Options merge_options;
  merge_options.num_clusters = options_.merged_clusters != 0
                                   ? options_.merged_clusters
                                   : options_.shard_options.num_clusters;
  merge_options.distance = options_.shard_options.distance;
  auto merged = MergeSummaries(std::span<const SummaryView>(views), num_dims_,
                               merge_options);
  // Inputs are validated shard summaries over num_dims_, so the only
  // failure modes (zero dims/budget, dim mismatch) cannot occur.
  if (merged.ok()) {
    out.clusters = std::move(merged).value();
    out.shards_merged = views.size();
  }

  ShardMetrics& metrics = ShardMetrics::Get();
  metrics.merge_seconds.Record(watch.ElapsedSeconds());
  metrics.merges_skipped.Increment(out.skipped_shards.size());
  return out;
}

Result<McDensityModel> ShardedSummarizer::MergedSnapshot(
    ExecContext& ctx, const DensityEvalOptions& density) const {
  MergeResult merged = MergedSummary(ctx);
  if (merged.clusters.empty()) {
    return Status::FailedPrecondition(
        "MergedSnapshot: no healthy shard summaries to merge (" +
        std::to_string(merged.skipped_shards.size()) + " shards skipped)");
  }
  return McDensityModel::Build(merged.clusters, density);
}

void ShardedSummarizer::KillShard(size_t i) {
  if (i >= shards_.size()) return;
  Quarantine(shards_[i], Status::Internal("shard killed"));
  PublishGauges();
}

ShardStatus ShardedSummarizer::shard_status(size_t i) const {
  ShardStatus status;
  if (i >= shards_.size()) return status;
  const Shard& shard = shards_[i];
  status.health = shard.health;
  status.records_routed = shard.routed;
  status.records_absorbed = shard.absorbed;
  status.records_checkpointed = shard.checkpointed;
  status.replay_remaining = shard.routed - shard.absorbed;
  status.crashes = shard.crashes;
  status.recoveries = shard.recoveries;
  status.last_error = shard.last_error;
  return status;
}

const StreamSummarizer* ShardedSummarizer::shard_summarizer(size_t i) const {
  if (i >= shards_.size() || !shards_[i].summarizer) return nullptr;
  return &*shards_[i].summarizer;
}

size_t ShardedSummarizer::num_degraded() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    if (shard.health != ShardHealth::kHealthy) ++n;
  }
  return n;
}

uint64_t ShardedSummarizer::total_replay_remaining() const {
  uint64_t n = 0;
  for (const Shard& shard : shards_) n += shard.routed - shard.absorbed;
  return n;
}

uint64_t ShardedSummarizer::records_routed() const {
  uint64_t n = 0;
  for (const Shard& shard : shards_) n += shard.routed;
  return n;
}

IngestStats ShardedSummarizer::AggregateIngestStats() const {
  IngestStats total;
  for (const Shard& shard : shards_) {
    if (!shard.summarizer) continue;
    const IngestStats& s = shard.summarizer->ingest_stats();
    total.records_ok += s.records_ok;
    total.records_repaired += s.records_repaired;
    total.records_quarantined += s.records_quarantined;
    total.records_rejected += s.records_rejected;
    total.dimension_mismatches += s.dimension_mismatches;
    total.out_of_order_timestamps += s.out_of_order_timestamps;
    total.non_finite_values += s.non_finite_values;
    total.negative_errors += s.negative_errors;
    total.records_deferred += s.records_deferred;
    total.batch_deadline_deferrals += s.batch_deadline_deferrals;
    total.records_replayed += s.records_replayed;
  }
  return total;
}

void ShardedSummarizer::PublishGauges() const {
  ShardMetrics& metrics = ShardMetrics::Get();
  metrics.replay_remaining.Set(static_cast<double>(total_replay_remaining()));
  metrics.degraded.Set(static_cast<double>(num_degraded()));
}

}  // namespace udm
