#ifndef UDM_STREAM_SHARDED_SUMMARIZER_H_
#define UDM_STREAM_SHARDED_SUMMARIZER_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "microcluster/merge.h"
#include "microcluster/mc_density.h"
#include "robustness/checkpoint.h"
#include "robustness/fault_injector.h"
#include "robustness/retry.h"
#include "stream/stream_summarizer.h"

namespace udm {

/// Scale-out stream summarization: hash-partitioned ingestion across K
/// independent StreamSummarizer shards with per-shard crash recovery.
///
/// Definition 1's CFT tuples are additive (Lemma 1), so shard-local
/// summaries merge into a global q-bounded model without changing the
/// paper's semantics — the scale-out counterpart of the parallel
/// evaluation engine. The robustness contract is the point of this class:
/// every shard owns its own checkpoint rotation, fault policy, and replay
/// log, so a single shard hitting an injected I/O fault or crash point is
/// quarantined and recovered from its own checkpoint — replaying only its
/// deferred records — while the other K−1 shards keep ingesting.
///
/// Health state machine, per shard:
///
///   kHealthy ──(crash point / checkpoint I/O failure / log overflow)──►
///   kDegraded ──(RecoverShards: restore begins)──► kRecovering
///   kRecovering ──(restore + full replay done)──► kHealthy
///   kRecovering ──(restore failed)──► kDegraded
///   kRecovering ──(deadline mid-replay)──► kRecovering  (progress kept)
///
/// Degraded and recovering shards never stall the pipeline: routed records
/// accumulate in their replay logs (bounded by `max_replay_buffer`), and
/// the merge operator skips them with an explicit flag instead of
/// blocking (`MergeResult::skipped_shards`).

/// Where a shard currently stands in the recovery lifecycle.
enum class ShardHealth {
  kHealthy = 0,
  /// Quarantined after a crash/fault; in-memory state is gone. Routed
  /// records keep accumulating in the replay log.
  kDegraded,
  /// Restore succeeded; replay of the log tail is in progress.
  kRecovering,
};

/// Returns "healthy", "degraded", or "recovering".
const char* ShardHealthToString(ShardHealth health);

/// Crash points honored by ShardedSummarizer (via
/// FaultInjector::ArmCrashAt/ConsumeCrashAt). Each site kills the shard's
/// in-memory state at a different place relative to ingest/checkpoint, so
/// a matrix test can prove recovery from every interleaving.
enum class ShardCrashSite : int {
  /// Before any of the shard's backlog is ingested this round.
  kBeforeIngest = 1,
  /// After the backlog was absorbed, before any checkpoint — the absorbed
  /// records must come back from the replay log.
  kAfterIngest = 2,
  /// After the checkpoint decision, before the save wrote anything.
  kBeforeCheckpoint = 3,
  /// After a successful save — recovery restores the brand-new checkpoint
  /// and replays nothing.
  kAfterCheckpoint = 4,
};

struct ShardedSummarizerOptions {
  /// Number of independent shards K (>= 1).
  size_t num_shards = 4;
  /// Per-shard summarizer configuration (cluster budget q, fault policy,
  /// monotonic-time enforcement). Each shard sees an order-preserving
  /// subsequence of the stream, so monotonic timestamps survive routing.
  StreamSummarizer::Options shard_options;
  /// Cluster budget of the merged global model (0 = shard_options.
  /// num_clusters, i.e. the same q as a monolithic summarizer).
  size_t merged_clusters = 0;
  /// Root directory for per-shard checkpoint rotations (`<dir>/shard-<i>`).
  /// Empty disables checkpointing: crashes then recover by replaying the
  /// full log from the beginning (which is never trimmed in that mode).
  std::string checkpoint_dir;
  /// Records per shard between automatic checkpoint saves (0 = only
  /// explicit CheckpointAll calls).
  size_t checkpoint_every = 1000;
  /// Hard cap on any one shard's replay log (records routed but not yet
  /// covered by a durable checkpoint). When a shard's log is full —
  /// typically one stuck in kDegraded while traffic keeps arriving —
  /// IngestBatch stops routing at the first record bound for it
  /// (backpressure, stop_cause = kBudget) until recovery or a checkpoint
  /// trims the log.
  size_t max_replay_buffer = 1 << 20;
  /// Retry schedule for per-shard checkpoint I/O.
  RetryPolicy retry;
  /// Test seam shared by every shard: transient I/O faults, torn writes,
  /// short reads (checkpoint paths) and ShardCrashSite crash points. Not
  /// owned; must outlive the summarizer.
  FaultInjector* io_faults = nullptr;
  /// Worker width for the per-shard drain in IngestBatch, and only the
  /// drain (0/1 = serial; N > 1 drains up to N shards concurrently on the
  /// shared ThreadPool). CheckpointAll always saves every shard
  /// concurrently. Routing and merge stay deterministic at any width.
  /// Ignored (forced serial) while `io_faults` is set, as is CheckpointAll's
  /// concurrency: the injector's arm/consume counters are not thread-safe,
  /// and fault-injection tests need deterministic fault placement anyway.
  size_t threads = 0;
};

/// Introspection snapshot of one shard.
struct ShardStatus {
  ShardHealth health = ShardHealth::kHealthy;
  /// Records routed to this shard since creation.
  uint64_t records_routed = 0;
  /// Records absorbed by the live summarizer (the shard-local cursor).
  uint64_t records_absorbed = 0;
  /// Cursor covered by the last durable checkpoint.
  uint64_t records_checkpointed = 0;
  /// Routed records not yet absorbed — the replay backlog.
  uint64_t replay_remaining = 0;
  /// Quarantine events (crash points fired, checkpoint I/O failures past
  /// retries, log overflows).
  uint64_t crashes = 0;
  /// Completed degraded → recovering → healthy transitions.
  uint64_t recoveries = 0;
  /// The failure that caused the most recent quarantine (OK if none).
  Status last_error;
};

/// Outcome of one sharded IngestBatch: how many leading records were
/// routed and why the batch stopped early (if it did).
struct ShardedIngestResult {
  size_t consumed = 0;
  StopCause stop_cause = StopCause::kCompleted;
  /// Shards currently not healthy after this call.
  size_t shards_degraded = 0;
};

/// Outcome of a merge: the global summary plus which shards it covers.
/// `skipped_shards` lists shards excluded because they were degraded,
/// recovering, or cut off by the deadline — the merge degrades
/// (skip-with-flag) instead of stalling on a stuck shard.
struct MergeResult {
  std::vector<MicroCluster> clusters;
  size_t shards_merged = 0;
  std::vector<size_t> skipped_shards;
  StopCause stop_cause = StopCause::kCompleted;

  bool complete() const { return skipped_shards.empty(); }
};

class ShardedSummarizer {
 public:
  static Result<ShardedSummarizer> Create(
      size_t num_dims, const ShardedSummarizerOptions& options);

  /// Routes a prefix of `records` to their shards and drains every healthy
  /// shard's backlog under the context's deadline/budget. Stops routing at
  /// the first record whose target shard's replay log is full
  /// (stop_cause = kBudget); a deadline/budget hit mid-drain leaves the
  /// tail buffered in the shard logs (stop_cause = kDeadline/kBudget) to
  /// be drained by the next call. A cancellation — or any context
  /// violation before the first record is routed — returns an error; a
  /// kStrict validation rejection propagates as-is with shard context
  /// (use kRepair/kQuarantine for hands-off pipelines). One shard's crash
  /// or checkpoint failure quarantines that shard only; the call still
  /// succeeds and `shards_degraded` reports the damage.
  Result<ShardedIngestResult> IngestBatch(std::span<const RecordView> records,
                                          ExecContext& ctx);

  /// Restores every degraded shard from its own checkpoint rotation and
  /// replays its deferred records, under the context's deadline. Healthy
  /// shards are untouched. A deadline hit mid-replay leaves the shard
  /// kRecovering with its progress kept; call again to continue. Returns
  /// the first restore error encountered (other shards still get their
  /// recovery attempt).
  Status RecoverShards(ExecContext& ctx);

  /// Forces a checkpoint save on every healthy shard (also trims their
  /// replay logs). The saves run concurrently, one shard per worker, except
  /// while `io_faults` is set; the files are byte-identical either way.
  /// Returns the lowest-index shard's failure; the failing shard is
  /// quarantined exactly as a periodic-save failure would.
  Status CheckpointAll();

  /// Merges the live shard summaries into one global q-bounded summary
  /// under the monolithic maintenance rules (see microcluster/merge.h).
  /// Unhealthy shards — and, past the deadline, not-yet-visited shards —
  /// are skipped with their indices flagged in the result rather than
  /// stalling the merge.
  MergeResult MergedSummary(ExecContext& ctx) const;

  /// Convenience: MergedSummary + McDensityModel::Build. Fails if every
  /// shard was skipped or the merged summary is empty.
  Result<McDensityModel> MergedSnapshot(
      ExecContext& ctx, const DensityEvalOptions& density = {}) const;

  /// Stable routing: which shard `record` belongs to (FNV-1a over the
  /// value bit patterns and the timestamp, from a fixed seed).
  size_t ShardFor(const RecordView& record) const;

  /// Simulates the death of shard `i`'s process: in-memory summarizer
  /// state is discarded and the shard is quarantined. Everything after
  /// its last durable checkpoint is recovered via the replay log.
  void KillShard(size_t i);

  size_t num_shards() const { return shards_.size(); }
  size_t num_dims() const { return num_dims_; }
  const ShardedSummarizerOptions& options() const { return options_; }

  /// Snapshot of shard `i`'s lifecycle counters.
  ShardStatus shard_status(size_t i) const;

  /// Live summarizer of shard `i` (nullptr while crashed/degraded).
  const StreamSummarizer* shard_summarizer(size_t i) const;

  /// Shards currently not healthy.
  size_t num_degraded() const;

  /// Total replay backlog across shards (the `shard.replay_remaining`
  /// gauge mirrors this).
  uint64_t total_replay_remaining() const;

  /// Records routed across all shards since creation.
  uint64_t records_routed() const;

  /// Element-wise sum of every live shard's IngestStats. A degraded
  /// shard's in-memory counters died with it and contribute nothing until
  /// recovery restores them (rolled back to its last checkpoint, then
  /// advanced by replay).
  IngestStats AggregateIngestStats() const;

 private:
  struct Shard {
    std::optional<StreamSummarizer> summarizer;
    std::optional<CheckpointManager> checkpoints;
    ShardHealth health = ShardHealth::kHealthy;
    /// Owned copies of records at stream positions
    /// [log_base, log_base + log.size()) — everything routed since the
    /// last durable checkpoint.
    /// (StreamRecord, from fault_injector.h, is the owned-record type; the
    /// borrowed RecordView cannot outlive the IngestBatch call.)
    std::deque<StreamRecord> log;
    uint64_t log_base = 0;
    uint64_t routed = 0;
    uint64_t absorbed = 0;
    uint64_t checkpointed = 0;
    uint64_t crashes = 0;
    uint64_t recoveries = 0;
    Status last_error;
  };

  ShardedSummarizer(size_t num_dims, ShardedSummarizerOptions options)
      : num_dims_(num_dims), options_(std::move(options)) {}

  /// True when an armed crash at `site` fired (and the injector is set).
  bool CrashPointFired(ShardCrashSite site);

  /// Quarantines `shard`: drops in-memory state, records the cause.
  void Quarantine(Shard& shard, Status cause);

  /// Ingests shard backlog [absorbed, routed) into its live summarizer.
  /// Returns the summarizer's batch status; advances `absorbed`.
  Result<BatchIngestResult> DrainShard(Shard& shard, ExecContext& ctx);

  /// Periodic checkpoint; `force` saves regardless of checkpoint_every.
  /// On success trims the replay log; on failure quarantines the shard.
  Status MaybeCheckpoint(Shard& shard, bool force);

  /// Refreshes the shard.* gauges after a state change.
  void PublishGauges() const;

  size_t num_dims_;
  ShardedSummarizerOptions options_;
  std::vector<Shard> shards_;
};

}  // namespace udm

#endif  // UDM_STREAM_SHARDED_SUMMARIZER_H_
