#ifndef UDM_ROBUSTNESS_CHECKPOINT_H_
#define UDM_ROBUSTNESS_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "robustness/fault_injector.h"
#include "robustness/retry.h"
#include "stream/stream_summarizer.h"

namespace udm {

/// Durable crash recovery for long-running stream summarization.
///
/// The paper's summary is built in one pass over a stream that cannot be
/// replayed from the top; losing the process means losing hours of
/// compression. CheckpointManager persists the summarizer's complete state
/// (micro-clusters, time stats, ingest counters, repair state, options) on
/// a rotation of the last `max_keep` checkpoints, and recovery walks that
/// rotation newest-first past any truncated/corrupt/CRC-mismatched file.
///
/// Durability discipline:
///  * writes go to a temp file in the same directory, are fsync'd, then
///    `rename(2)` — readers never observe a half-written checkpoint;
///  * after the rename the parent directory is fsync'd, so the committed
///    entry survives a crash (without it a recovered process can find the
///    newest checkpoint vanished and silently restore a stale generation);
///  * every file ends in a CRC-32 footer over the entire body, so torn
///    writes, short reads, and bit rot are detected at restore time, not
///    at query time;
///  * rotation deletes the oldest file only after the new one is on disk,
///    so a crash mid-save still leaves `max_keep` valid generations.
///
/// The `cursor` is caller-defined resume metadata (typically the index of
/// the next record in the upstream source); it travels with the state so a
/// recovered process knows where to rejoin the stream.

/// Checkpoint file format version. v3 added the IngestBatch backpressure
/// counters (`backpressure` line); v4 appends the replay counter to that
/// line. v2 (no line) and v3 (two fields) files still restore, with the
/// missing counters zeroed.
inline constexpr int kCheckpointVersion = 4;

struct CheckpointOptions {
  /// Directory the rotation lives in (created by Create if absent); files
  /// are named `checkpoint-<seq>.udmck`.
  std::string directory;
  /// How many checkpoint generations to keep (K >= 1).
  size_t max_keep = 3;
  /// Retry schedule for transient I/O failures during Save/RestoreLatest.
  /// The default retries kIoError twice more with ~1-2 ms backoff; set
  /// max_attempts = 1 to restore fail-fast behavior.
  RetryPolicy retry;
  /// Test seam: when set, each save/restore attempt first consumes one
  /// armed fault from this injector (ArmIoFaults) and fails with kIoError
  /// if one fires. Armed torn writes (ArmTornWrites) make a save commit a
  /// truncated generation and fail; armed short reads (ArmShortReads) make
  /// a restore observe a prefix of one candidate file, forcing a CRC
  /// fallback. Not owned; must outlive the manager.
  FaultInjector* io_faults = nullptr;
};

/// Serializes summarizer state + cursor to the checkpoint wire format
/// (line-oriented text, CRC-32 footer). Exposed for tests and tooling.
std::string SerializeCheckpoint(const StreamSummarizer& summarizer,
                                uint64_t cursor);

struct DecodedCheckpoint {
  StreamSummarizer::State state;
  uint64_t cursor = 0;
};

/// Parses and CRC-verifies a checkpoint payload. Never crashes on garbage.
Result<DecodedCheckpoint> DeserializeCheckpoint(const std::string& text);

class CheckpointManager {
 public:
  /// Opens (and if needed creates) the checkpoint directory and scans it
  /// for existing generations so new saves continue the sequence.
  static Result<CheckpointManager> Create(const CheckpointOptions& options);

  /// Atomically persists the summarizer's state as the next generation and
  /// prunes the rotation to `max_keep` files. Transient I/O failures are
  /// retried per options().retry; the returned status is the final
  /// attempt's. RetryStats for the last Save are in last_retry_stats().
  Status Save(const StreamSummarizer& summarizer, uint64_t cursor);

  struct Restored {
    StreamSummarizer summarizer;
    /// The resume cursor stored with the winning checkpoint.
    uint64_t cursor = 0;
    /// Path of the checkpoint that restored cleanly.
    std::string path;
    /// Number of newer checkpoints that were rejected (corrupt/truncated)
    /// before this one.
    size_t fallbacks = 0;
  };

  /// Restores from the newest valid checkpoint, falling back across the
  /// rotation. NotFound if the directory holds no checkpoint at all;
  /// the last rejection's reason if every candidate is corrupt. A whole
  /// pass that fails on transient I/O is retried per options().retry.
  Result<Restored> RestoreLatest() const;

  /// Existing checkpoint files, newest first.
  std::vector<std::string> ListCheckpoints() const;

  const CheckpointOptions& options() const { return options_; }

  /// Attempt/backoff accounting for the most recent Save call.
  const RetryStats& last_retry_stats() const { return last_retry_stats_; }

 private:
  explicit CheckpointManager(CheckpointOptions options)
      : options_(std::move(options)) {}

  /// One un-retried save/restore attempt.
  Status SaveOnce(const StreamSummarizer& summarizer, uint64_t cursor);
  Result<Restored> RestoreOnce() const;

  CheckpointOptions options_;
  uint64_t next_sequence_ = 1;
  RetryStats last_retry_stats_;
};

}  // namespace udm

#endif  // UDM_ROBUSTNESS_CHECKPOINT_H_
