#include "stream/stream_summarizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace udm {

namespace {

/// Ingest outcome counters, mirrored from IngestStats so a run report can
/// include them without reaching into summarizer instances. Resolved once
/// per process; updates are relaxed atomic adds.
struct StreamMetrics {
  obs::Counter& records_ok;
  obs::Counter& records_repaired;
  obs::Counter& records_quarantined;
  obs::Counter& records_rejected;
  obs::Counter& records_deferred;
  obs::Counter& records_replayed;
  obs::Counter& batch_deferrals;
  obs::Gauge& microclusters;
  obs::Histogram& ingest_seconds;

  static StreamMetrics& Get() {
    static StreamMetrics* metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return new StreamMetrics{
          registry.GetCounter("stream.records_ok"),
          registry.GetCounter("stream.records_repaired"),
          registry.GetCounter("stream.records_quarantined"),
          registry.GetCounter("stream.records_rejected"),
          registry.GetCounter("stream.records_deferred"),
          registry.GetCounter("stream.records_replayed"),
          registry.GetCounter("stream.batch_deferrals"),
          registry.GetGauge("stream.microclusters"),
          registry.GetHistogram("stream.ingest.seconds")};
    }();
    return *metrics;
  }
};

bool AllFinite(std::span<const double> xs) {
  for (double x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

bool AnyNegative(std::span<const double> xs) {
  for (double x : xs) {
    if (x < 0.0) return true;
  }
  return false;
}

}  // namespace

Result<StreamSummarizer> StreamSummarizer::Create(size_t num_dims,
                                                  const Options& options) {
  MicroClusterer::Options mc_options;
  mc_options.num_clusters = options.num_clusters;
  mc_options.distance = options.distance;
  UDM_ASSIGN_OR_RETURN(MicroClusterer clusterer,
                       MicroClusterer::Create(num_dims, mc_options));
  return StreamSummarizer(std::move(clusterer), options);
}

Result<StreamSummarizer> StreamSummarizer::FromState(State state) {
  MicroClusterer::Options mc_options;
  mc_options.num_clusters = state.options.num_clusters;
  mc_options.distance = state.options.distance;
  UDM_ASSIGN_OR_RETURN(
      MicroClusterer clusterer,
      MicroClusterer::FromClusters(state.num_dims, mc_options,
                                   std::move(state.clusters)));
  if (state.time_stats.size() != clusterer.clusters().size()) {
    return Status::InvalidArgument(
        "StreamSummarizer::FromState: time_stats length " +
        std::to_string(state.time_stats.size()) + " != cluster count " +
        std::to_string(clusterer.clusters().size()));
  }
  if (state.repair_sums.size() != state.num_dims ||
      state.repair_counts.size() != state.num_dims) {
    return Status::InvalidArgument(
        "StreamSummarizer::FromState: repair state length mismatch");
  }
  const uint64_t absorbed =
      state.stats.records_ok + state.stats.records_repaired;
  if (absorbed != clusterer.num_points()) {
    return Status::InvalidArgument(
        "StreamSummarizer::FromState: stats say " + std::to_string(absorbed) +
        " records absorbed but clusters hold " +
        std::to_string(clusterer.num_points()));
  }
  StreamSummarizer out(std::move(clusterer), state.options);
  out.time_stats_ = std::move(state.time_stats);
  out.last_timestamp_ = state.last_timestamp;
  out.stats_ = state.stats;
  out.repair_sums_ = std::move(state.repair_sums);
  out.repair_counts_ = std::move(state.repair_counts);
  return out;
}

StreamSummarizer::State StreamSummarizer::ExportState() const {
  State state;
  state.num_dims = clusterer_.num_dims();
  state.options = options_;
  state.clusters.assign(clusterer_.clusters().begin(),
                        clusterer_.clusters().end());
  state.time_stats = time_stats_;
  state.last_timestamp = last_timestamp_;
  state.stats = stats_;
  state.repair_sums = repair_sums_;
  state.repair_counts = repair_counts_;
  return state;
}

void StreamSummarizer::Absorb(std::span<const double> values,
                              std::span<const double> psi,
                              uint64_t timestamp) {
  const size_t cluster = clusterer_.Add(values, psi);
  if (cluster >= time_stats_.size()) {
    time_stats_.resize(cluster + 1);
    time_stats_[cluster].first_timestamp = timestamp;
    time_stats_[cluster].last_timestamp = timestamp;
  } else {
    TimeStats& ts = time_stats_[cluster];
    ts.first_timestamp = std::min(ts.first_timestamp, timestamp);
    ts.last_timestamp = std::max(ts.last_timestamp, timestamp);
  }
  last_timestamp_ = std::max(last_timestamp_, timestamp);
  for (size_t j = 0; j < values.size(); ++j) {
    repair_sums_[j] += values[j];
    ++repair_counts_[j];
  }
  StreamMetrics::Get().microclusters.Set(
      static_cast<double>(clusterer_.clusters().size()));
}

Status StreamSummarizer::Ingest(std::span<const double> values,
                                std::span<const double> psi,
                                uint64_t timestamp) {
  const size_t d = clusterer_.num_dims();

  // Detect the first fault in a fixed order; a record charges exactly one
  // category so counters stay reconcilable with upstream fault schedules.
  enum class Fault { kNone, kDims, kTime, kNonFinite, kNegativePsi };
  Fault fault = Fault::kNone;
  if (values.size() != d || psi.size() != d) {
    fault = Fault::kDims;
  } else if (options_.enforce_monotonic_time && timestamp < last_timestamp_) {
    fault = Fault::kTime;
  } else if (!AllFinite(values) || !AllFinite(psi)) {
    fault = Fault::kNonFinite;
  } else if (AnyNegative(psi)) {
    fault = Fault::kNegativePsi;
  }

  if (fault == Fault::kNone) {
    ++stats_.records_ok;
    StreamMetrics::Get().records_ok.Increment();
    Absorb(values, psi, timestamp);
    return Status::OK();
  }

  switch (fault) {
    case Fault::kDims:
      ++stats_.dimension_mismatches;
      break;
    case Fault::kTime:
      ++stats_.out_of_order_timestamps;
      break;
    case Fault::kNonFinite:
      ++stats_.non_finite_values;
      break;
    case Fault::kNegativePsi:
      ++stats_.negative_errors;
      break;
    case Fault::kNone:
      break;
  }

  if (options_.policy == FaultPolicy::kStrict) {
    ++stats_.records_rejected;
    StreamMetrics::Get().records_rejected.Increment();
    switch (fault) {
      case Fault::kDims:
        return Status::InvalidArgument("Ingest: dimension mismatch");
      case Fault::kTime:
        return Status::FailedPrecondition(
            "Ingest: out-of-order timestamp " + std::to_string(timestamp) +
            " after " + std::to_string(last_timestamp_));
      case Fault::kNonFinite:
        return Status::InvalidArgument(
            "Ingest: non-finite value in record or error vector");
      case Fault::kNegativePsi:
        return Status::InvalidArgument("Ingest: negative error entry");
      case Fault::kNone:
        break;
    }
    return Status::Internal("Ingest: unreachable");
  }

  if (options_.policy == FaultPolicy::kQuarantine) {
    ++stats_.records_quarantined;
    StreamMetrics::Get().records_quarantined.Increment();
    // Rate-limited so a fault storm logs once per interval, not per record.
    UDM_LOG_RATE_LIMITED(Warning, "stream.quarantine", 5.0)
        << "Ingest: quarantining malformed record at timestamp " << timestamp
        << " (" << stats_.records_quarantined << " quarantined so far)";
    return Status::OK();
  }

  // kRepair: fix every defect present (not only the charged category) and
  // absorb the mended record.
  std::vector<double> fixed_values(d);
  std::vector<double> fixed_psi(d, 0.0);
  for (size_t j = 0; j < d; ++j) {
    const double raw = j < values.size() ? values[j] :
        std::numeric_limits<double>::quiet_NaN();
    if (std::isfinite(raw)) {
      fixed_values[j] = raw;
    } else {
      // Impute from the per-dimension running mean (0 before any data).
      fixed_values[j] = repair_counts_[j] > 0
                            ? repair_sums_[j] /
                                  static_cast<double>(repair_counts_[j])
                            : 0.0;
    }
    if (j < psi.size() && std::isfinite(psi[j])) {
      fixed_psi[j] = std::max(psi[j], 0.0);
    }
  }
  uint64_t fixed_timestamp = timestamp;
  if (options_.enforce_monotonic_time && fixed_timestamp < last_timestamp_) {
    fixed_timestamp = last_timestamp_;
  }
  ++stats_.records_repaired;
  StreamMetrics::Get().records_repaired.Increment();
  UDM_LOG_RATE_LIMITED(Warning, "stream.repair", 5.0)
      << "Ingest: repaired malformed record at timestamp " << timestamp
      << " (" << stats_.records_repaired << " repaired so far)";
  Absorb(fixed_values, fixed_psi, fixed_timestamp);
  return Status::OK();
}

Result<BatchIngestResult> StreamSummarizer::IngestBatch(
    std::span<const RecordView> records, ExecContext& ctx) {
  // A cancelled or already-violated context consumes nothing and leaves the
  // summarizer bit-identical to its state before the call.
  UDM_RETURN_IF_ERROR(ctx.Check());

  UDM_TRACE_SPAN("stream.ingest_batch");
  Stopwatch batch_watch;
  const AssignmentScope charge(clusterer_.distance_evals());
  BatchIngestResult out;
  for (const RecordView& record : records) {
    Status boundary = ctx.ChargeBytes(
        (record.values.size() + record.psi.size()) * sizeof(double));
    if (boundary.ok()) boundary = ctx.Check();
    if (!boundary.ok()) {
      if (boundary.code() == StatusCode::kCancelled || out.consumed == 0) {
        return boundary;
      }
      out.stop_cause = boundary.code() == StatusCode::kDeadlineExceeded
                           ? StopCause::kDeadline
                           : StopCause::kBudget;
      break;
    }
    UDM_RETURN_IF_ERROR(
        Ingest(record.values, record.psi, record.timestamp)
            .WithContext("IngestBatch record " + std::to_string(out.consumed)));
    ++out.consumed;
  }
  // Deferred tails are re-offered ahead of new records (the documented
  // contract), so the leading `overlap` records of this offer were already
  // counted deferred: consumed ones pay down the backlog as replays, and
  // unconsumed ones must not be counted a second time. records_deferred is
  // therefore a live backlog — each outstanding record appears exactly
  // once no matter how many offers it takes to land it.
  const uint64_t overlap =
      std::min<uint64_t>(records.size(), stats_.records_deferred);
  const uint64_t replayed = std::min<uint64_t>(out.consumed, overlap);
  if (replayed > 0) {
    stats_.records_deferred -= replayed;
    stats_.records_replayed += replayed;
    StreamMetrics::Get().records_replayed.Increment(replayed);
  }
  if (out.consumed < records.size()) {
    const uint64_t new_deferrals =
        (records.size() - out.consumed) - (overlap - replayed);
    stats_.records_deferred += new_deferrals;
    ++stats_.batch_deadline_deferrals;
    StreamMetrics::Get().records_deferred.Increment(new_deferrals);
    StreamMetrics::Get().batch_deferrals.Increment();
    UDM_LOG_RATE_LIMITED(Warning, "stream.backpressure", 5.0)
        << "IngestBatch: deferred " << records.size() - out.consumed
        << " of " << records.size() << " records ("
        << StopCauseToString(out.stop_cause) << ")";
  }
  StreamMetrics::Get().ingest_seconds.Record(batch_watch.ElapsedSeconds());
  return out;
}

Result<McDensityModel> StreamSummarizer::SnapshotDensity(
    const DensityEvalOptions& options) const {
  if (num_points() == 0) {
    return Status::FailedPrecondition(
        "SnapshotDensity: no points ingested yet");
  }
  return McDensityModel::Build(clusterer_.clusters(), options);
}

}  // namespace udm
