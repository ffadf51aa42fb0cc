#ifndef UDM_KDE_EVAL_OBS_H_
#define UDM_KDE_EVAL_OBS_H_

#include <utility>

#include "common/status.h"
#include "obs/metrics.h"

namespace udm::kde_internal {

/// Shared observability hooks for the density-evaluation hot paths. The
/// one evaluator (kde/summand_density.h) and the spatial index feed the
/// same `kde.*` metrics whichever estimator served the query, so a run
/// report shows total kernel work (DESIGN.md §4d).

inline obs::Counter& KernelEvalCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("kde.kernel_evals");
  return counter;
}

/// Log-sum-exp terms skipped by the pruning fast path (kernel_table.h),
/// so the work avoided is observable next to the work done.
inline obs::Counter& PrunedTermsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("kde.pruned_terms");
  return counter;
}

/// Spatial-index cells swept / skipped wholesale (spatial_index.h). Like
/// every registry counter these carry a sliding window, so `udm_serve`'s
/// stats verb can report live prune rates under load.
inline obs::Counter& CellsVisitedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("kde.cells_visited");
  return counter;
}

inline obs::Counter& CellsPrunedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("kde.cells_pruned");
  return counter;
}

/// kAuto batches that ran the dense tiled path although the model built
/// an index, because the probe query swept too many terms
/// (ResolveBatchIndex, spatial_index.h).
inline obs::Counter& BypassedBatchesCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "kde.index.bypassed_batches");
  return counter;
}

/// Attributes an aborted evaluation to the deadline or the budget before
/// propagating the status unchanged.
inline Status CountEvalTrip(Status status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled: {
      static obs::Counter& trips =
          obs::MetricsRegistry::Global().GetCounter("kde.eval.deadline_trips");
      trips.Increment();
      break;
    }
    case StatusCode::kResourceExhausted: {
      static obs::Counter& trips =
          obs::MetricsRegistry::Global().GetCounter("kde.eval.budget_trips");
      trips.Increment();
      break;
    }
    default:
      break;
  }
  return status;
}

}  // namespace udm::kde_internal

#endif  // UDM_KDE_EVAL_OBS_H_
