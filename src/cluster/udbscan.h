#ifndef UDM_CLUSTER_UDBSCAN_H_
#define UDM_CLUSTER_UDBSCAN_H_

#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "dataset/dataset.h"
#include "error/error_model.h"
#include "kde/error_kde.h"

namespace udm {

/// Density-based clustering of uncertain data.
///
/// The paper argues (§3) that "clustering algorithms such as DBSCAN … work
/// with joint probability densities as intermediate representations. In all
/// these cases, our approach provides a direct (and scalable) solution."
/// This module is that instantiation: DBSCAN's core-point test is replaced
/// by a threshold on the *error-adjusted* density f_Q (Eq. 4), and
/// neighborhood reachability uses the error-adjusted distance (Eq. 5), so
/// points with large errors neither create spurious cores nor break
/// connectivity.
struct UncertainDbscanOptions {
  /// Neighborhood radius. Connectivity uses the error-adjusted squared
  /// distance, so two points are neighbors when dist_adj <= eps².
  double eps = 1.0;
  /// Core-point condition: f_Q(x) >= density_threshold.
  double density_threshold = 0.0;
  /// Alternative/additional core condition in classic DBSCAN style: a core
  /// point must have at least this many neighbors within eps (0 disables).
  size_t min_neighbors = 0;
  /// Micro-cluster budget for the density pass; 0 evaluates the exact
  /// point-level KDE (O(N²·d) total), > 0 summarizes first so the density
  /// pass is O(N·q·d) — the paper's §2.1 scalability route applied to its
  /// §3 DBSCAN claim.
  size_t num_clusters = 0;
  /// Kernel/bandwidth knobs for the density estimate.
  DensityEvalOptions density;
};

/// Cluster assignment: labels[i] >= 0 is the cluster id of row i, and
/// kNoiseLabel marks noise.
struct UncertainClustering {
  static constexpr int kNoiseLabel = -1;
  std::vector<int> labels;
  size_t num_clusters = 0;
  /// Per-row error-adjusted density, as computed for the core test.
  std::vector<double> densities;
  /// kCompleted for a full run; kDeadline/kBudget when the ExecContext cut
  /// cluster expansion short — clusters grown so far are valid, remaining
  /// rows are left as noise.
  StopCause stop_cause = StopCause::kCompleted;
};

/// Runs uncertain DBSCAN over the dataset. O(N²·d) neighborhood search —
/// intended for the moderate N regime of the examples; the micro-cluster
/// density surrogate keeps the density pass cheap for larger N.
Result<UncertainClustering> UncertainDbscan(
    const Dataset& data, const ErrorModel& errors,
    const UncertainDbscanOptions& options);

/// Deadline/cancellation/budget-aware variant. The density pass is
/// all-or-nothing (a violation there is an error); once expansion begins,
/// a deadline/budget hit at a seed boundary returns the partial clustering
/// with `stop_cause` set. Cancellation always fails with kCancelled.
Result<UncertainClustering> UncertainDbscan(
    const Dataset& data, const ErrorModel& errors,
    const UncertainDbscanOptions& options, ExecContext& ctx);

}  // namespace udm

#endif  // UDM_CLUSTER_UDBSCAN_H_
