#ifndef UDM_MICROCLUSTER_CLUSTERER_H_
#define UDM_MICROCLUSTER_CLUSTERER_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "error/error_model.h"
#include "microcluster/centroid_table.h"
#include "microcluster/distance.h"
#include "microcluster/microcluster.h"

namespace udm {

/// One-pass maintenance of a fixed budget of error-based micro-clusters
/// (paper §2.1). The variation on CluStream [2] is deliberate and follows
/// the paper exactly:
///
///  * at most `q` clusters, seeded by the first q arriving points;
///  * every later point joins its *nearest* centroid under the
///    error-adjusted distance (Eq. 5) — new clusters are never created
///    after seeding and clusters are never discarded, so every data point
///    is reflected in the statistics;
///  * centroids are the running CF1x/n means.
///
/// O(q·d) per point through the vectorized CentroidTable sweep; the
/// summary (q clusters) lives in main memory so densities can later be
/// recomputed over arbitrary subspaces without another data pass.
class MicroClusterer {
 public:
  struct Options {
    /// Cluster budget q (>= 1). The paper's experiments use 20..140.
    size_t num_clusters = 140;
    /// Assignment metric; kErrorAdjusted reproduces the paper.
    AssignmentDistance distance = AssignmentDistance::kErrorAdjusted;
  };

  /// Creates an empty clusterer for `num_dims`-dimensional points.
  static Result<MicroClusterer> Create(size_t num_dims,
                                       const Options& options);
  static Result<MicroClusterer> Create(size_t num_dims) {
    return Create(num_dims, Options());
  }

  /// Rebuilds a clusterer mid-stream from a previously built summary
  /// (checkpoint recovery): centroids are recomputed from the CF1 sums and
  /// num_points() resumes at the summary's total count. Clusters must all
  /// be non-empty, share `num_dims` dimensions, and fit the budget.
  static Result<MicroClusterer> FromClusters(size_t num_dims,
                                             const Options& options,
                                             std::vector<MicroCluster> clusters);

  /// Processes one point with its error vector ψ (both sized num_dims).
  /// Returns the index of the cluster that absorbed the point.
  size_t Add(std::span<const double> values, std::span<const double> psi);

  /// Bulk path: processes every row of `data` with errors from `errors`
  /// (shapes must match). Charges the call's assignment work once
  /// (RecordAssignment).
  Status AddDataset(const Dataset& data, const ErrorModel& errors);

  /// The current summary. Clusters are non-empty once seeded.
  std::span<const MicroCluster> clusters() const { return clusters_; }

  /// Moves the summary out (the clusterer is left empty/reusable).
  std::vector<MicroCluster> TakeClusters();

  /// Total points processed.
  uint64_t num_points() const { return num_points_; }

  /// Centroid distances evaluated by assignment so far: every point after
  /// seeding is compared with all q centroids. Bulk callers charge its
  /// growth across a call through an AssignmentScope.
  const uint64_t& distance_evals() const { return distance_evals_; }

  size_t num_dims() const { return num_dims_; }

 private:
  MicroClusterer(size_t num_dims, const Options& options)
      : num_dims_(num_dims),
        options_(options),
        centroids_(num_dims, options.distance) {}

  size_t num_dims_;
  Options options_;
  std::vector<MicroCluster> clusters_;
  /// Cached centroids, one row per cluster, kept in sync with the CF1x
  /// sums so assignment avoids divisions per candidate.
  CentroidTable centroids_;
  uint64_t num_points_ = 0;
  uint64_t distance_evals_ = 0;
};

/// Convenience: builds the full summary for an uncertain dataset in one
/// call (the "training" step of the paper's classifier; timed by Figs. 8
/// and 11).
Result<std::vector<MicroCluster>> BuildMicroClusters(
    const Dataset& data, const ErrorModel& errors,
    const MicroClusterer::Options& options = MicroClusterer::Options());

}  // namespace udm

#endif  // UDM_MICROCLUSTER_CLUSTERER_H_
