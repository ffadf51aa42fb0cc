#ifndef UDM_MICROCLUSTER_CLUSTREAM_H_
#define UDM_MICROCLUSTER_CLUSTREAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "error/error_model.h"
#include "microcluster/centroid_table.h"
#include "microcluster/distance.h"
#include "microcluster/microcluster.h"

namespace udm {

/// CluStream-style maintenance [2] — the baseline the paper's §2.1
/// variation is defined *against*: "a new micro-cluster is created
/// whenever the incoming data point does not naturally fit in a
/// micro-cluster [and] clusters are discarded", whereas the paper's
/// maintainer (clusterer.h) never creates after seeding and never drops.
///
/// This maintainer implements the classic behavior on error-based CFT
/// tuples so the two policies can be compared head-to-head
/// (bench/ablation_maintenance):
///
///  * a point joins its nearest cluster only if it falls within that
///    cluster's maximum boundary (boundary_factor × the cluster's RMS
///    deviation; for singleton clusters, the distance to the nearest other
///    cluster);
///  * otherwise it founds a new cluster, and the budget is restored by
///    merging the two closest existing clusters (the additivity of
///    Definition 1 makes the merge exact).
class CluStreamMaintainer {
 public:
  struct Options {
    size_t num_clusters = 140;
    /// Max-boundary multiplier t: join if dist <= (t · RMS deviation)².
    /// CluStream's recommended t is around 2.
    double boundary_factor = 2.0;
    AssignmentDistance distance = AssignmentDistance::kErrorAdjusted;
  };

  static Result<CluStreamMaintainer> Create(size_t num_dims,
                                            const Options& options);
  static Result<CluStreamMaintainer> Create(size_t num_dims) {
    return Create(num_dims, Options());
  }

  /// Processes one point; returns the index of the absorbing cluster
  /// (possibly a newly created one).
  size_t Add(std::span<const double> values, std::span<const double> psi);

  /// Bulk path over an uncertain dataset. Charges the call's assignment
  /// sweeps once (RecordAssignment).
  Status AddDataset(const Dataset& data, const ErrorModel& errors);

  std::span<const MicroCluster> clusters() const { return clusters_; }

  uint64_t num_points() const { return num_points_; }
  uint64_t num_creations() const { return num_creations_; }
  uint64_t num_merges() const { return num_merges_; }
  size_t num_dims() const { return num_dims_; }

 private:
  CluStreamMaintainer(size_t num_dims, const Options& options)
      : num_dims_(num_dims),
        options_(options),
        centroids_(num_dims, options.distance) {}

  /// Squared maximum boundary of cluster `c`.
  double MaxBoundary2(size_t c) const;

  /// Merges the two closest clusters (centroid distance) to free a slot.
  void MergeClosestPair();

  /// Founds a new cluster at the point; returns its index.
  size_t Found(std::span<const double> values, std::span<const double> psi);

  size_t num_dims_;
  Options options_;
  std::vector<MicroCluster> clusters_;
  CentroidTable centroids_;  // one row per cluster
  uint64_t num_points_ = 0;
  uint64_t distance_evals_ = 0;
  uint64_t num_creations_ = 0;
  uint64_t num_merges_ = 0;
};

}  // namespace udm

#endif  // UDM_MICROCLUSTER_CLUSTREAM_H_
