#ifndef UDM_MICROCLUSTER_CENTROID_TABLE_H_
#define UDM_MICROCLUSTER_CENTROID_TABLE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "common/simd.h"
#include "microcluster/distance.h"
#include "microcluster/microcluster.h"

namespace udm {

/// Outcome of one assignment sweep: the first centroid attaining the
/// strict minimum distance, and that distance. When no distance is below
/// +inf (every candidate +inf or NaN) the result is {0, +inf}, exactly what
/// a scalar `if (dist < best)` scan seeded with +inf returns.
struct NearestCentroid {
  size_t index = 0;
  double distance = std::numeric_limits<double>::infinity();
};

/// The centroid cache behind every nearest-centroid caller — the paper's
/// micro-cluster maintenance (MicroClusterer), the CluStream baseline,
/// MergeSummaries' over-budget absorption and ErrorKMeans — and the one
/// implementation of the Eq. 5 assignment step they share (DESIGN.md §4k).
///
/// Layout: structure of arrays. Each dimension is one 64-byte-aligned
/// column of `stride` doubles (the row capacity rounded up to the 8-lane
/// AVX-512 width), so a sweep loads whole vectors of clusters per
/// dimension without gathers or tail handling.
///
/// Nearest() sweeps dims-outer, clusters-inner through the runtime-
/// dispatched kernel (ProcessSimdLevel(): UDM_SIMD, else CPUID). Every
/// level issues, per cluster, the exact operation sequence of the scalar
/// reference (ErrorAdjustedDistance / SquaredEuclidean): diff = x_j − c_j,
/// diff·diff − ψ_j² with no FMA, max(t, 0) mapping NaN to 0 as
/// std::max(0.0, t) does, accumulation in ascending j, then the first
/// strict minimum over [0, size()). Results are bit-identical at every
/// level.
class CentroidTable {
 public:
  CentroidTable(size_t num_dims, AssignmentDistance distance);

  size_t size() const { return rows_; }
  size_t num_dims() const { return num_dims_; }
  AssignmentDistance distance() const { return distance_; }

  /// Appends one centroid row (sized num_dims()).
  void Append(std::span<const double> centroid);
  /// Appends the centroid CF1/n of a non-empty cluster.
  void Append(const MicroCluster& cluster);

  /// Overwrites row `row`.
  void Set(size_t row, std::span<const double> centroid);
  /// Overwrites row `row` with the centroid CF1/n of a non-empty cluster.
  void Set(size_t row, const MicroCluster& cluster);

  /// Moves the last row into `row` and drops the last row (the caller
  /// mirrors the same swap-erase on its cluster list).
  void SwapErase(size_t row);

  /// Drops every row (capacity is kept).
  void Clear() { rows_ = 0; }

  double At(size_t row, size_t dim) const {
    UDM_DCHECK(row < rows_ && dim < num_dims_);
    return columns_[dim * stride_ + row];
  }

  /// The nearest row to `values` under distance(); `psi` is the point's
  /// error vector for kErrorAdjusted and is ignored for kEuclidean. The
  /// table must be non-empty.
  NearestCentroid Nearest(std::span<const double> values,
                          std::span<const double> psi) const {
    return NearestAt(level_, values, psi);
  }

  /// Nearest() through the kernel of a pinned level — the hook the kernel
  /// equivalence test uses to compare levels in one process. `level` must
  /// be one the host can execute (see ResolveSimdRequest).
  NearestCentroid NearestAt(SimdLevel level, std::span<const double> values,
                            std::span<const double> psi) const;

 private:
  /// Reallocates the columns for at least `rows` rows.
  void Reserve(size_t rows);

  size_t num_dims_;
  AssignmentDistance distance_;
  SimdLevel level_;
  size_t rows_ = 0;
  /// Column length: row capacity rounded up to the 8-lane vector width.
  size_t stride_ = 0;
  /// num_dims_ columns of stride_ doubles; lanes past rows_ are padding.
  AlignedVector<double> columns_;
};

/// Charges one bulk assignment call — an AddDataset, a StreamSummarizer
/// IngestBatch, a MergeSummaries absorption or one ErrorKMeans sweep — to
/// the registry: `microcluster.distance_evals` advances by the centroid
/// distances the call evaluated and `microcluster.assign.seconds` takes
/// one sample of its wall time. Never called per point.
void RecordAssignment(uint64_t distance_evals, double seconds);

/// RecordAssignment for a bulk call that tracks a running distance-eval
/// count: charges the count's growth and the elapsed time when the scope
/// ends, so early returns are charged too.
class AssignmentScope {
 public:
  explicit AssignmentScope(const uint64_t& distance_evals)
      : evals_(distance_evals), start_(distance_evals) {}
  ~AssignmentScope() {
    RecordAssignment(evals_ - start_,
                     std::chrono::duration<double>(Clock::now() - started_)
                         .count());
  }
  AssignmentScope(const AssignmentScope&) = delete;
  AssignmentScope& operator=(const AssignmentScope&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  const uint64_t& evals_;
  const uint64_t start_;
  const Clock::time_point started_ = Clock::now();
};

}  // namespace udm

#endif  // UDM_MICROCLUSTER_CENTROID_TABLE_H_
