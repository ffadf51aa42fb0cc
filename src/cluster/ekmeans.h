#ifndef UDM_CLUSTER_EKMEANS_H_
#define UDM_CLUSTER_EKMEANS_H_

#include <cstdint>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "dataset/dataset.h"
#include "error/error_model.h"
#include "microcluster/distance.h"

namespace udm {

/// Error-adjusted k-means.
///
/// The paper's Figure 2 motivates why uncertain points should be assigned
/// "best case": a point whose error ellipse reaches centroid 1 likely
/// belongs there even if its observed position is nearer centroid 2. This
/// module applies that idea to Lloyd's algorithm: assignment uses the
/// error-adjusted distance of Eq. 5, while centroid updates remain ordinary
/// means of the observed values.
struct ErrorKMeansOptions {
  size_t k = 2;
  AssignmentDistance distance = AssignmentDistance::kErrorAdjusted;
  /// Seed for the k-means++-style initial centroid choice.
  uint64_t seed = 17;
};

struct KMeansResult {
  std::vector<int> assignments;      ///< cluster id per row
  std::vector<double> centroids;     ///< row-major k x d
  double inertia = 0.0;              ///< Σ assigned error-adjusted distances
  size_t iterations = 0;
  bool converged = false;
  /// kCompleted when Lloyd's loop converged or hit its iteration cap;
  /// kDeadline/kBudget when the ExecContext cut it short at an iteration
  /// boundary, in which case assignments/centroids are the last completed
  /// iteration's (a valid clustering, just not a converged one).
  StopCause stop_cause = StopCause::kCompleted;
};

/// Runs error-adjusted k-means. Requires k >= 1 and k <= N.
Result<KMeansResult> ErrorKMeans(const Dataset& data, const ErrorModel& errors,
                                 const ErrorKMeansOptions& options);

/// Deadline/cancellation/budget-aware variant. The context is checked at
/// iteration boundaries (each iteration charges N·k distance evaluations).
/// Cancellation always fails with kCancelled; a deadline or budget hit
/// before the first completed iteration fails with that status, and after
/// at least one iteration returns the partial result with `stop_cause` set.
Result<KMeansResult> ErrorKMeans(const Dataset& data, const ErrorModel& errors,
                                 const ErrorKMeansOptions& options,
                                 ExecContext& ctx);

}  // namespace udm

#endif  // UDM_CLUSTER_EKMEANS_H_
