#ifndef UDM_OUTLIER_OUTLIER_H_
#define UDM_OUTLIER_OUTLIER_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "error/error_model.h"
#include "kde/error_kde.h"

namespace udm {

/// Density-based outlier scoring over uncertain data.
///
/// §3's thesis — "the density distribution of the data set is a surrogate
/// for the actual points in it" — applies directly to outlier detection:
/// a point in a low error-adjusted density region is anomalous, while a
/// point whose large error widens its neighbors' kernels is *not* flagged
/// merely for being noisy. Scores are negative log densities, so larger
/// means more outlying.
///
/// The exact path scores each point against a density fit that excludes
/// its own kernel (leave-one-out), removing the self-bump that otherwise
/// masks isolated points in small datasets.
struct OutlierOptions {
  /// Micro-cluster budget for the scalable path; 0 = exact point-level KDE.
  size_t num_clusters = 0;
  DensityEvalOptions density;
};

struct OutlierScores {
  /// −log f_Q(x_i) per row (larger = more outlying).
  std::vector<double> scores;
  /// Row indices sorted by descending score.
  std::vector<size_t> ranking;
};

/// Scores every row of the dataset.
Result<OutlierScores> ScoreOutliers(const Dataset& data,
                                    const ErrorModel& errors,
                                    const OutlierOptions& options = {});

/// Convenience: the `top_k` most outlying row indices.
Result<std::vector<size_t>> TopOutliers(const Dataset& data,
                                        const ErrorModel& errors,
                                        size_t top_k,
                                        const OutlierOptions& options = {});

}  // namespace udm

#endif  // UDM_OUTLIER_OUTLIER_H_
