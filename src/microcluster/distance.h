#ifndef UDM_MICROCLUSTER_DISTANCE_H_
#define UDM_MICROCLUSTER_DISTANCE_H_

#include <span>

namespace udm {

/// Distance function used to assign points to micro-cluster centroids.
enum class AssignmentDistance {
  /// The paper's error-adjusted metric (Eq. 5) — the default.
  kErrorAdjusted,
  /// Plain squared Euclidean (the CluStream/BIRCH convention); kept for the
  /// bench/ablation_distance comparison and for the zero-error case, where
  /// the two coincide.
  kEuclidean,
};

/// The error-adjusted squared distance of Eq. 5:
///
///   dist(Y, c) = Σ_j max{ 0, (Y_j − c_j)² − ψ_j(Y)² }
///
/// Dimensions whose displacement is within the point's own error contribute
/// nothing — the "best-case" reading the paper motivates with Figure 2
/// (a point is assigned where its error ellipse could have placed it).
///
/// This is the scalar reference: assignment itself runs through the
/// vectorized CentroidTable sweep (centroid_table.h), which reproduces this
/// function's rounding bit for bit at every SIMD level.
double ErrorAdjustedDistance(std::span<const double> point,
                             std::span<const double> psi,
                             std::span<const double> centroid);

}  // namespace udm

#endif  // UDM_MICROCLUSTER_DISTANCE_H_
