#ifndef UDM_MICROCLUSTER_MICROCLUSTER_H_
#define UDM_MICROCLUSTER_MICROCLUSTER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "dataset/dataset.h"

namespace udm {

/// An error-based micro-cluster (paper Definition 1): the additive
/// (3d+1)-tuple
///
///   CFT(C) = ( CF2x(C), EF2x(C), CF1x(C), n(C) )
///
/// where, per dimension p over member points X_i1..X_in,
///   CF2x_p = Σ_j (x^p_ij)²      (sum of squared values)
///   EF2x_p = Σ_j ψ_p(X_ij)²     (sum of squared errors)
///   CF1x_p = Σ_j x^p_ij         (sum of values)
///   n      = number of points.
///
/// All statistics are additive, so clusters can be built in one pass and
/// merged associatively (tested in microcluster_test.cc). The derived
/// quantities — centroid, member variance, and the pseudo-point error Δ of
/// Lemma 1 — are computable from the tuple alone, which is what lets the
/// density machinery run from a main-memory summary instead of the data.
class MicroCluster {
 public:
  /// An empty cluster over `num_dims` dimensions.
  explicit MicroCluster(size_t num_dims)
      : cf1_(num_dims, 0.0), cf2_(num_dims, 0.0), ef2_(num_dims, 0.0) {}

  /// Reconstructs a cluster from its raw tuple (deserialization / foreign
  /// summaries). Vectors must share a nonzero size; EF2 entries and the
  /// implied member variance must be non-negative.
  static Result<MicroCluster> FromTuple(std::vector<double> cf1,
                                        std::vector<double> cf2,
                                        std::vector<double> ef2,
                                        uint64_t count);

  size_t NumDims() const { return cf1_.size(); }

  /// Number of member points n(C).
  uint64_t Count() const { return count_; }

  bool IsEmpty() const { return count_ == 0; }

  /// Absorbs one point with its error vector ψ (both sized NumDims()).
  void AddPoint(std::span<const double> values, std::span<const double> psi);

  /// Absorbs another cluster (the additivity property).
  void Merge(const MicroCluster& other);

  /// Centroid coordinate along `dim`: CF1x_j / n. Requires non-empty.
  double Centroid(size_t dim) const {
    UDM_DCHECK(!IsEmpty() && dim < NumDims());
    return cf1_[dim] / static_cast<double>(count_);
  }

  /// Full centroid c(C).
  std::vector<double> CentroidVector() const;

  /// Member variance along `dim`: CF2x_j/n − (CF1x_j/n)² (clamped at 0
  /// against floating-point cancellation).
  double VarianceAt(size_t dim) const;

  /// Mean squared error along `dim`: EF2x_j / n.
  double MeanSquaredErrorAt(size_t dim) const {
    UDM_DCHECK(!IsEmpty() && dim < NumDims());
    return ef2_[dim] / static_cast<double>(count_);
  }

  /// The squared pseudo-point error Δ_j(C)² of Lemma 1:
  ///
  ///   Δ_j(C)² = CF2x_j/n − (CF1x_j/n)² + EF2x_j/n
  ///           = member variance + mean squared error.
  ///
  /// (The typeset Eq. 7 transposes two signs; the bias²+variance proof
  /// fixes the intended expression — see DESIGN.md §2.3.)
  double Delta2At(size_t dim) const {
    return VarianceAt(dim) + MeanSquaredErrorAt(dim);
  }

  /// Δ_j(C): the error width used in the micro-cluster kernel (Eq. 9).
  double DeltaAt(size_t dim) const;

  /// Raw tuple accessors (CF1x, CF2x, EF2x).
  std::span<const double> cf1() const { return cf1_; }
  std::span<const double> cf2() const { return cf2_; }
  std::span<const double> ef2() const { return ef2_; }

 private:
  std::vector<double> cf1_;
  std::vector<double> cf2_;
  std::vector<double> ef2_;
  uint64_t count_ = 0;
};

/// Aggregates the per-dimension statistics of the *underlying data* from a
/// set of micro-clusters (Σ over clusters of CF1/CF2 and counts). Used to
/// compute Silverman bandwidths without revisiting the raw points.
struct AggregatedStats {
  std::vector<DimensionStats> dims;
  uint64_t total_count = 0;
};

AggregatedStats AggregateStats(std::span<const MicroCluster> clusters);

}  // namespace udm

#endif  // UDM_MICROCLUSTER_MICROCLUSTER_H_
