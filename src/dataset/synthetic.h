#ifndef UDM_DATASET_SYNTHETIC_H_
#define UDM_DATASET_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"

namespace udm {

class Rng;

/// One Gaussian component of a mixture: an axis-aligned Gaussian blob
/// belonging to a class.
struct GmmComponent {
  std::vector<double> mean;    ///< size d
  std::vector<double> stddev;  ///< size d, entries >= 0
  double weight = 1.0;         ///< relative sampling weight (> 0)
  int label = 0;               ///< class label of points from this component
};

/// An explicit Gaussian mixture specification.
struct GmmSpec {
  size_t num_dims = 0;
  std::vector<GmmComponent> components;
};

/// Samples `n` points from the mixture. Component choice is proportional to
/// weight; values are independent per dimension. Deterministic given `rng`.
Result<Dataset> SampleGmm(const GmmSpec& spec, size_t n, Rng* rng);

/// High-level knob set for generating labeled mixture datasets with a
/// controllable difficulty. This is the engine behind the UCI-like
/// generators (uci_like.h): the classification figures in the paper depend
/// on (N, d, k), the degree of class overlap, and per-dimension scales — all
/// of which are explicit knobs here.
struct MixtureDatasetSpec {
  /// Total number of dimensions d.
  size_t num_dims = 2;
  /// How many of the d dimensions carry class signal; the remaining
  /// dimensions are pure noise shared across classes. Must be in
  /// [1, num_dims].
  size_t num_informative_dims = 2;
  /// Class priors; size k, entries > 0 (normalized internally).
  std::vector<double> class_priors = {0.5, 0.5};
  /// Gaussian clusters per class (>= 1).
  size_t clusters_per_class = 2;
  /// Standard deviation of cluster centers around the origin, in units of
  /// the within-cluster spread. Larger => easier classification.
  double class_separation = 2.0;
  /// Within-cluster standard deviation (before per-dimension scaling).
  double cluster_spread = 1.0;
  /// Optional per-dimension affine transform: value = raw * scale + offset.
  /// Empty means scale 1 / offset 0 everywhere. The error model of the
  /// paper injects noise relative to each dimension's sigma, so scales make
  /// dimensions realistically heterogeneous without changing difficulty.
  std::vector<double> dim_scales;
  std::vector<double> dim_offsets;
  /// RNG seed; the same spec + seed + n reproduces the same dataset.
  uint64_t seed = 42;
};

/// Generates a labeled dataset of `n` rows from the spec. Cluster centers
/// are drawn once from N(0, class_separation^2) on the informative
/// dimensions and are zero on noise dimensions; points add N(0,
/// cluster_spread^2) on informative dimensions and N(0, 1) on noise
/// dimensions.
Result<Dataset> MakeMixtureDataset(const MixtureDatasetSpec& spec, size_t n);

/// Clustered, locality-rich workload for the spatial-index benches and
/// tests: a 3-dimensional mixture of 14 well-separated unit-spread
/// Gaussian clusters on an FCC lattice (see the definition for the
/// geometry math), with heterogeneous per-dimension scales. Every pair of
/// cluster centers sits ≥ √2·100 within-cluster sigmas apart, so at bench
/// sizes the bandwidth is a small fraction of the inter-cluster distance
/// and most (query, summand) pairs are provably below the pruning gap —
/// the regime the cell-pruned spatial index targets (DESIGN.md §4j).
/// Contrast with the adult-like fixture (6 dims, heavy class overlap),
/// where density mass has no low-dimensional locality and no
/// bit-identical method can skip much. Deterministic in (n, seed).
Result<Dataset> MakeClusteredDataset(size_t n, uint64_t seed);

}  // namespace udm

#endif  // UDM_DATASET_SYNTHETIC_H_
