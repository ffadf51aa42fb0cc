#ifndef UDM_MICROCLUSTER_MC_DENSITY_H_
#define UDM_MICROCLUSTER_MC_DENSITY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "kde/eval.h"
#include "kde/summand_density.h"
#include "microcluster/microcluster.h"

namespace udm {

/// Scalable error-based density estimation from a micro-cluster summary
/// (paper §2.1, Eqs. 9-10): each cluster acts as one pseudo-point at its
/// centroid c(C) with error width Δ_j(C) (Lemma 1), weighted by its
/// population,
///
///   f_Q(x) = (1/N) · Σ_C n(C) · Π_j Q'_{h_j}(x_j − c_j(C), Δ_j(C)).
///
/// Evaluation is O(m·|S|) per query for m clusters — independent of the
/// data size N, which is the paper's scalability argument — and for large
/// summaries the same cell-pruned spatial index as the exact estimators
/// applies over the centroids (the per-cell max-variance bound absorbs
/// each cluster's Δ spread, and the per-cell max log-weight seeds the
/// bound, so radius-wide clusters cannot be pruned optimistically).
/// Bandwidths are Silverman over the *underlying data's* statistics,
/// recovered from the additive CF tuples, so no second pass over the data
/// is needed. Build makes the summand table; every evaluation runs in the
/// shared evaluator (kde/summand_density.h).
class McDensityModel {
 public:
  /// Builds the model from a summary. `clusters` must be non-empty with at
  /// least one member point overall; empty clusters are skipped. Shared
  /// tuning knobs come from DensityEvalOptions (kde/eval.h).
  static Result<McDensityModel> Build(std::span<const MicroCluster> clusters,
                                      const DensityEvalOptions& options = {});

  /// Density at `x` over all dimensions (Eq. 10).
  double Evaluate(std::span<const double> x) const;

  /// Density at `x` over the subspace `dims` — the g(x, S, D) primitive the
  /// classifier computes per candidate subspace (§3).
  double EvaluateSubspace(std::span<const double> x,
                          std::span<const size_t> dims) const;

  /// log of EvaluateSubspace via log-sum-exp (stable in high dimensions).
  double LogEvaluateSubspace(std::span<const double> x,
                             std::span<const size_t> dims) const;

  /// LogEvaluateSubspace(x, {j}) for every dimension j, into out[j], bit
  /// for bit — one pass over the table per dimension with the kde.*
  /// counters touched once per call (kde/summand_density.h). The
  /// classifier's singleton level reads its k+1 models this way. x and
  /// out must have num_dims() entries.
  void LogEvaluateSingletons(std::span<const double> x,
                             std::span<double> out) const;

  /// Batch evaluation behind the unified EvalRequest API (kde/eval.h):
  /// densities — or log-densities with request.log_space — for every
  /// query point, optionally parallel and under an ExecContext.
  /// request.index selects the spatial-index policy; every mode returns
  /// bit-identical densities at any thread count.
  Result<EvalResult> Evaluate(const EvalRequest& request) const;

  /// Number of pseudo-points m (non-empty clusters).
  size_t num_clusters() const { return weights_.size(); }

  /// Total underlying data count N = Σ n(C).
  uint64_t total_count() const { return total_count_; }

  size_t num_dims() const { return engine_.num_dims(); }

  /// Per-dimension Silverman bandwidths recovered from the summary.
  const std::vector<double>& bandwidths() const { return bandwidths_; }

  /// Per-cluster weights n(C)/N. When a spatial index was built they are
  /// stored in its cell-contiguous order, not in Build input order.
  std::span<const double> weights() const { return weights_; }

  /// Whether Build built a spatial index (IndexMode::kForce succeeds).
  bool has_index() const { return engine_.has_index(); }
  /// Occupied index cells (0 without an index) — serving observability.
  size_t index_cells() const { return engine_.index_cells(); }

 private:
  McDensityModel(std::vector<double> weights, uint64_t total_count,
                 std::vector<double> bandwidths,
                 kde_internal::SummandDensity engine)
      : weights_(std::move(weights)),
        total_count_(total_count),
        bandwidths_(std::move(bandwidths)),
        engine_(std::move(engine)) {}

  std::vector<double> weights_;    // n(C)/N per cluster
  uint64_t total_count_;
  std::vector<double> bandwidths_;
  /// The summand table over (centroid, Δ) pseudo-points, seeded with
  /// log(n(C)/N) and divisor 1 — the weights are already normalized.
  kde_internal::SummandDensity engine_;
};

}  // namespace udm

#endif  // UDM_MICROCLUSTER_MC_DENSITY_H_
