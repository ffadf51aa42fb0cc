#ifndef UDM_KDE_ERROR_KDE_H_
#define UDM_KDE_ERROR_KDE_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "error/error_model.h"
#include "kde/eval.h"
#include "kde/summand_density.h"

namespace udm {

/// The paper's error-based kernel density estimate (§2, Eqs. 3-4): each
/// training point contributes a Gaussian bump whose width along dimension j
/// is inflated by that point's error ψ_j(X_i),
///
///   f_Q(x) = (1/N) · Σ_i Π_j Q'_{h_j}(x_j − X_ij, ψ_j(X_i)).
///
/// With an all-zero error model this reduces exactly to the standard
/// Gaussian product KDE of Eq. 2 — the paper's "no error adjustment"
/// comparator, and the `kde` kind of `udm_serve`.
///
/// Exact point-level evaluation is O(N·|S|) per query; with the spatial
/// index (DensityEvalOptions::index, built by default at this fit size)
/// whole grid cells are skipped when their best-case contribution cannot
/// survive the pruning gap — sub-linear in practice, bit-identical always.
/// Fit builds the summand table; every evaluation runs in the shared
/// evaluator (kde/summand_density.h). The scalable micro-cluster surrogate
/// lives in microcluster/mc_density.h.
class ErrorKernelDensity {
 public:
  /// Fits the estimator over `data` with the per-entry errors ψ. The error
  /// model must have the same shape as the data. Shared tuning knobs —
  /// bandwidth pipeline, normalization, pruning gap, index build — come
  /// from DensityEvalOptions (kde/eval.h).
  static Result<ErrorKernelDensity> Fit(const Dataset& data,
                                        const ErrorModel& errors,
                                        const DensityEvalOptions& options = {});

  /// Density at `x` over all dimensions.
  double Evaluate(std::span<const double> x) const;

  /// Density at `x` over the subspace `dims` (g(x, S, D) of §3).
  double EvaluateSubspace(std::span<const double> x,
                          std::span<const size_t> dims) const;

  /// log of EvaluateSubspace, computed with log-sum-exp so that
  /// high-dimensional subspaces and far-tail queries do not underflow.
  /// Returns -infinity only if every per-point term underflows log-space
  /// (practically impossible for Gaussian kernels with finite inputs).
  double LogEvaluateSubspace(std::span<const double> x,
                             std::span<const size_t> dims) const;

  /// Batch evaluation behind the unified EvalRequest API (kde/eval.h):
  /// densities — or log-densities with request.log_space — for every
  /// query point, optionally parallel and under an ExecContext.
  /// request.index selects the spatial-index policy; every mode returns
  /// bit-identical densities (and pruned_terms) at any thread count, the
  /// index only skips work the pruning gap proves irrelevant.
  Result<EvalResult> Evaluate(const EvalRequest& request) const;

  /// Per-dimension bandwidths h_j (Silverman by default).
  const std::vector<double>& bandwidths() const { return bandwidths_; }

  size_t num_points() const { return engine_.num_points(); }
  size_t num_dims() const { return engine_.num_dims(); }

  /// Whether Fit built a spatial index (IndexMode::kForce succeeds).
  bool has_index() const { return engine_.has_index(); }
  /// Occupied index cells (0 without an index) — serving observability.
  size_t index_cells() const { return engine_.index_cells(); }

 private:
  ErrorKernelDensity(std::vector<double> bandwidths,
                     kde_internal::SummandDensity engine)
      : bandwidths_(std::move(bandwidths)), engine_(std::move(engine)) {}

  std::vector<double> bandwidths_;
  /// The summand table over the training points (seed 0, divisor N).
  kde_internal::SummandDensity engine_;
};

}  // namespace udm

#endif  // UDM_KDE_ERROR_KDE_H_
