#ifndef UDM_KDE_EVAL_H_
#define UDM_KDE_EVAL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/exec_context.h"
#include "common/simd.h"
#include "kde/kernel.h"

namespace udm {

/// Per-request control over the cell-pruned spatial index (DESIGN.md §4j).
/// The index is a value-level optimization: whichever mode is in effect,
/// densities, pruned-term counts, and kernel-eval determinism are
/// bit-identical to the non-indexed path, so the mode only changes how
/// much work is skipped, never what is returned.
enum class IndexMode {
  /// Use the index when the fitted model built one (the default). Large
  /// batches additionally probe their first query and bypass a
  /// non-pruning index in favor of the dense query-tiled path
  /// (kde_internal::ResolveBatchIndex, DESIGN.md §4k) — visible only in
  /// EvalStats' cell counters, never in the values.
  kAuto,
  /// Require the index; Evaluate fails with FailedPrecondition when the
  /// model has none (too few points, or disabled at fit time). For callers
  /// that budget on sub-linear evaluation.
  kForce,
  /// Never consult the index — the exact O(N·|S|) reference path.
  kOff,
};

/// Fit-time knobs for the cell-pruned spatial index built alongside the
/// kernel tables (kde/spatial_index.h). Defaults are safe for any data:
/// the grid keys on at most three well-spread dimensions, only
/// occupied cells are stored, and correctness never depends on the
/// partition (per-cell bounds are computed from the actual members).
struct DensityIndexOptions {
  /// Master switch; false skips the build entirely (models then behave as
  /// if IndexMode::kOff everywhere).
  bool enabled = true;
  /// Minimum summand count (training points / micro-clusters) before a
  /// build pays for itself; below it the model stores no index.
  size_t min_points = 512;
  /// Occupancy floor: the grid coarsens (halving per-dim resolution)
  /// until the mean summands per occupied cell reaches this. Governs the
  /// fixed O(cells·|S|) per-query bound pass — the price of the index on
  /// data where nothing prunes — keeping it a couple percent of one full
  /// sweep. Clustered data occupies far fewer cells than the floor allows
  /// and is unaffected; the floor only bites when summands spread evenly
  /// across the grid, exactly the workloads where fine cells cannot prune
  /// anyway.
  size_t min_mean_occupancy = 16;
};

/// Shared tuning knobs for every density estimator (ErrorKernelDensity
/// point-level, McDensityModel micro-cluster-level).
/// One struct instead of per-model option sprawl: the bandwidth pipeline,
/// the error-kernel normalization, the log-sum-exp pruning gap, and the
/// spatial-index build knobs are the same concepts everywhere.
struct DensityEvalOptions {
  KernelNormalization normalization = KernelNormalization::kPaper;
  /// Multiplier applied to the Silverman bandwidths.
  double bandwidth_scale = 1.0;
  /// Lower bound on each h_j (guards constant dimensions).
  double min_bandwidth = 1e-9;
  /// When true, the per-dimension σ fed to the bandwidth rule is
  /// error-corrected: σ_j² ← max(σ_j² − mean(ψ_j²), ε·σ_j²). The observed
  /// variance of error-prone data is the clean variance *plus* the mean
  /// squared error, so using it verbatim widens the kernels twice — once
  /// through h and once through ψ (Eq. 3). Deconvolving h restores the
  /// clean data's smoothing scale while ψ still carries each entry's own
  /// uncertainty. With zero errors this is a no-op, so the paper's
  /// comparators are unaffected; bench/ablation_bandwidth quantifies it.
  bool deconvolve_bandwidth = false;
  /// Pruning gap for the two-pass kernel sums, in both evaluation spaces:
  /// a per-point log-term more than this far below the maximum skips its
  /// exp() (its relative contribution is below exp(−gap) ≈ one ulp of the
  /// leading term at the default of 37). Pruning is applied to term
  /// *values*, never to timing, so results stay bit-identical across
  /// thread widths; the skipped count is surfaced as
  /// EvalStats::pruned_terms and the `kde.pruned_terms` metric. The same
  /// gap drives whole-cell pruning in the spatial index — this is what
  /// makes indexed evaluation sub-linear while staying bit-identical. Set
  /// to std::numeric_limits<double>::infinity() to disable pruning and
  /// recover the exact two-pass sums.
  double log_prune_threshold = 37.0;
  /// Spatial-index build knobs (see DensityIndexOptions).
  DensityIndexOptions index;
  /// Explicit SIMD level for the kernel sweeps and the vectorized exp
  /// pass (DESIGN.md §4k). kAuto follows the process default (the
  /// UDM_SIMD env var when set, else the best CPUID level); explicit
  /// levels clamp to what the host supports. The sweeps are bit-identical
  /// at every level; the exp-and-sum pass is within 1e-12 relative of the
  /// scalar std::exp reference with identical pruned-term counts. The
  /// resolved level is reported in EvalStats::simd.
  SimdRequest simd = SimdRequest::kAuto;
};

/// One batch of density queries against a fitted estimator — the single
/// evaluation entry point shared by ErrorKernelDensity and McDensityModel. Replaces the per-point overload sprawl (plain /
/// subspace / log / ExecContext variants) with one request struct; the
/// deprecated per-point ExecContext shims have been removed.
///
/// The request does not own its spans; they must outlive the call.
struct EvalRequest {
  /// Query points, row-major: points.size() == k * model.num_dims() for k
  /// queries. Each point is full-dimensional even when `subspace` narrows
  /// the evaluation (matching the g(x, S, D) primitive of §3).
  std::span<const double> points;
  /// Subspace S as indices into the model's dimensions; empty = all.
  std::span<const size_t> subspace;
  /// Deadline/cancellation/budget contract; null = unbounded. Charge and
  /// Check are thread-safe, so one context governs all workers.
  ExecContext* ctx = nullptr;
  /// Worker width: 0 or 1 = serial on the calling thread (default); N > 1
  /// = calling thread plus N-1 helpers from the shared pool. Results are
  /// bit-identical at any width.
  size_t threads = 0;
  /// When true, densities are returned in log space (log-sum-exp path,
  /// stable for high-dimensional subspaces and far-tail queries).
  bool log_space = false;
  /// Spatial-index policy for this request (values are index-invariant;
  /// only ExecContext charging differs, since skipped cells charge no
  /// kernel evaluations).
  IndexMode index = IndexMode::kAuto;
};

/// Work accounting for one EvalRequest.
struct EvalStats {
  size_t points_requested = 0;
  size_t points_evaluated = 0;
  /// Kernel evaluations charged to the context by this call. Exact when
  /// the context is dedicated to the call; an upper bound if other
  /// operations charge the same context concurrently. With the spatial
  /// index active, only visited cells charge, so this is how much work
  /// was actually done, not N·|S|.
  uint64_t kernel_evals = 0;
  /// Resolved width (requested threads clamped to the available work).
  size_t threads_used = 1;
  double wall_seconds = 0.0;
  /// Terms whose exp() was skipped by the gap test, in either evaluation
  /// space (estimators with a finite log_prune_threshold; see
  /// DensityEvalOptions). Counts terms in
  /// index-skipped cells too, so the value is identical under every
  /// IndexMode. Mirrors the `kde.pruned_terms` metric. Like kernel_evals,
  /// an upper bound on a partial-prefix stop: chunks past the prefix may
  /// have executed.
  uint64_t pruned_terms = 0;
  /// Spatial-index cells whose points were swept / skipped wholesale by
  /// the cell bound, summed over the batch's queries (0 when no index was
  /// consulted). Mirror the `kde.cells_visited`/`kde.cells_pruned`
  /// metrics.
  uint64_t cells_visited = 0;
  uint64_t cells_pruned = 0;
  /// The SIMD dispatch level the model's kernels executed at (resolved
  /// from DensityEvalOptions::simd / UDM_SIMD / CPUID at fit time).
  SimdLevel simd = SimdLevel::kScalar;
};

/// Densities (or log-densities) in request order. On a deadline or budget
/// stop, `densities` holds the completed prefix and `stop_cause` says
/// why it is short; cancellation and zero-progress stops surface as a
/// failed Result instead, so a returned EvalResult always carries at
/// least one density (unless the request itself was empty).
struct EvalResult {
  std::vector<double> densities;
  StopCause stop_cause = StopCause::kCompleted;
  EvalStats stats;

  bool complete() const { return stop_cause == StopCause::kCompleted; }
};

}  // namespace udm

#endif  // UDM_KDE_EVAL_H_
