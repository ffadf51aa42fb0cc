#ifndef UDM_KDE_SUMMAND_DENSITY_H_
#define UDM_KDE_SUMMAND_DENSITY_H_

/// The one density evaluator behind every estimator (DESIGN.md §4f). The
/// paper's densities are all one weighted sum over a table of summands,
///
///   f(x) = (1/divisor) · Σ_i exp(seed_i + Σ_{j∈S} log Q'(x_j − c_ij, ψ_ij)),
///
/// where Eq. 4 (error KDE) takes the training points with seed 0 and
/// divisor N, Eq. 10 (micro-clusters) takes the pseudo-points with seed
/// log(n(C)/N) and divisor 1, and Eq. 2 (plain KDE) is Eq. 4 with ψ ≡ 0.
/// ErrorKernelDensity and McDensityModel are fit-time adapters that build
/// the table and then forward every evaluation here. Internal to the
/// density estimators; callers use the model entry points.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "common/scratch.h"
#include "kde/eval.h"
#include "kde/kernel_table.h"
#include "kde/simd_sweep.h"
#include "kde/spatial_index.h"

namespace udm::kde_internal {

/// Rejects the shared knobs no estimator can fit with (non-positive
/// bandwidth scale/floor, non-positive or NaN pruning gap); `who` prefixes
/// the message.
Status ValidateDensityOptions(const DensityEvalOptions& options,
                              const char* who);

class SummandDensity {
 public:
  /// Takes ownership of the summand table and the optional per-summand
  /// `log_seed` (empty = every seed is 0). `divisor` normalizes the sum.
  /// Builds the spatial index when options.index asks for one and re-packs
  /// table and seed into its cell order (see permutation()).
  SummandDensity(ErrorKernelTable table, std::vector<double> log_seed,
                 double divisor, std::span<const double> bandwidths,
                 const DensityEvalOptions& options);

  /// One density (log_space: log-density) at `x` over `dims`: the public
  /// per-point entry points. Runs the indexed routine when the model has
  /// an index, else the dense routine as a tile of 1, against an unbounded
  /// context and this thread's scratch — no clock reads, spans or heap
  /// allocations in steady state. x.size() must equal num_dims().
  double EvaluatePoint(std::span<const double> x, std::span<const size_t> dims,
                       bool log_space) const;

  /// log-density at `x` over every singleton subspace: out[j] is
  /// EvaluatePoint(x, {j}, true) bit for bit. Without an index each
  /// dimension is one sweep, one MaxTerm and one pruned exp-and-sum over
  /// the whole table through the dense routine's own helpers, and the
  /// kde.* counters are touched once per call; with an index it runs
  /// EvaluatePoint per dimension. x and out must have num_dims() entries.
  void LogEvaluateSingletons(std::span<const double> x,
                             std::span<double> out) const;

  /// The EvalRequest driver (kde/eval.h): index-mode resolution, the
  /// adaptive bypass probe, the tiled parallel batch, and EvalStats.
  /// `model_name` names the caller in kForce failures.
  Result<EvalResult> Evaluate(const EvalRequest& request,
                              const char* model_name) const;

  size_t num_points() const { return table_.num_points; }
  size_t num_dims() const { return table_.num_dims; }
  /// The identity subspace 0..num_dims()-1.
  std::span<const size_t> all_dims() const { return all_dims_; }

  /// The index's cell-contiguous summand order (perm[new] = original);
  /// empty without an index. Adapters gather any per-summand array they
  /// expose through it, so their accessors agree with the table order.
  std::span<const size_t> permutation() const {
    return index_.has_value() ? index_->permutation()
                              : std::span<const size_t>();
  }

  bool has_index() const { return index_.has_value(); }
  size_t index_cells() const {
    return index_.has_value() ? index_->num_cells() : 0;
  }

 private:
  /// Fills terms[0..len) with seed + Σ_dims log Q' for table positions
  /// [first, first+len): the one sweep core every routine shares.
  void SweepTerms(std::span<const double> x, std::span<const size_t> dims,
                  size_t first, size_t len, double* terms) const;

  /// Dense evaluation of a tile of `count` queries: chunk-outer,
  /// query-inner, so each kEvalChunk panel of the table is reused by every
  /// query in the tile while cache-resident. Each query's own arithmetic
  /// (chunk order, sweeps, max scan, exp-and-sum) is independent of the
  /// tile, so a tile of 1 returns the same bits.
  Status EvalTileDense(std::span<const double> points, size_t count,
                       std::span<const size_t> dims, bool log_space,
                       ExecContext& ctx, ScratchArena& scratch, double* out,
                       IndexedEvalCounters* counters) const;

  /// Pass 2 of the dense routine for one query's materialized terms
  /// [0, num_points()): the pruned exp-and-sum against their exact maximum
  /// `max_term`, shifted by it in log space (log-sum-exp) and unshifted in
  /// linear space, then finalized by the divisor. Adds the pruned-term
  /// count to `pruned`.
  double SumTerms(const double* terms, double max_term, bool log_space,
                  uint64_t& pruned) const;

  /// Cell-pruned evaluation of one query through IndexedPrunedSum;
  /// bit-identical to EvalTileDense. Requires an index.
  Status EvalIndexed(std::span<const double> x, std::span<const size_t> dims,
                     bool log_space, ExecContext& ctx, ScratchArena& scratch,
                     double* out, IndexedEvalCounters* counters) const;

  ErrorKernelTable table_;  // column-major summand table (§4f)
  std::vector<double> log_seed_;
  double divisor_;
  double log_divisor_;
  std::vector<size_t> all_dims_;  // cached identity subspace (0..d-1)
  double log_prune_threshold_;
  /// Kernel dispatch resolved from DensityEvalOptions::simd at fit time.
  const SimdDispatch* simd_;
  /// Cell-pruned spatial index over the re-packed table; absent below
  /// DensityIndexOptions::min_points or when disabled.
  std::optional<SpatialIndex> index_;
};

}  // namespace udm::kde_internal

#endif  // UDM_KDE_SUMMAND_DENSITY_H_
