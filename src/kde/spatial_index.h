#ifndef UDM_KDE_SPATIAL_INDEX_H_
#define UDM_KDE_SPATIAL_INDEX_H_

/// Cell-pruned spatial index for sub-linear density evaluation
/// (DESIGN.md §4j). A regular grid over the training summands, keyed on
/// the few best-spread dimensions, with per-(cell, dim) AABBs and bounds
/// on the log-kernel coefficients. At query time each cell's best-case
/// contribution is bounded from the query's distance to the cell AABB;
/// cells that provably cannot survive the existing per-term prune are
/// skipped wholesale, and surviving cells fall through to the same
/// column-major sweeps as the non-indexed path — over the same
/// (cell-contiguously re-packed) tables, so results are bit-identical
/// under every IndexMode.
///
/// Internal to the density estimators; callers steer it per request via
/// EvalRequest::index and per model via DensityEvalOptions::index.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/math_util.h"
#include "common/result.h"
#include "common/scratch.h"
#include "kde/batch_eval.h"
#include "kde/eval.h"
#include "kde/eval_obs.h"
#include "kde/kernel_table.h"
#include "kde/simd_sweep.h"

namespace udm::kde_internal {

/// Safety margin (in nats) added on top of the pruning gap before a cell
/// is skipped. The per-cell bound and the per-term log-kernel values are
/// computed with different floating-point operation orders, so "bound ≥
/// every member term" holds exactly only in real arithmetic; the slack
/// absorbs the rounding difference (≲ d·ε·|term| ≈ 1e-13 for any term
/// near the running max, the only terms a skip decision can affect).
/// Pruning strictly less than the ideal bound costs nothing but a few
/// extra visited cells.
inline constexpr double kCellBoundSlack = 1e-6;

/// Per-query work accounting filled by the indexed evaluation drivers.
struct IndexedEvalCounters {
  uint64_t cells_visited = 0;
  uint64_t cells_pruned = 0;
  uint64_t pruned_terms = 0;
};

/// The index proper: grid key dims, occupied-cell ranges over the
/// re-packed summand order, and per-(cell, dim) bound tables.
class SpatialIndex {
 public:
  /// Builds the grid over the summand table: its value columns place the
  /// summands and its per-entry log-kernel coefficients feed the per-cell
  /// bounds. `log_seed`, when non-empty (size num_points), is each
  /// summand's additive log-space seed (log micro-cluster weight); per-cell
  /// maxima of it fold into the bounds. `bandwidths` size the cells.
  ///
  /// The build chooses a deterministic cell-contiguous re-packing of the
  /// summands, exposed as permutation(); the caller must gather every
  /// per-summand array it evaluates with through that permutation so the
  /// indexed and non-indexed paths iterate identical memory.
  static SpatialIndex Build(const ErrorKernelTable& table,
                            std::span<const double> bandwidths,
                            std::span<const double> log_seed,
                            const DensityIndexOptions& options);

  size_t num_points() const { return perm_.size(); }
  size_t num_dims() const { return num_dims_; }
  size_t num_cells() const { return cell_begin_.empty() ? 0 : cell_begin_.size() - 1; }

  /// perm[new_position] = original index. Cell c owns re-packed positions
  /// [cell_begin(c), cell_end(c)).
  std::span<const size_t> permutation() const { return perm_; }
  size_t cell_begin(size_t c) const { return cell_begin_[c]; }
  size_t cell_end(size_t c) const { return cell_begin_[c + 1]; }

  /// Fills bounds[c] with an upper bound on any member summand's log
  /// contribution over `dims`:
  ///
  ///   bounds[c] = max_seed[c] + Σ_{j∈dims} dmin_j(x)²·a_max[c,j] + b_max[c,j]
  ///
  /// where dmin_j is the distance from x_j to the cell's [lo, hi] along j
  /// (0 inside) and a_max/b_max are the per-cell maxima of the log-kernel
  /// coefficients (a_max is the max-variance bound: a = −1/(2(h²+ψ²)) < 0,
  /// so the widest member kernel decays slowest and dominates). NaN query
  /// coordinates yield NaN bounds, which never satisfy a skip test, so
  /// NaN queries degrade to visiting every cell — exactly the baseline.
  void ComputeCellBounds(std::span<const double> x,
                         std::span<const size_t> dims,
                         std::span<double> bounds) const;

 private:
  size_t num_dims_ = 0;
  std::vector<size_t> perm_;        // new position -> original index
  std::vector<size_t> cell_begin_;  // size num_cells()+1, re-packed offsets
  // Per-(cell, dim) tables, column-major: entry (c, j) at [j*C + c].
  std::vector<double> lo_;
  std::vector<double> hi_;
  std::vector<double> a_max_;  // max −1/(2·var) over the cell
  std::vector<double> b_max_;  // max −log(√2π·s) over the cell
  std::vector<double> max_seed_;  // per-cell max log_seed (zeros if none)
};

/// Gathers a per-summand array into a permutation's order (out[i] =
/// in[perm[i]]), for re-packing model storage after Build.
std::vector<double> Gather(std::span<const double> values,
                           std::span<const size_t> perm);

/// Resolves a request's IndexMode against the model's (optional) index:
/// nullptr = run the non-indexed path. kForce against an index-less model
/// is the caller asking for a guarantee the model cannot give — fail loud
/// rather than silently going linear.
inline Result<const SpatialIndex*> ResolveIndexMode(
    const std::optional<SpatialIndex>& index, IndexMode mode,
    const char* model_name) {
  if (mode == IndexMode::kOff) return static_cast<const SpatialIndex*>(nullptr);
  if (index.has_value()) return &*index;
  if (mode == IndexMode::kForce) {
    return Status::FailedPrecondition(
        std::string(model_name) +
        ": IndexMode::kForce, but the model built no spatial index "
        "(too few points, or disabled at fit time)");
  }
  return static_cast<const SpatialIndex*>(nullptr);
}

/// Whether a model with `num_points` summands should build an index.
inline bool ShouldBuildIndex(const DensityIndexOptions& options,
                             size_t num_points) {
  return options.enabled && num_points >= options.min_points;
}

/// Batches below this many queries skip the adaptive-bypass probe: with
/// at most ~one tile of queries, the dense path's panel reuse has little
/// to amortize and the probe would be a measurable fraction of the batch.
inline constexpr size_t kIndexBypassMinQueries = 2 * kMaxQueryTile;

/// Largest share of the batch's N·|S| kernel terms the probe query may
/// sweep for a kAuto batch to stay on the index. The per-query indexed
/// routine pays a higher price per swept term than the dense tiled routine
/// (no panel reuse across queries, plus the cell-bound pass), so the index
/// wins only while it sweeps less than 1/R of the terms, R being that
/// per-term cost ratio. bench/index_speedup measures it from the index's
/// speedup s over kOff at swept share e (R = 1/(s·e)): clustered N=1000
/// sweeps 0.290 at s ≈ 0.78 (R ≈ 4.4), clustered N=4000 sweeps 0.072 at
/// s ≈ 3.3–3.6 (R ≈ 3.9–4.2), so break-even sits near 1/4. The share of
/// *cells* pruned is no proxy: the cells that prune are the sparse ones,
/// and an index that skips three quarters of its cells can still sweep
/// three quarters of the terms (the serve regime: adult-like, uniform
/// ψ = 0.25).
inline constexpr double kIndexMaxSweptTermShare = 0.25;

/// Adaptive kAuto bypass for batch evaluation (DESIGN.md §4k). Query-tile
/// blocking lets the dense path sweep each cache-resident table panel for
/// a whole tile of queries, an economy the per-query indexed path cannot
/// share — so where the index skips too few terms, kAuto would silently
/// pay more per term for its bit-identical answer. Large kAuto batches
/// therefore probe their first query through the index (a throwaway
/// evaluation against an unbounded context) and drop to the dense tiled
/// path when it swept more than kIndexMaxSweptTermShare of the terms. Both
/// paths return identical bits and identical pruned-term counts by
/// construction, so the switch is observable only in EvalStats' cell
/// counters (zero when the batch bypassed), the kde.index.bypassed_batches
/// counter, the `indexed` attribute of the kde.eval_batch span, and in how
/// fast the answer arrives. kForce never bypasses — it is the caller's
/// explicit demand for the indexed path.
///
/// `probe(x, dims)` must run one indexed evaluation of query `x` over
/// `dims` and return the kernel evaluations it spent (swept summands ×
/// |dims|). The decision depends only on the model and the batch's first
/// query, never on thread count or timing, so results stay deterministic
/// at any width.
template <typename ProbeFn>
const SpatialIndex* ResolveBatchIndex(const SpatialIndex* index,
                                      const EvalRequest& request,
                                      size_t num_dims, size_t dense_tile,
                                      std::span<const size_t> all_dims,
                                      ProbeFn&& probe) {
  if (index == nullptr || request.index != IndexMode::kAuto) return index;
  if (dense_tile <= 1) return index;  // dense has no tiling edge to win
  if (num_dims == 0 || request.points.size() < num_dims) return index;
  if (request.points.size() / num_dims < kIndexBypassMinQueries) return index;
  const std::span<const size_t> dims =
      request.subspace.empty() ? all_dims : request.subspace;
  for (const size_t dim : dims) {
    if (dim >= num_dims) return index;  // let the batch driver fail loudly
  }
  const double all_terms =
      static_cast<double>(index->num_points() * dims.size());
  if (all_terms == 0.0) return index;
  const uint64_t swept = probe(request.points.subspan(0, num_dims), dims);
  if (static_cast<double>(swept) <= kIndexMaxSweptTermShare * all_terms) {
    return index;
  }
  BypassedBatchesCounter().Increment();
  return nullptr;
}

/// Index-accelerated pruned kernel sum over the re-packed summands, in
/// either accumulation space: returns log Σ_i exp(term_i) (`log_space`)
/// or Σ_i exp(term_i), with the same two-pass semantics — and the same
/// bits, pruned-term count included — as materializing every term and
/// running one pruned exp-and-sum over them (the dense routine of
/// kde/summand_density.h). Both
/// spaces share one pruning rule (terms more than `log_prune_gap` below
/// the exact maximum are skipped), which is what lets the index skip
/// whole cells in linear space too.
///
/// `sweep(first, len, out)` must fill out[0..len) with the log terms
/// (seed included) of re-packed summands [first, first+len).
///
/// Pass 1 visits the argmax-bound cell first (best running max before any
/// decision), then every cell whose bound the running max cannot prune;
/// a skipped cell's terms all sit > gap below the final max (see the
/// bound derivation, DESIGN.md §4j), so the exact maximum and the pass-2
/// add sequence match the baseline term for term. Skipped cells
/// charge no kernel evaluations. Consecutive surviving cells are swept as
/// one merged range, so per-chunk costs (context charge/check, the
/// kernel-eval counter) amortize over kEvalChunk summands even when the
/// grid is fine and cells hold only a handful of members; when nothing
/// prunes, the whole table is one run and pass 1 degenerates to the
/// baseline sweep plus the O(cells) bound pass.
/// `simd` is the model's resolved kernel dispatch: the merged-run sweeps
/// run through the caller's `sweep` callback (which must use the same
/// dispatch), and pass 2 runs through simd.pruned_exp_accum with one
/// resumable ExpSumState across all visited cells, each run passing its
/// first position as the global offset — every term lands in its stripe
/// in term order regardless of how the cells partition the table, so the
/// result is bit-identical to the non-indexed path at the same level.
template <typename SweepFn>
Result<double> IndexedPrunedSum(const SpatialIndex& index,
                                std::span<const double> x,
                                std::span<const size_t> dims,
                                double log_prune_gap, bool log_space,
                                const SimdDispatch& simd, ExecContext& ctx,
                                ScratchArena& scratch, SweepFn&& sweep,
                                IndexedEvalCounters& counters) {
  const size_t num_cells = index.num_cells();
  std::span<double> terms =
      scratch.Doubles(ScratchArena::kLogTerms, index.num_points());
  std::span<double> bounds =
      scratch.Doubles(ScratchArena::kCellBounds, num_cells);
  std::span<double> visited =
      scratch.Doubles(ScratchArena::kCellFlags, num_cells);
  index.ComputeCellBounds(x, dims, bounds);

  double run_max = -std::numeric_limits<double>::infinity();
  // Sweeps re-packed positions [first, last) chunked, folding the terms
  // into the running max. Ranges span whole runs of surviving cells.
  const auto sweep_range = [&](size_t first, size_t last) -> Status {
    for (; first < last; first += kEvalChunk) {
      const size_t len = std::min(last - first, kEvalChunk);
      Status charge = ctx.ChargeKernelEvals(len * dims.size());
      if (!charge.ok()) return CountEvalTrip(std::move(charge));
      KernelEvalCounter().Increment(len * dims.size());
      double* out = terms.data() + first;
      sweep(first, len, out);
      run_max = simd.max_term(out, len, run_max);
      Status check = ctx.Check();
      if (!check.ok()) return CountEvalTrip(std::move(check));
    }
    return Status::OK();
  };

  size_t seed_cell = 0;
  for (size_t c = 1; c < num_cells; ++c) {
    if (bounds[c] > bounds[seed_cell]) seed_cell = c;
  }
  visited[seed_cell] = 1.0;
  ++counters.cells_visited;
  UDM_RETURN_IF_ERROR(
      sweep_range(index.cell_begin(seed_cell), index.cell_end(seed_cell)));

  // Scan cells in order, batching consecutive survivors into one run and
  // sweeping it when a skip (or the seed, or the end) breaks the chain.
  // Cells classified while a run is open test against the running max
  // from before that run — a weaker, never-wrong prune; which cells the
  // final sum and pruned-term count include is unaffected (any pass-1
  // skip is also a per-term prune against the final max).
  constexpr size_t kNoRun = std::numeric_limits<size_t>::max();
  size_t run_begin = kNoRun;
  const auto flush_run = [&](size_t run_end) -> Status {
    if (run_begin == kNoRun) return Status::OK();
    const size_t first = run_begin;
    run_begin = kNoRun;
    return sweep_range(first, run_end);
  };
  for (size_t c = 0; c < num_cells; ++c) {
    if (c == seed_cell) {
      UDM_RETURN_IF_ERROR(flush_run(index.cell_begin(c)));
      continue;
    }
    if (run_max - bounds[c] > log_prune_gap + kCellBoundSlack) {
      UDM_RETURN_IF_ERROR(flush_run(index.cell_begin(c)));
      visited[c] = 0.0;
      ++counters.cells_pruned;
      continue;
    }
    visited[c] = 1.0;
    ++counters.cells_visited;
    if (run_begin == kNoRun) run_begin = index.cell_begin(c);
  }
  UDM_RETURN_IF_ERROR(flush_run(index.num_points()));
  // A skipped cell's terms are all strictly below the running max, so the
  // max over visited terms IS the max over all terms — same check, same
  // degenerate result, as the non-indexed path.
  if (!std::isfinite(run_max)) {
    return log_space ? -std::numeric_limits<double>::infinity() : 0.0;
  }
  ExpSumState state;
  const double shift = log_space ? run_max : 0.0;
  for (size_t c = 0; c < num_cells; ++c) {
    const size_t begin = index.cell_begin(c);
    const size_t end = index.cell_end(c);
    if (visited[c] == 0.0) {
      // Every member would have been pruned by the per-term test too;
      // count them so pruned_terms is IndexMode-invariant.
      state.pruned += end - begin;
      continue;
    }
    simd.pruned_exp_accum(terms.data() + begin, end - begin, begin, run_max,
                          shift, log_prune_gap, state);
  }
  counters.pruned_terms += state.pruned;
  return log_space ? run_max + std::log(state.Total())
                   : state.Total();
}

}  // namespace udm::kde_internal

#endif  // UDM_KDE_SPATIAL_INDEX_H_
