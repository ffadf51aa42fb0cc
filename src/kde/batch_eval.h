#ifndef UDM_KDE_BATCH_EVAL_H_
#define UDM_KDE_BATCH_EVAL_H_

/// Chunking and query-tiling constants of the density evaluator
/// (kde/summand_density.h) and the spatial index's drivers. Internal to
/// the density estimators — callers use `Model::Evaluate(const
/// EvalRequest&)`.

#include <algorithm>
#include <cstddef>

namespace udm::kde_internal {

/// Summands (training points) per deadline/cancel check inside one
/// query's kernel sum: large enough to amortize the clock read, small
/// enough that a deadline is honored within a fraction of a millisecond
/// of kernel math. The column-major sweeps use the same constant as their
/// chunk length, so chunked budget charging and the sweep agree on chunk
/// size by construction. The spatial index's cell-pruned drivers sub-chunk
/// each *visited cell* at this granularity instead of the whole table —
/// cells are contiguous runs of the re-packed columns, so charging stays
/// cell-aligned and a skipped cell charges nothing.
inline constexpr size_t kEvalChunk = 256;

/// Kernel evaluations per scheduling chunk: balances the per-chunk
/// bookkeeping (one atomic claim + one context check) against load
/// balancing. Depends only on the model and request — never on the
/// thread count — so the partition, and therefore the output, is
/// identical at every width.
inline constexpr size_t kTargetKernelEvalsPerChunk = 4096;

inline size_t QueryChunkSize(size_t per_point_kernel_evals) {
  const size_t cost = std::max<size_t>(1, per_point_kernel_evals);
  return std::clamp<size_t>(kTargetKernelEvalsPerChunk / cost, 1, 64);
}

/// Query-tile blocking (DESIGN.md §4k): the dense (non-indexed) routine
/// evaluates up to this many queries against each column-major
/// ErrorKernelTable panel while it is cache-resident, instead of
/// streaming the whole table once per query. Tiling only reorders work
/// *across* queries — each query still runs the identical per-chunk sweep
/// sequence — so per-query results are bit-identical to tile size 1.
///
/// Each worker holds tile · model_points log terms (the indexed routine
/// holds model_points), so the tile is also a memory knob. Serving an
/// N = 4000 error KDE at hardware width, tile 4 peaked 4–6% above the
/// indexed daemon's RSS where tile 8 peaked 14–17% above it, and it
/// answered with a lower p50 in 4 of 4 runs; single-thread batches lose
/// 0–6% at N ≥ 1000 and ~14% on a 140-summand model. Capping the tile
/// here rather than through kQueryTileDoubleBudget keeps N ≥ 16k models
/// at tile 4: a budget small enough for tile 4 at N = 4000 leaves them
/// tile 1, at half the throughput.
inline constexpr size_t kMaxQueryTile = 4;

/// Cap on a worker's per-tile terms buffer (tile · model_points doubles ≤
/// 4 MiB), so tiling shrinks rather than blowing scratch on huge models.
inline constexpr size_t kQueryTileDoubleBudget = size_t{1} << 19;

/// The tile width for a model with `model_points` summands. Depends only
/// on the model — never on thread count or request — so the ParallelFor
/// partition stays width-invariant.
inline size_t QueryTileSize(size_t model_points) {
  if (model_points == 0) return 1;
  return std::clamp<size_t>(kQueryTileDoubleBudget / model_points, size_t{1},
                            kMaxQueryTile);
}

}  // namespace udm::kde_internal

#endif  // UDM_KDE_BATCH_EVAL_H_
