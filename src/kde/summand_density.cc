#include "kde/summand_density.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/parallel.h"
#include "common/stopwatch.h"
#include "kde/batch_eval.h"
#include "kde/eval_obs.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace udm::kde_internal {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Runs `tile_fn(points, count, dims, ctx, arena, out) -> Status` over
/// every query of `request`, `dense_tile` queries at a time, or one at a
/// time when the batch runs on the per-query `indexed` routine (`points`
/// is count·model_dims doubles, `out` receives count densities). The
/// kde.eval_batch span records which routine ran. Tiles never
/// straddle scheduling chunks: the chunk size is rounded up to a tile
/// multiple, and both depend only on the model and request, so results
/// stay bit-identical at every thread width. `model_points` is the
/// per-query summand count, used only to size chunks. The arena is the
/// executing worker's ScratchArena, fetched once per chunk, so per-query
/// working memory is reused across every tile a thread processes.
///
/// Records one `kde.eval.seconds` sample per call that reaches the loop.
///
/// Outcome mapping (the partial-result contract):
///   * completed                      -> EvalResult, kCompleted;
///   * deadline/budget, >=1 point    -> EvalResult prefix, stop_cause set;
///   * deadline/budget, 0 points     -> that Status;
///   * cancellation or any other     -> that Status (never partial).
template <typename TileFn>
Result<EvalResult> BatchEvaluateTiles(const EvalRequest& request,
                                      size_t model_dims, size_t model_points,
                                      bool indexed, size_t dense_tile,
                                      TileFn&& tile_fn) {
  if (model_dims == 0) {
    return Status::InvalidArgument("BatchEvaluate: model has no dimensions");
  }
  if (request.points.size() % model_dims != 0) {
    return Status::InvalidArgument(
        "BatchEvaluate: points.size() = " +
        std::to_string(request.points.size()) +
        " is not a multiple of the model dimensionality " +
        std::to_string(model_dims));
  }
  for (size_t dim : request.subspace) {
    if (dim >= model_dims) {
      return Status::InvalidArgument(
          "BatchEvaluate: subspace index " + std::to_string(dim) +
          " out of range for " + std::to_string(model_dims) + " dimensions");
    }
  }

  const Stopwatch timer;
  ExecContext unbounded;
  ExecContext& ctx = request.ctx != nullptr ? *request.ctx : unbounded;
  // Stitch this batch (and every chunk below) to the originating request:
  // the scope installs the ExecContext's trace id on the calling thread
  // before the batch-level span opens.
  obs::TraceIdScope trace_scope(ctx.trace_id());
  obs::TraceSpan span("kde.eval_batch");
  const size_t num_queries = request.points.size() / model_dims;

  std::vector<size_t> all_dims;
  std::span<const size_t> dims = request.subspace;
  if (dims.empty()) {
    all_dims.resize(model_dims);
    std::iota(all_dims.begin(), all_dims.end(), size_t{0});
    dims = all_dims;
  }

  const uint64_t kernel_evals_before = ctx.kernel_evals_spent();

  EvalResult out;
  out.densities.assign(num_queries, 0.0);

  const size_t tile = indexed ? 1 : std::max<size_t>(1, dense_tile);
  ParallelForOptions options;
  options.threads = request.threads;
  const size_t base_chunk = QueryChunkSize(model_points * dims.size());
  options.chunk_size =
      ((std::max(base_chunk, tile) + tile - 1) / tile) * tile;
  options.ctx = &ctx;
  const ParallelForResult loop = ParallelFor(
      num_queries, options,
      [&](size_t begin, size_t end, size_t /*chunk_index*/) -> Status {
        // Pool workers joining the batch carry no thread-local request
        // binding; re-install it per chunk so chunk spans stitch to the
        // same trace id as the batch span.
        obs::TraceIdScope chunk_scope(ctx.trace_id());
        obs::TraceSpan chunk_span("kde.eval_chunk");
        ScratchArena& arena = ScratchArena::ThreadLocal();
        for (size_t i = begin; i < end;) {
          const size_t count = std::min(tile, end - i);
          const Status status = tile_fn(
              request.points.subspan(i * model_dims, count * model_dims),
              count, dims, ctx, arena, out.densities.data() + i);
          if (!status.ok()) return status;
          i += count;
        }
        return Status::OK();
      });
  const double seconds = timer.ElapsedSeconds();
  static obs::Histogram& eval_seconds =
      obs::MetricsRegistry::Global().GetHistogram("kde.eval.seconds");
  eval_seconds.Record(seconds);

  if (!loop.ok()) {
    const StatusCode code = loop.status.code();
    const bool partial_eligible = code == StatusCode::kDeadlineExceeded ||
                                  code == StatusCode::kResourceExhausted;
    if (!partial_eligible || loop.items_completed == 0) return loop.status;
    out.densities.resize(loop.items_completed);
    out.stop_cause = code == StatusCode::kDeadlineExceeded
                         ? StopCause::kDeadline
                         : StopCause::kBudget;
  }

  out.stats.points_requested = num_queries;
  out.stats.points_evaluated = out.densities.size();
  out.stats.kernel_evals = ctx.kernel_evals_spent() - kernel_evals_before;
  out.stats.threads_used = loop.threads_used;
  out.stats.wall_seconds = seconds;
  span.AddAttribute("points", static_cast<uint64_t>(num_queries));
  span.AddAttribute("threads",
                    static_cast<uint64_t>(out.stats.threads_used));
  span.AddAttribute("indexed", static_cast<uint64_t>(indexed ? 1 : 0));
  return out;
}

}  // namespace

Status ValidateDensityOptions(const DensityEvalOptions& options,
                              const char* who) {
  if (options.bandwidth_scale <= 0.0 || options.min_bandwidth <= 0.0) {
    return Status::InvalidArgument(std::string(who) +
                                   ": bandwidth knobs must be positive");
  }
  if (std::isnan(options.log_prune_threshold) ||
      options.log_prune_threshold <= 0.0) {
    return Status::InvalidArgument(
        std::string(who) + ": log_prune_threshold must be positive");
  }
  return Status::OK();
}

SummandDensity::SummandDensity(ErrorKernelTable table,
                               std::vector<double> log_seed, double divisor,
                               std::span<const double> bandwidths,
                               const DensityEvalOptions& options)
    : table_(std::move(table)),
      log_seed_(std::move(log_seed)),
      divisor_(divisor),
      log_divisor_(std::log(divisor)),
      all_dims_(table_.num_dims),
      log_prune_threshold_(options.log_prune_threshold),
      simd_(&GetSimdDispatch(EffectiveSimdLevel(options.simd))) {
  std::iota(all_dims_.begin(), all_dims_.end(), size_t{0});
  if (ShouldBuildIndex(options.index, table_.num_points)) {
    // The seed folds into the cell bounds, so a heavy summand can never be
    // pruned by a bound that only saw its geometry.
    index_ = SpatialIndex::Build(table_, bandwidths, log_seed_, options.index);
    // Re-pack cell-contiguously so the indexed and dense routines sweep the
    // same memory in the same order (bit-identity, DESIGN.md §4j).
    table_.Permute(index_->permutation());
    if (!log_seed_.empty()) {
      log_seed_ = Gather(log_seed_, index_->permutation());
    }
  }
}

double SummandDensity::EvaluatePoint(std::span<const double> x,
                                     std::span<const size_t> dims,
                                     bool log_space) const {
  UDM_CHECK(x.size() == num_dims()) << "density query: point dimension";
  ExecContext unbounded;
  ScratchArena& scratch = ScratchArena::ThreadLocal();
  double out = 0.0;
  const Status status =
      index_.has_value()
          ? EvalIndexed(x, dims, log_space, unbounded, scratch, &out, nullptr)
          : EvalTileDense(x, 1, dims, log_space, unbounded, scratch, &out,
                          nullptr);
  UDM_CHECK(status.ok()) << status.ToString();
  return out;
}

Result<EvalResult> SummandDensity::Evaluate(const EvalRequest& request,
                                            const char* model_name) const {
  UDM_ASSIGN_OR_RETURN(const SpatialIndex* index,
                       ResolveIndexMode(index_, request.index, model_name));
  const bool log_space = request.log_space;
  // The indexed routine prunes per query, so it cannot share panels; the
  // dense routine tiles queries against each cache-resident table panel.
  // Large kAuto batches probe whether the index actually prunes and fall
  // back to the dense tiled routine (bit-identical) when it does not.
  const size_t dense_tile = QueryTileSize(num_points());
  index = ResolveBatchIndex(
      index, request, num_dims(), dense_tile, all_dims_,
      [&](std::span<const double> x, std::span<const size_t> dims) {
        ExecContext unbounded;
        double ignored = 0.0;
        (void)EvalIndexed(x, dims, log_space, unbounded,
                          ScratchArena::ThreadLocal(), &ignored, nullptr);
        return unbounded.kernel_evals_spent();
      });
  std::atomic<uint64_t> pruned_total{0};
  std::atomic<uint64_t> cells_visited_total{0};
  std::atomic<uint64_t> cells_pruned_total{0};
  Result<EvalResult> result = BatchEvaluateTiles(
      request, num_dims(), num_points(), index != nullptr, dense_tile,
      [&](std::span<const double> points, size_t count,
          std::span<const size_t> dims, ExecContext& ctx,
          ScratchArena& scratch, double* out) -> Status {
        IndexedEvalCounters counters;
        Status status;
        if (index == nullptr) {
          status = EvalTileDense(points, count, dims, log_space, ctx, scratch,
                                 out, &counters);
        } else {
          for (size_t q = 0; q < count && status.ok(); ++q) {
            status = EvalIndexed(points.subspan(q * num_dims(), num_dims()),
                                 dims, log_space, ctx, scratch, out + q,
                                 &counters);
          }
        }
        const auto add = [](std::atomic<uint64_t>& total, uint64_t n) {
          if (n != 0) total.fetch_add(n, std::memory_order_relaxed);
        };
        add(pruned_total, counters.pruned_terms);
        add(cells_visited_total, counters.cells_visited);
        add(cells_pruned_total, counters.cells_pruned);
        return status;
      });
  if (result.ok()) {
    EvalStats& stats = result.value().stats;
    stats.pruned_terms = pruned_total.load(std::memory_order_relaxed);
    stats.cells_visited = cells_visited_total.load(std::memory_order_relaxed);
    stats.cells_pruned = cells_pruned_total.load(std::memory_order_relaxed);
    stats.simd = simd_->level;
  }
  return result;
}

void SummandDensity::SweepTerms(std::span<const double> x,
                                std::span<const size_t> dims, size_t first,
                                size_t len, double* terms) const {
  if (log_seed_.empty()) {
    std::fill_n(terms, len, 0.0);
  } else {
    std::copy_n(log_seed_.data() + first, len, terms);
  }
  for (size_t dim : dims) {
    UDM_DCHECK(dim < num_dims());
    simd_->sweep(x[dim], table_.ValuesCol(dim) + first,
                 table_.NegInvTwoVarCol(dim) + first,
                 table_.LogNormCol(dim) + first, terms, len);
  }
}

Status SummandDensity::EvalTileDense(std::span<const double> points,
                                     size_t count,
                                     std::span<const size_t> dims,
                                     bool log_space, ExecContext& ctx,
                                     ScratchArena& scratch, double* out,
                                     IndexedEvalCounters* counters) const {
  Status check = ctx.Check();
  if (!check.ok()) return CountEvalTrip(std::move(check));
  const size_t n = num_points();
  const size_t d = num_dims();
  std::span<double> log_terms =
      scratch.Doubles(ScratchArena::kLogTerms, count * n);
  double max_term[kMaxQueryTile];
  std::fill_n(max_term, count, kNegInf);
  // Pass 1, panel loop: chunk-outer, query-inner. Every query in the tile
  // sweeps the same kEvalChunk panel of the three column streams while it
  // is cache-resident; each query's own chunk sequence is tile-invariant.
  for (size_t start = 0; start < n; start += kEvalChunk) {
    const size_t len = std::min(kEvalChunk, n - start);
    Status charge = ctx.ChargeKernelEvals(len * dims.size() * count);
    if (!charge.ok()) return CountEvalTrip(std::move(charge));
    KernelEvalCounter().Increment(len * dims.size() * count);
    for (size_t q = 0; q < count; ++q) {
      double* terms = log_terms.data() + q * n + start;
      SweepTerms(points.subspan(q * d, d), dims, start, len, terms);
      max_term[q] = simd_->max_term(terms, len, max_term[q]);
    }
    check = ctx.Check();
    if (!check.ok()) return CountEvalTrip(std::move(check));
  }
  for (size_t q = 0; q < count; ++q) {
    uint64_t pruned = 0;
    out[q] = SumTerms(log_terms.data() + q * n, max_term[q], log_space,
                      pruned);
    if (pruned != 0) {
      PrunedTermsCounter().Increment(pruned);
      if (counters != nullptr) counters->pruned_terms += pruned;
    }
  }
  return Status::OK();
}

double SummandDensity::SumTerms(const double* terms, double max_term,
                                bool log_space, uint64_t& pruned) const {
  if (!std::isfinite(max_term)) return log_space ? kNegInf : 0.0;
  ExpSumState state;
  simd_->pruned_exp_accum(terms, num_points(), /*offset=*/0, max_term,
                          log_space ? max_term : 0.0, log_prune_threshold_,
                          state);
  pruned += state.pruned;
  return log_space ? max_term + std::log(state.Total()) - log_divisor_
                   : state.Total() / divisor_;
}

void SummandDensity::LogEvaluateSingletons(std::span<const double> x,
                                           std::span<double> out) const {
  const size_t d = num_dims();
  UDM_CHECK(x.size() == d && out.size() == d)
      << "singleton densities: point and output dimension";
  if (index_.has_value()) {
    for (size_t j = 0; j < d; ++j) {
      const size_t dims[] = {j};
      out[j] = EvaluatePoint(x, dims, /*log_space=*/true);
    }
    return;
  }
  const size_t n = num_points();
  double* terms =
      ScratchArena::ThreadLocal().Doubles(ScratchArena::kLogTerms, n).data();
  uint64_t pruned = 0;
  for (size_t j = 0; j < d; ++j) {
    const size_t dims[] = {j};
    SweepTerms(x, dims, 0, n, terms);
    out[j] = SumTerms(terms, simd_->max_term(terms, n, kNegInf),
                      /*log_space=*/true, pruned);
  }
  KernelEvalCounter().Increment(n * d);
  if (pruned != 0) PrunedTermsCounter().Increment(pruned);
}

Status SummandDensity::EvalIndexed(std::span<const double> x,
                                   std::span<const size_t> dims,
                                   bool log_space, ExecContext& ctx,
                                   ScratchArena& scratch, double* out,
                                   IndexedEvalCounters* counters) const {
  Status check = ctx.Check();
  if (!check.ok()) return CountEvalTrip(std::move(check));
  IndexedEvalCounters local;
  const Result<double> sum = IndexedPrunedSum(
      *index_, x, dims, log_prune_threshold_, log_space, *simd_, ctx, scratch,
      [&](size_t first, size_t len, double* terms) {
        SweepTerms(x, dims, first, len, terms);
      },
      local);
  if (local.cells_visited != 0) {
    CellsVisitedCounter().Increment(local.cells_visited);
  }
  if (local.cells_pruned != 0) {
    CellsPrunedCounter().Increment(local.cells_pruned);
  }
  if (counters != nullptr) {
    counters->cells_visited += local.cells_visited;
    counters->cells_pruned += local.cells_pruned;
    counters->pruned_terms += local.pruned_terms;
  }
  if (!sum.ok()) return sum.status();
  if (local.pruned_terms != 0) {
    PrunedTermsCounter().Increment(local.pruned_terms);
  }
  *out = log_space ? sum.value() - log_divisor_ : sum.value() / divisor_;
  return Status::OK();
}

}  // namespace udm::kde_internal
