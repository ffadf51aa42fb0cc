#include "cluster/ekmeans.h"

#include <algorithm>
#include <limits>

#include "common/random.h"
#include "common/stopwatch.h"
#include "microcluster/centroid_table.h"

namespace udm {
namespace {

/// Lloyd's loop stops when no assignment changes, or after this many
/// iterations.
constexpr size_t kMaxIterations = 50;

}  // namespace

Result<KMeansResult> ErrorKMeans(const Dataset& data, const ErrorModel& errors,
                                 const ErrorKMeansOptions& options) {
  ExecContext unbounded;
  return ErrorKMeans(data, errors, options, unbounded);
}

Result<KMeansResult> ErrorKMeans(const Dataset& data, const ErrorModel& errors,
                                 const ErrorKMeansOptions& options,
                                 ExecContext& ctx) {
  const size_t n = data.NumRows();
  const size_t d = data.NumDims();
  if (n == 0) return Status::InvalidArgument("ErrorKMeans: empty dataset");
  if (errors.NumRows() != n || errors.NumDims() != d) {
    return Status::InvalidArgument("ErrorKMeans: error shape mismatch");
  }
  if (options.k == 0 || options.k > n) {
    return Status::InvalidArgument("ErrorKMeans: k out of [1, N]");
  }

  UDM_RETURN_IF_ERROR(ctx.Check());

  const size_t k = options.k;
  Rng rng(options.seed);

  // k-means++ style seeding under the assignment distance. Each round
  // sweeps every point against the newest center only (a one-row table).
  std::vector<double> centroids;
  centroids.reserve(k * d);
  {
    const size_t first = static_cast<size_t>(rng.UniformInt(n));
    const auto row = data.Row(first);
    centroids.insert(centroids.end(), row.begin(), row.end());
    std::vector<double> best_dist(n, std::numeric_limits<double>::infinity());
    CentroidTable last_center(d, options.distance);
    last_center.Append(row);
    while (centroids.size() < k * d) {
      const Stopwatch watch;
      double total = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double dist =
            last_center.Nearest(data.Row(i), errors.RowPsi(i)).distance;
        best_dist[i] = std::min(best_dist[i], dist);
        total += best_dist[i];
      }
      RecordAssignment(n, watch.ElapsedSeconds());
      size_t chosen = 0;
      if (total > 0.0) {
        double pick = rng.Uniform() * total;
        for (size_t i = 0; i < n; ++i) {
          pick -= best_dist[i];
          if (pick <= 0.0) {
            chosen = i;
            break;
          }
        }
      } else {
        chosen = static_cast<size_t>(rng.UniformInt(n));
      }
      const auto chosen_row = data.Row(chosen);
      centroids.insert(centroids.end(), chosen_row.begin(), chosen_row.end());
      last_center.Set(0, chosen_row);
    }
  }

  KMeansResult result;
  result.assignments.assign(n, -1);
  CentroidTable table(d, options.distance);
  for (size_t c = 0; c < k; ++c) {
    table.Append(std::span<const double>(centroids.data() + c * d, d));
  }

  // Seeding is one more N·k distance sweep; charge it with the context so
  // a budget covers the whole call, not just the Lloyd loop.
  UDM_RETURN_IF_ERROR(ctx.ChargeKernelEvals(n * k));
  UDM_RETURN_IF_ERROR(ctx.Check());

  for (size_t iter = 0; iter < kMaxIterations; ++iter) {
    // Iteration-boundary check: before the first iteration a violation is
    // an error (there is no partial result yet); afterwards it truncates
    // Lloyd's loop and returns the last completed iteration's clustering.
    Status boundary = ctx.ChargeKernelEvals(n * k);
    if (boundary.ok()) boundary = ctx.Check();
    if (!boundary.ok()) {
      if (boundary.code() == StatusCode::kCancelled || iter == 0) {
        return boundary;
      }
      result.stop_cause = boundary.code() == StatusCode::kDeadlineExceeded
                              ? StopCause::kDeadline
                              : StopCause::kBudget;
      break;
    }
    result.iterations = iter + 1;
    bool changed = false;
    result.inertia = 0.0;
    const Stopwatch watch;
    for (size_t i = 0; i < n; ++i) {
      const NearestCentroid nearest =
          table.Nearest(data.Row(i), errors.RowPsi(i));
      const int best = static_cast<int>(nearest.index);
      if (result.assignments[i] != best) {
        result.assignments[i] = best;
        changed = true;
      }
      result.inertia += nearest.distance;
    }
    RecordAssignment(n * k, watch.ElapsedSeconds());
    if (!changed) {
      result.converged = true;
      break;
    }
    // Centroid update: plain means of observed values; empty clusters keep
    // their previous centroid.
    std::vector<double> sums(k * d, 0.0);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(result.assignments[i]);
      const auto row = data.Row(i);
      for (size_t j = 0; j < d; ++j) sums[c * d + j] += row[j];
      ++counts[c];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      for (size_t j = 0; j < d; ++j) {
        centroids[c * d + j] = sums[c * d + j] / static_cast<double>(counts[c]);
      }
      table.Set(c, std::span<const double>(centroids.data() + c * d, d));
    }
  }

  result.centroids = std::move(centroids);
  return result;
}

}  // namespace udm
