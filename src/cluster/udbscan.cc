#include "cluster/udbscan.h"

#include <deque>

#include "microcluster/clusterer.h"
#include "microcluster/distance.h"
#include "microcluster/mc_density.h"

namespace udm {

Result<UncertainClustering> UncertainDbscan(
    const Dataset& data, const ErrorModel& errors,
    const UncertainDbscanOptions& options) {
  ExecContext unbounded;
  return UncertainDbscan(data, errors, options, unbounded);
}

Result<UncertainClustering> UncertainDbscan(
    const Dataset& data, const ErrorModel& errors,
    const UncertainDbscanOptions& options, ExecContext& ctx) {
  const size_t n = data.NumRows();
  if (n == 0) {
    return Status::InvalidArgument("UncertainDbscan: empty dataset");
  }
  if (errors.NumRows() != n || errors.NumDims() != data.NumDims()) {
    return Status::InvalidArgument("UncertainDbscan: error shape mismatch");
  }
  if (options.eps <= 0.0) {
    return Status::InvalidArgument("UncertainDbscan: eps must be positive");
  }

  UDM_RETURN_IF_ERROR(ctx.Check());

  UncertainClustering out;
  out.labels.assign(n, UncertainClustering::kNoiseLabel);
  // The density pass is one batch EvalRequest over every row. It stays
  // all-or-nothing: a deadline/budget partial is converted back into the
  // error a per-row loop would have returned.
  EvalRequest density_request;
  density_request.points = data.values();
  density_request.ctx = &ctx;
  Result<EvalResult> densities = [&]() -> Result<EvalResult> {
    if (options.num_clusters > 0) {
      MicroClusterer::Options mc_options;
      mc_options.num_clusters = options.num_clusters;
      UDM_ASSIGN_OR_RETURN(const std::vector<MicroCluster> summary,
                           BuildMicroClusters(data, errors, mc_options));
      UDM_ASSIGN_OR_RETURN(const McDensityModel model,
                           McDensityModel::Build(summary, options.density));
      return model.Evaluate(density_request);
    }
    UDM_ASSIGN_OR_RETURN(
        const ErrorKernelDensity kde,
        ErrorKernelDensity::Fit(data, errors, options.density));
    return kde.Evaluate(density_request);
  }();
  UDM_RETURN_IF_ERROR(densities.status());
  if (!densities->complete()) {
    return densities->stop_cause == StopCause::kDeadline
               ? Status::DeadlineExceeded("UncertainDbscan: density pass")
               : Status::ResourceExhausted("UncertainDbscan: density pass");
  }
  out.densities = std::move(densities->densities);

  const double eps2 = options.eps * options.eps;
  // Symmetrized neighborhood: i~j if either point's error ellipse could
  // bridge the gap (the adjusted distance is asymmetric in ψ).
  const auto neighbors_of = [&](size_t i) {
    std::vector<size_t> neighbors;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double dij = ErrorAdjustedDistance(data.Row(i), errors.RowPsi(i),
                                               data.Row(j));
      const double dji = ErrorAdjustedDistance(data.Row(j), errors.RowPsi(j),
                                               data.Row(i));
      if (std::min(dij, dji) <= eps2) neighbors.push_back(j);
    }
    return neighbors;
  };

  std::vector<bool> is_core(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (out.densities[i] < options.density_threshold) continue;
    if (options.min_neighbors > 0) {
      // Each neighborhood scan is N error-adjusted distance evaluations.
      UDM_RETURN_IF_ERROR(ctx.ChargeKernelEvals(n));
      UDM_RETURN_IF_ERROR(ctx.Check());
      if (neighbors_of(i).size() < options.min_neighbors) continue;
    }
    is_core[i] = true;
  }

  // Grow clusters from unassigned core points (classic BFS expansion).
  int next_cluster = 0;
  for (size_t seed = 0; seed < n; ++seed) {
    // Seed-boundary check: once at least the core pass is done, a
    // deadline/budget hit returns the clusters grown so far.
    Status boundary = ctx.Check();
    if (!boundary.ok()) {
      if (boundary.code() == StatusCode::kCancelled) return boundary;
      out.stop_cause = boundary.code() == StatusCode::kDeadlineExceeded
                           ? StopCause::kDeadline
                           : StopCause::kBudget;
      break;
    }
    if (!is_core[seed] ||
        out.labels[seed] != UncertainClustering::kNoiseLabel) {
      continue;
    }
    const int cluster = next_cluster++;
    std::deque<size_t> queue{seed};
    out.labels[seed] = cluster;
    while (!queue.empty()) {
      const size_t current = queue.front();
      queue.pop_front();
      if (!is_core[current]) continue;  // border points do not expand
      // Budget accounting for this node's neighborhood scan; a violation
      // surfaces at the next seed boundary (BFS islands stay whole).
      (void)ctx.ChargeKernelEvals(n);
      for (size_t neighbor : neighbors_of(current)) {
        if (out.labels[neighbor] != UncertainClustering::kNoiseLabel) continue;
        out.labels[neighbor] = cluster;
        queue.push_back(neighbor);
      }
    }
  }
  out.num_clusters = static_cast<size_t>(next_cluster);
  return out;
}

}  // namespace udm
