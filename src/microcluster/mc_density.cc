#include "microcluster/mc_density.h"

#include <cmath>

#include "kde/bandwidth.h"
#include "kde/kernel_table.h"

namespace udm {

Result<McDensityModel> McDensityModel::Build(
    std::span<const MicroCluster> clusters,
    const DensityEvalOptions& options) {
  if (clusters.empty()) {
    return Status::InvalidArgument("McDensityModel::Build: no clusters");
  }
  UDM_RETURN_IF_ERROR(kde_internal::ValidateDensityOptions(
      options, "McDensityModel::Build"));
  const size_t d = clusters[0].NumDims();
  const AggregatedStats agg = AggregateStats(clusters);
  if (agg.total_count == 0) {
    return Status::InvalidArgument(
        "McDensityModel::Build: summary holds no points");
  }

  std::vector<double> centroids;
  std::vector<double> deltas;
  std::vector<double> weights;
  for (const MicroCluster& c : clusters) {
    if (c.IsEmpty()) continue;
    if (c.NumDims() != d) {
      return Status::InvalidArgument(
          "McDensityModel::Build: cluster dimension mismatch");
    }
    for (size_t j = 0; j < d; ++j) {
      centroids.push_back(c.Centroid(j));
      deltas.push_back(c.DeltaAt(j));
    }
    weights.push_back(static_cast<double>(c.Count()) /
                      static_cast<double>(agg.total_count));
  }

  std::vector<DimensionStats> bandwidth_stats = agg.dims;
  if (options.deconvolve_bandwidth) {
    // The additive EF2 sums recover the mean error mass per dimension.
    std::vector<double> mean_psi2(d, 0.0);
    for (size_t j = 0; j < d; ++j) {
      for (const MicroCluster& c : clusters) mean_psi2[j] += c.ef2()[j];
      mean_psi2[j] /= static_cast<double>(agg.total_count);
    }
    DeconvolveStats(mean_psi2, bandwidth_stats);
  }
  std::vector<double> bandwidths =
      ComputeBandwidthsFromStats(bandwidth_stats, agg.total_count,
                                 options.bandwidth_scale, options.min_bandwidth);

  const size_t m = weights.size();
  std::vector<double> log_weights(m);
  for (size_t c = 0; c < m; ++c) log_weights[c] = std::log(weights[c]);
  // Folding log(n(C)/N) into the summand seed (exp(log w + Σ …) rather than
  // w·exp(Σ …)) lets the weighted sum share the pruning gap test in both
  // spaces, and lets the index's cell bounds cover each cluster's weight.
  kde_internal::SummandDensity engine(
      kde_internal::ErrorKernelTable::Build(centroids, deltas, m, d,
                                            bandwidths, options.normalization),
      std::move(log_weights), /*divisor=*/1.0, bandwidths, options);
  // Keep weights() in the table's (cell-contiguous) order.
  if (const std::span<const size_t> perm = engine.permutation();
      !perm.empty()) {
    weights = kde_internal::Gather(weights, perm);
  }
  return McDensityModel(std::move(weights), agg.total_count,
                        std::move(bandwidths), std::move(engine));
}

double McDensityModel::Evaluate(std::span<const double> x) const {
  return engine_.EvaluatePoint(x, engine_.all_dims(), /*log_space=*/false);
}

double McDensityModel::EvaluateSubspace(std::span<const double> x,
                                        std::span<const size_t> dims) const {
  return engine_.EvaluatePoint(x, dims, /*log_space=*/false);
}

double McDensityModel::LogEvaluateSubspace(std::span<const double> x,
                                           std::span<const size_t> dims) const {
  return engine_.EvaluatePoint(x, dims, /*log_space=*/true);
}

void McDensityModel::LogEvaluateSingletons(std::span<const double> x,
                                           std::span<double> out) const {
  engine_.LogEvaluateSingletons(x, out);
}

Result<EvalResult> McDensityModel::Evaluate(const EvalRequest& request) const {
  return engine_.Evaluate(request, "McDensityModel");
}

}  // namespace udm
