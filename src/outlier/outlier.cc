#include "outlier/outlier.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"

namespace udm {

Result<OutlierScores> ScoreOutliers(const Dataset& data,
                                    const ErrorModel& errors,
                                    const OutlierOptions& options) {
  const size_t n = data.NumRows();
  if (n == 0) return Status::InvalidArgument("ScoreOutliers: empty dataset");
  if (errors.NumRows() != n || errors.NumDims() != data.NumDims()) {
    return Status::InvalidArgument("ScoreOutliers: error shape mismatch");
  }

  OutlierScores out;
  out.scores.resize(n);
  std::vector<size_t> all_dims(data.NumDims());
  for (size_t j = 0; j < data.NumDims(); ++j) all_dims[j] = j;

  if (options.num_clusters > 0) {
    // Scalable path: micro-cluster density (leave-one-out does not apply —
    // a single point's kernel is already diluted inside its cluster).
    MicroClusterer::Options mc_options;
    mc_options.num_clusters = options.num_clusters;
    UDM_ASSIGN_OR_RETURN(const std::vector<MicroCluster> summary,
                         BuildMicroClusters(data, errors, mc_options));
    UDM_ASSIGN_OR_RETURN(const McDensityModel model,
                         McDensityModel::Build(summary, options.density));
    for (size_t i = 0; i < n; ++i) {
      out.scores[i] = -model.LogEvaluateSubspace(data.Row(i), all_dims);
    }
  } else {
    UDM_ASSIGN_OR_RETURN(
        const ErrorKernelDensity kde,
        ErrorKernelDensity::Fit(data, errors, options.density));
    for (size_t i = 0; i < n; ++i) {
      double log_density = kde.LogEvaluateSubspace(data.Row(i), all_dims);
      if (n > 1) {
        // f_loo = (N*f - own_kernel) / (N-1); own kernel at zero offset.
        double own_log = 0.0;
        for (size_t j = 0; j < data.NumDims(); ++j) {
          own_log += LogErrorKernelValue(0.0, kde.bandwidths()[j],
                                         errors.Psi(i, j),
                                         options.density.normalization);
        }
        const double nf = std::log(static_cast<double>(n)) + log_density;
        // log(exp(nf) - exp(own_log)), guarded: the self-term can dominate.
        if (own_log < nf) {
          log_density = nf + std::log1p(-std::exp(own_log - nf)) -
                        std::log(static_cast<double>(n - 1));
        } else {
          log_density = -std::numeric_limits<double>::infinity();
        }
      }
      out.scores[i] = -log_density;
    }
  }

  out.ranking.resize(n);
  for (size_t i = 0; i < n; ++i) out.ranking[i] = i;
  std::sort(out.ranking.begin(), out.ranking.end(),
            [&](size_t a, size_t b) {
              if (out.scores[a] != out.scores[b]) {
                return out.scores[a] > out.scores[b];
              }
              return a < b;
            });
  return out;
}

Result<std::vector<size_t>> TopOutliers(const Dataset& data,
                                        const ErrorModel& errors, size_t top_k,
                                        const OutlierOptions& options) {
  UDM_ASSIGN_OR_RETURN(const OutlierScores scores,
                       ScoreOutliers(data, errors, options));
  std::vector<size_t> top = scores.ranking;
  if (top.size() > top_k) top.resize(top_k);
  return top;
}

}  // namespace udm
