#include "error/perturbation.h"

#include <cmath>

#include "common/random.h"

namespace udm {

Result<UncertainDataset> Perturb(const Dataset& clean,
                                 const PerturbationOptions& options) {
  if (options.f < 0.0) {
    return Status::InvalidArgument("Perturb: f must be >= 0");
  }
  const size_t n = clean.NumRows();
  const size_t d = clean.NumDims();
  const std::vector<DimensionStats> stats = clean.ComputeStats();

  Rng rng(options.seed);
  UDM_ASSIGN_OR_RETURN(Dataset noisy, Dataset::Create(d, clean.dim_names()));
  noisy.Reserve(n);
  std::vector<double> psi_table(n * d, 0.0);
  std::vector<double> row(d);

  for (size_t i = 0; i < n; ++i) {
    const auto src = clean.Row(i);
    for (size_t j = 0; j < d; ++j) {
      // Per-entry error std-dev ~ U[0, 2f] * sigma_j  (mean = f * sigma_j).
      const double sd = rng.Uniform(0.0, 2.0 * options.f) * stats[j].stddev;
      row[j] = src[j] + (sd > 0.0 ? rng.Gaussian(0.0, sd) : 0.0);
      psi_table[i * d + j] = sd;
    }
    UDM_RETURN_IF_ERROR(noisy.AppendRow(row, clean.Label(i)));
  }

  UDM_ASSIGN_OR_RETURN(ErrorModel errors,
                       ErrorModel::FromTable(n, d, std::move(psi_table)));
  return UncertainDataset{std::move(noisy), std::move(errors)};
}

Result<UncertainDataset> EstimateFromReplicates(
    const std::vector<Dataset>& replicates) {
  if (replicates.size() < 2) {
    return Status::InvalidArgument(
        "EstimateFromReplicates: need at least 2 replicates");
  }
  const size_t n = replicates[0].NumRows();
  const size_t d = replicates[0].NumDims();
  for (const Dataset& r : replicates) {
    if (r.NumRows() != n || r.NumDims() != d) {
      return Status::InvalidArgument(
          "EstimateFromReplicates: replicate shape mismatch");
    }
    for (size_t i = 0; i < n; ++i) {
      if (r.Label(i) != replicates[0].Label(i)) {
        return Status::InvalidArgument(
            "EstimateFromReplicates: replicate label mismatch");
      }
    }
  }

  const double m = static_cast<double>(replicates.size());
  UDM_ASSIGN_OR_RETURN(Dataset mean_data,
                       Dataset::Create(d, replicates[0].dim_names()));
  mean_data.Reserve(n);
  std::vector<double> psi_table(n * d, 0.0);
  std::vector<double> row(d);

  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      double sum = 0.0;
      for (const Dataset& r : replicates) sum += r.Value(i, j);
      const double mean = sum / m;
      double sq = 0.0;
      for (const Dataset& r : replicates) {
        const double dev = r.Value(i, j) - mean;
        sq += dev * dev;
      }
      row[j] = mean;
      // Sample std-dev of the replicate values: the ψ estimate. The error
      // of the *mean* would divide by sqrt(m); we report the measurement
      // error, matching the paper's "standard deviation of the
      // observations over a large number of measurements".
      psi_table[i * d + j] = std::sqrt(sq / (m - 1.0));
    }
    UDM_RETURN_IF_ERROR(mean_data.AppendRow(row, replicates[0].Label(i)));
  }

  UDM_ASSIGN_OR_RETURN(ErrorModel errors,
                       ErrorModel::FromTable(n, d, std::move(psi_table)));
  return UncertainDataset{std::move(mean_data), std::move(errors)};
}

}  // namespace udm
