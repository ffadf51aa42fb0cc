#include "kde/error_kde.h"

#include "kde/bandwidth.h"
#include "kde/kernel_table.h"

namespace udm {

Result<ErrorKernelDensity> ErrorKernelDensity::Fit(
    const Dataset& data, const ErrorModel& errors,
    const DensityEvalOptions& options) {
  if (data.NumRows() == 0) {
    return Status::InvalidArgument("ErrorKernelDensity::Fit: empty dataset");
  }
  if (errors.NumRows() != data.NumRows() ||
      errors.NumDims() != data.NumDims()) {
    return Status::InvalidArgument(
        "ErrorKernelDensity::Fit: error model shape mismatch");
  }
  UDM_RETURN_IF_ERROR(kde_internal::ValidateDensityOptions(
      options, "ErrorKernelDensity::Fit"));
  const size_t n = data.NumRows();
  const size_t d = data.NumDims();
  std::vector<double> psi;
  psi.reserve(n * d);
  for (size_t i = 0; i < n; ++i) {
    const auto row_psi = errors.RowPsi(i);
    psi.insert(psi.end(), row_psi.begin(), row_psi.end());
  }
  std::vector<DimensionStats> stats = data.ComputeStats();
  if (options.deconvolve_bandwidth) {
    std::vector<double> mean_psi2(d, 0.0);
    for (size_t j = 0; j < d; ++j) {
      for (size_t i = 0; i < n; ++i) {
        mean_psi2[j] += psi[i * d + j] * psi[i * d + j];
      }
      mean_psi2[j] /= static_cast<double>(n);
    }
    DeconvolveStats(mean_psi2, stats);
  }
  std::vector<double> bandwidths = ComputeBandwidthsFromStats(
      stats, n, options.bandwidth_scale, options.min_bandwidth);
  kde_internal::SummandDensity engine(
      kde_internal::ErrorKernelTable::Build(data.values(), psi, n, d,
                                            bandwidths, options.normalization),
      /*log_seed=*/{}, /*divisor=*/static_cast<double>(n), bandwidths,
      options);
  return ErrorKernelDensity(std::move(bandwidths), std::move(engine));
}

double ErrorKernelDensity::Evaluate(std::span<const double> x) const {
  return engine_.EvaluatePoint(x, engine_.all_dims(), /*log_space=*/false);
}

double ErrorKernelDensity::EvaluateSubspace(
    std::span<const double> x, std::span<const size_t> dims) const {
  return engine_.EvaluatePoint(x, dims, /*log_space=*/false);
}

double ErrorKernelDensity::LogEvaluateSubspace(
    std::span<const double> x, std::span<const size_t> dims) const {
  return engine_.EvaluatePoint(x, dims, /*log_space=*/true);
}

Result<EvalResult> ErrorKernelDensity::Evaluate(
    const EvalRequest& request) const {
  return engine_.Evaluate(request, "ErrorKernelDensity");
}

}  // namespace udm
