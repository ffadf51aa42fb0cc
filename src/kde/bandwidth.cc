#include "kde/bandwidth.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace udm {

double SilvermanBandwidth(double sigma, size_t n, double min_bandwidth) {
  UDM_DCHECK(n >= 1);
  const double h =
      1.06 * sigma * std::pow(static_cast<double>(n), -1.0 / 5.0);
  return std::max(h, min_bandwidth);
}

std::vector<double> ComputeBandwidths(const Dataset& data, double scale,
                                      double min_bandwidth) {
  return ComputeBandwidthsFromStats(data.ComputeStats(), data.NumRows(), scale,
                                    min_bandwidth);
}

std::vector<double> ComputeBandwidthsFromStats(
    const std::vector<DimensionStats>& stats, size_t n, double scale,
    double min_bandwidth) {
  UDM_CHECK(n >= 1) << "bandwidths need at least one row";
  std::vector<double> out(stats.size());
  for (size_t j = 0; j < stats.size(); ++j) {
    const double h = SilvermanBandwidth(stats[j].stddev, n, min_bandwidth);
    out[j] = std::max(h * scale, min_bandwidth);
  }
  return out;
}

void DeconvolveStats(std::span<const double> mean_psi2,
                     std::vector<DimensionStats>& stats) {
  for (size_t j = 0; j < stats.size(); ++j) {
    const double corrected =
        std::max(stats[j].variance - mean_psi2[j], 0.01 * stats[j].variance);
    stats[j].variance = corrected;
    stats[j].stddev = std::sqrt(corrected);
  }
}

}  // namespace udm
