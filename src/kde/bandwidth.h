#ifndef UDM_KDE_BANDWIDTH_H_
#define UDM_KDE_BANDWIDTH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "dataset/dataset.h"

namespace udm {

/// One-dimensional Silverman bandwidth, the paper's rule (§2):
/// h = 1.06 · σ · N^(−1/5). Requires n >= 1; a zero sigma (constant
/// dimension) yields `min_bandwidth` so the kernel stays proper.
double SilvermanBandwidth(double sigma, size_t n, double min_bandwidth = 1e-9);

/// Per-dimension Silverman bandwidths for `data`, each multiplied by
/// `scale` (a data-driven tuning knob; 1.0 reproduces the rule).
std::vector<double> ComputeBandwidths(const Dataset& data, double scale = 1.0,
                                      double min_bandwidth = 1e-9);

/// Same, but from precomputed stats (avoids an O(N·d) pass when the caller
/// already has them) with an explicit row count.
std::vector<double> ComputeBandwidthsFromStats(
    const std::vector<DimensionStats>& stats, size_t n, double scale = 1.0,
    double min_bandwidth = 1e-9);

/// Error-corrects `stats` before the bandwidth rule
/// (DensityEvalOptions::deconvolve_bandwidth): σ_j² ← max(σ_j² −
/// mean_psi2[j], 0.01·σ_j²), floored so h never collapses entirely.
void DeconvolveStats(std::span<const double> mean_psi2,
                     std::vector<DimensionStats>& stats);

}  // namespace udm

#endif  // UDM_KDE_BANDWIDTH_H_
