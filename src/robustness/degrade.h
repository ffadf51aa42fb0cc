#ifndef UDM_ROBUSTNESS_DEGRADE_H_
#define UDM_ROBUSTNESS_DEGRADE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "dataset/dataset.h"
#include "error/error_model.h"
#include "kde/error_kde.h"
#include "microcluster/mc_density.h"

namespace udm {

/// Which rung of the degradation ladder served a prediction.
enum class DegradationTier {
  /// Exact per-class error-KDE (Eq. 4 per class): O(N·d) per class.
  kExact = 0,
  /// Micro-cluster density surrogate (Eq. 10 per class): O(q·d) per class.
  kMicroCluster = 1,
  /// Class-prior argmax: O(1), always affordable.
  kPrior = 2,
};

const char* DegradationTierToString(DegradationTier tier);

/// Counters describing how a DegradingClassifier has been serving: which
/// tier answered each query, and why queries were pushed down the ladder.
struct DegradationReport {
  uint64_t served_exact = 0;
  uint64_t served_micro = 0;
  uint64_t served_prior = 0;
  /// Tier falls caused by the deadline (one query can fall twice).
  uint64_t degraded_deadline = 0;
  /// Tier falls caused by budget exhaustion.
  uint64_t degraded_budget = 0;

  uint64_t total_served() const {
    return served_exact + served_micro + served_prior;
  }
  void Merge(const DegradationReport& other);
  /// One-line human-readable summary for CLI/bench output.
  std::string ToString() const;

  bool operator==(const DegradationReport& other) const = default;
};

/// A classifier that never misses its deadline: a Bayes classifier over
/// per-class error-adjusted densities, organized as a three-rung ladder of
/// successively cheaper density surrogates. Each query walks the ladder
/// under its ExecContext — when a rung's evaluations would violate the
/// deadline or budget, the query falls to the next rung instead of
/// failing; the bottom rung (class priors) costs nothing, so every
/// non-cancelled query produces a prediction with its tier recorded.
///
/// This is the paper's scalability story (§2.1: exact KDE vs micro-cluster
/// surrogate) recast as a robustness mechanism: the surrogate is no longer
/// just a throughput optimization but the graceful-degradation path under
/// overload. Cancellation is the one exit that never degrades — a
/// cancelled query returns kCancelled and mutates nothing, including the
/// report.
///
/// Tier admission keeps a reserve so a fall still lands somewhere useful:
/// rung costs in kernel evaluations are known exactly up front (N·d per
/// class exact, q·d per class micro), so the exact rung is attempted only
/// when the remaining budget covers it *plus* the micro rung, and it runs
/// under a child deadline capped at a fraction of the remaining time —
/// when it falls, there is still budget and time for the surrogate.
/// Without the reserve, the top rung would always exhaust the shared
/// context and every degraded query would skip straight to the prior.
class DegradingClassifier {
 public:
  struct Options {
    /// Micro-cluster budget q for the middle rung.
    size_t num_clusters = 60;
    /// Kernel/bandwidth knobs shared by both density rungs.
    DensityEvalOptions density;
  };

  /// A prediction plus the rung that produced it.
  struct Prediction {
    int label = 0;
    DegradationTier tier = DegradationTier::kExact;
  };

  /// Trains all three rungs from labeled uncertain data (labels dense in
  /// [0, k), k >= 2; error model matching the data shape).
  static Result<DegradingClassifier> Train(const Dataset& data,
                                           const ErrorModel& errors,
                                           const Options& options);
  static Result<DegradingClassifier> Train(const Dataset& data,
                                           const ErrorModel& errors) {
    return Train(data, errors, Options());
  }

  /// Classifies `x` at the most accurate tier the context affords.
  /// Cancellation (checked before any work) fails with kCancelled and
  /// leaves report() untouched; otherwise the call succeeds and the serve/
  /// degradation counters are updated.
  Result<Prediction> Predict(std::span<const double> x, ExecContext& ctx);

  /// Unbounded prediction (always serves the exact tier).
  Result<Prediction> Predict(std::span<const double> x);

  /// Serving counters since construction (or the last ResetReport).
  const DegradationReport& report() const { return report_; }
  void ResetReport() { report_ = DegradationReport(); }

  size_t NumClasses() const { return micro_models_.size(); }
  size_t num_dims() const { return num_dims_; }

 private:
  DegradingClassifier(std::vector<ErrorKernelDensity> exact_models,
                      std::vector<McDensityModel> micro_models,
                      std::vector<double> log_priors, size_t num_dims)
      : exact_models_(std::move(exact_models)),
        micro_models_(std::move(micro_models)),
        log_priors_(std::move(log_priors)),
        num_dims_(num_dims) {
    all_dims_.resize(num_dims_);
    for (size_t j = 0; j < num_dims_; ++j) all_dims_[j] = j;
    for (const ErrorKernelDensity& m : exact_models_) {
      exact_cost_ += static_cast<uint64_t>(m.num_points()) * num_dims_;
    }
    for (const McDensityModel& m : micro_models_) {
      micro_cost_ += static_cast<uint64_t>(m.num_clusters()) * num_dims_;
    }
  }

  std::vector<ErrorKernelDensity> exact_models_;  // one per class
  std::vector<McDensityModel> micro_models_;      // one per class
  std::vector<double> log_priors_;                // log(|D_i| / |D|)
  size_t num_dims_;
  std::vector<size_t> all_dims_;  // {0, ..., d-1} scratch for subspace calls
  uint64_t exact_cost_ = 0;  // kernel evals per exact-tier query (Σ N_c · d)
  uint64_t micro_cost_ = 0;  // kernel evals per micro-tier query (Σ q_c · d)
  DegradationReport report_;
};

}  // namespace udm

#endif  // UDM_ROBUSTNESS_DEGRADE_H_
