#ifndef UDM_SERVE_REGISTRY_H_
#define UDM_SERVE_REGISTRY_H_

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "classify/density_classifier.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "kde/error_kde.h"
#include "kde/eval.h"
#include "microcluster/mc_density.h"
#include "robustness/fault_injector.h"
#include "robustness/retry.h"
#include "serve/protocol.h"

namespace udm::serve {

/// Which estimator family a registry entry wraps.
enum class ModelKind {
  kKde = 0,        ///< exact plain KDE (Eq. 2): ErrorKernelDensity, ψ ≡ 0
  kErrorKde,       ///< exact ErrorKernelDensity (Eq. 4)
  kMcDensity,      ///< micro-cluster surrogate (Eq. 10)
  kClassifier,     ///< DensityBasedClassifier (the §3 roll-up)
};

const char* ModelKindToString(ModelKind kind);

/// One fitted model, immutable after load, so concurrent requests read it
/// without a lock. Entries are shared by snapshot pointer, so a reload
/// never invalidates a model an in-flight request is using.
class ModelEntry {
 public:
  ModelKind kind = ModelKind::kKde;
  std::string name;
  size_t num_dims = 0;
  /// Occupied spatial-index cells of the wrapped estimator (0 when the
  /// fit built no index — small model, or a classifier entry). Logged at
  /// load so operators can see which models serve sub-linearly.
  size_t index_cells = 0;

  /// The fitted estimator of a kKde or kErrorKde entry.
  std::optional<ErrorKernelDensity> error_kde;
  std::optional<McDensityModel> mc;
  std::optional<DensityBasedClassifier> classifier;

  /// Batch density evaluation for the three density kinds (fails with
  /// kFailedPrecondition on a classifier entry).
  Result<EvalResult> Evaluate(const EvalRequest& request) const;

  /// Classifies one point under the shared context with the roll-up's
  /// Explain (rules, then the Bayes fallback, then the class prior once the
  /// context is spent). Fails with kFailedPrecondition on a density entry.
  Result<DensityBasedClassifier::Explanation> Classify(
      std::span<const double> x, ExecContext& ctx) const;
};

/// A named set of fitted models loaded from a manifest file, with
/// atomic-snapshot reload semantics: Find() hands out shared pointers into
/// an immutable snapshot, and a reload builds a complete new snapshot
/// before swapping it in — a failed reload (I/O fault, corrupt file)
/// leaves the previous models serving untouched.
///
/// Manifest format (line-oriented text, '#' comments):
///
///   udm-models 1
///   kde        <name> <csv>
///   error_kde  <name> <csv> <psi|->
///   mc         <name> <microclusters-file>
///   classifier <name> <csv> <psi|-> [clusters]
///
/// `<psi>` is a uniform per-entry error std-dev (the paper's homogeneous
/// special case); '-' means zero error, so `kde <name> <csv>` serves the
/// same model as `error_kde <name> <csv> -`. CSV files use the repo CSV schema
/// (trailing integer label column); density models ignore the labels. A
/// `classifier` entry is a DensityBasedClassifier trained on the CSV's
/// labels with default options; `[clusters]` sets its micro-cluster budget
/// q (default DensityBasedClassifier::Options::num_clusters).
///
/// Every file read is wrapped in RetryWithPolicy with the FaultInjector
/// I/O seam (Options::io_faults), mirroring CheckpointOptions: an armed
/// transient fault makes the read fail with kIoError once, and the retry
/// loop absorbs it — the soak test's model-reload faults exercise exactly
/// this path.
class ModelRegistry {
 public:
  struct Options {
    /// Retry schedule for transient I/O failures during load.
    RetryPolicy retry;
    /// Test seam: when non-null, every file read first consumes an armed
    /// fault (FaultInjector::ConsumeIoFault) and fails with kIoError.
    FaultInjector* io_faults = nullptr;
  };

  ModelRegistry() = default;
  explicit ModelRegistry(Options options) : options_(std::move(options)) {}

  /// Loads (or reloads) every model in the manifest. On error the current
  /// snapshot is untouched. Thread-safe against concurrent Find().
  Status LoadManifest(const std::string& path);

  /// Deadline-bounded variant: retries give up early when `ctx`'s deadline
  /// cannot accommodate the next backoff (see the ExecContext-aware
  /// RetryWithPolicy overload).
  Status LoadManifest(const std::string& path, ExecContext& ctx);

  /// Looks up a model by name; nullptr when absent. The returned entry
  /// stays valid (and servable) even if a reload replaces the snapshot.
  std::shared_ptr<const ModelEntry> Find(const std::string& name) const;

  /// All model names in the current snapshot, sorted.
  std::vector<std::string> ModelNames() const;

  size_t size() const;

 private:
  using Snapshot = std::map<std::string, std::shared_ptr<const ModelEntry>>;

  Result<std::shared_ptr<const Snapshot>> BuildSnapshot(
      const std::string& path, ExecContext* ctx) const;

  Options options_;
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> snapshot_;
};

}  // namespace udm::serve

#endif  // UDM_SERVE_REGISTRY_H_
