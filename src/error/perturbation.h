#ifndef UDM_ERROR_PERTURBATION_H_
#define UDM_ERROR_PERTURBATION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "error/error_model.h"

namespace udm {

/// A dataset whose entries carry quantified uncertainty: the noisy values
/// together with their per-entry error estimates ψ. This is the input type
/// of everything downstream (error-based KDE, micro-clustering, the
/// classifier); consumers never see the clean values.
struct UncertainDataset {
  Dataset data;       ///< the (noisy) observed values
  ErrorModel errors;  ///< ψ_j(X_i) table aligned with `data`
};

/// The paper's §4 error-injection protocol:
///
///   "errors were added to the data set from a normal distribution with
///    zero mean, and a standard deviation whose parameter was chosen as
///    follows. For each entry, the standard deviation parameter of the
///    normal distribution was chosen from a uniform distribution in the
///    range [0, 2·f]·σ, where σ is the standard deviation of that dimension
///    in the underlying data."
///
/// So at f the *average* injected error is f standard deviations, and at
/// f=3 the majority of entries are distorted by up to 3σ.
struct PerturbationOptions {
  /// The error level knob f (>= 0). f=0 injects nothing.
  double f = 1.0;
  /// RNG seed; (clean data, options) deterministically define the output.
  uint64_t seed = 7;
};

/// Applies the protocol to `clean`, returning noisy values plus the ψ table
/// (the σ actually used per entry — the error *estimate* the miner is
/// assumed to know, §1). Labels are preserved.
Result<UncertainDataset> Perturb(const Dataset& clean,
                                 const PerturbationOptions& options);

/// Estimates an UncertainDataset from replicated measurements: the value is
/// the per-entry mean and ψ is the per-entry sample standard deviation of
/// the replicates (the paper's §1 "error of data collection can be
/// estimated by prior experimentation"). All replicates must have the same
/// shape and labels.
Result<UncertainDataset> EstimateFromReplicates(
    const std::vector<Dataset>& replicates);

}  // namespace udm

#endif  // UDM_ERROR_PERTURBATION_H_
