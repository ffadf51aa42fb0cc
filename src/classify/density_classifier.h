#ifndef UDM_CLASSIFY_DENSITY_CLASSIFIER_H_
#define UDM_CLASSIFY_DENSITY_CLASSIFIER_H_

#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "classify/class_models.h"
#include "classify/classifier.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "dataset/dataset.h"
#include "error/error_model.h"
#include "kde/eval.h"
#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"

namespace udm {

/// The paper's density-based classifier (§3, Figure 3): an instance-specific
/// rule learner over error-adjusted subspace densities.
///
/// Training (one pass, §3 "performed only once as a pre-processing step"):
/// build error-based micro-cluster summaries for the full data D and for
/// each class subset D_i, then wrap each summary in an McDensityModel so
/// subspace densities g(x, S, ·) are O(q·|S|) at query time.
///
/// Prediction for a test point x (the roll-up of Figure 3):
///   1. Score every singleton subspace with the density-based local accuracy
///        A(x, S, l_i) = (|D_i|·g(x,S,D_i)) / (|D|·g(x,S,D))     (Eq. 11)
///      and keep those whose best class beats the threshold `a` (set L_1).
///   2. Repeatedly join L_i with L_1 to form candidate (i+1)-dimensional
///      subspaces, keep the qualifying ones, until no candidates survive.
///   3. From L = ∪L_i, greedily select the highest-accuracy subspaces that
///      do not overlap previously selected ones (at most p when p > 0).
///   4. Report the majority dominant class (Eq. 12) among the selected
///      subspaces; ties go to the subspace ranked higher. When no subspace
///      beats the threshold (the paper leaves this case unspecified), fall
///      back to the dominant class over the full dimensionality. Over all
///      dimensions the global term of Eq. 11 is the same for every class,
///      so the fallback is the Bayes rule PredictBayes.
///
/// Under an ExecContext the three rungs form a ladder that never misses a
/// deadline: the roll-up (anytime — truncated where the context cuts it),
/// then PredictBayes when nothing qualified, then the class prior when the
/// deadline or budget was already spent on entry. Every rung reads the one
/// set of class models.
///
/// The "no error adjustment" comparator of §4 is this same class trained
/// with `ErrorModel::Zero` — every formula degrades to its classical form.
class DensityBasedClassifier : public Classifier {
 public:
  struct Options {
    /// Micro-cluster budget q for the global summary and for each class
    /// summary (paper sweeps 20..140).
    size_t num_clusters = 140;
    /// The local-accuracy threshold `a` of Figure 3. Since Σ_i |D_i|·g_i ≈
    /// |D|·g (the global density is the class mixture), the accuracies
    /// A(x,S,l_i) sum to ≈ 1 over classes — A behaves like a local
    /// posterior, and `a` is a confidence bar on it. Values near 1 demand
    /// near-certain subspaces (frequent fallback); values at or below the
    /// largest class prior qualify weak rules everywhere. 0.75 is a robust
    /// middle ground across the paper's datasets.
    double accuracy_threshold = 0.75;
    /// Paper's p: stop after selecting this many non-overlapping subspaces
    /// (0 = exhaust all possibilities).
    size_t max_selected_subspaces = 0;
    /// Safety cap on the roll-up depth (0 = run until C_{i+1} is empty, as
    /// in Figure 3).
    size_t max_subspace_dim = 0;
    /// Assignment metric for micro-clustering (ablation knob).
    AssignmentDistance distance = AssignmentDistance::kErrorAdjusted;
    /// Kernel/bandwidth knobs shared by all density models.
    DensityEvalOptions density;
  };

  /// One selected rule in an explained prediction.
  struct Rule {
    std::vector<size_t> dims;  ///< subspace S (sorted dimension indices)
    int label = 0;             ///< dom(x, S)
    double log_accuracy = 0.0; ///< log A(x, S, dom)
  };

  /// The rung that decided a prediction. Nonzero means a fallback decided;
  /// rules 0 and bayes 1 are the values the pinned digests hash.
  enum Decider {
    kRules = 0,  ///< the selected rules' majority vote (Eq. 12)
    kBayes = 1,  ///< no subspace beat the threshold: PredictBayes
    kPrior = 2,  ///< the context was spent on entry: class-prior argmax
  };

  /// A prediction plus the subspace rules that produced it (§3's
  /// "relevant classification rules for a particular test instance").
  struct Explanation {
    int predicted = 0;
    /// Which rung decided (kRules, or the kBayes/kPrior fallback).
    Decider used_fallback = kRules;
    std::vector<Rule> selected;
    /// kCompleted for a full roll-up; kDeadline/kBudget when the
    /// ExecContext cut expansion short and the prediction was made from
    /// the subspaces qualified so far (anytime behavior), or, under
    /// kPrior, when the context was already spent on entry.
    StopCause stop_cause = StopCause::kCompleted;
  };

  /// Trains from labeled uncertain data (validated by TrainClassModels:
  /// `errors` must match `data`'s shape; labels must be dense in [0, k)
  /// with k >= 2).
  static Result<DensityBasedClassifier> Train(const Dataset& data,
                                              const ErrorModel& errors,
                                              const Options& options);
  static Result<DensityBasedClassifier> Train(const Dataset& data,
                                              const ErrorModel& errors) {
    return Train(data, errors, Options());
  }

  Result<int> Predict(std::span<const double> x) const override;

  /// Predict with the selected rules exposed.
  Result<Explanation> Explain(std::span<const double> x) const;

  /// Deadline/cancellation/budget-aware prediction. The roll-up of
  /// Figure 3 is an anytime algorithm: a deadline or budget hit stops
  /// subspace expansion and the prediction is made from whatever
  /// qualified so far (full-dimensional fallback when nothing did), with
  /// `stop_cause` recording the truncation. A context whose deadline or
  /// budget is already spent on entry gets the class-prior answer (kPrior)
  /// at zero kernel evals. Cancellation fails with kCancelled before any
  /// work.
  Result<Explanation> Explain(std::span<const double> x,
                              ExecContext& ctx) const;
  Result<int> Predict(std::span<const double> x, ExecContext& ctx) const;

  /// The full-dimensional Bayes rule, argmax_c log|D_c| + log g(x, D_c)
  /// over the class models (ties go to the lower label): the roll-up's
  /// fallback, and on its own the roll-up's ablation baseline. Reads the
  /// k class models, not the global one.
  Result<int> PredictBayes(std::span<const double> x) const;

  size_t NumClasses() const override { return class_models_.size(); }
  std::string Name() const override { return name_; }

  size_t num_dims() const { return num_dims_; }

  /// log A(x, S, l): the density-based local accuracy of Eq. 11 in log
  /// space. Exposed for tests and for density-driven applications beyond
  /// classification.
  double LogLocalAccuracy(std::span<const double> x,
                          std::span<const size_t> dims, int label) const;

 private:
  DensityBasedClassifier(std::vector<McDensityModel> class_models,
                         McDensityModel global_model, size_t num_dims,
                         Options options, std::string name)
      : class_models_(std::move(class_models)),
        global_model_(std::move(global_model)),
        log_total_(std::log(static_cast<double>(global_model_.total_count()))),
        num_dims_(num_dims),
        options_(std::move(options)),
        name_(std::move(name)) {
    for (const McDensityModel& model : class_models_) {
      log_counts_.push_back(std::log(static_cast<double>(model.total_count())));
    }
  }

  /// Best class and its log-accuracy for subspace S at x.
  struct SubspaceScore {
    int label = 0;
    double log_accuracy = 0.0;
  };
  SubspaceScore ScoreSubspace(std::span<const double> x,
                              std::span<const size_t> dims) const;
  /// The best class from the global log-density and `log_class(c)`, the
  /// log-density of class c, at one subspace (ties go to the lower label).
  template <typename ClassLogDensity>
  SubspaceScore BestClass(double log_global,
                          ClassLogDensity&& log_class) const;

  /// log A(x, S, l_c) of Eq. 11 from the class and global log-densities
  /// at (x, S).
  double LogAccuracy(size_t c, double log_class, double log_global) const;

  std::vector<McDensityModel> class_models_;  // one per class, index = label
  McDensityModel global_model_;               // over all of D
  std::vector<double> log_counts_;            // log|D_c|
  double log_total_;                          // log|D|
  size_t num_dims_;
  Options options_;
  std::string name_;
};

/// Returns "rules", "bayes" or "prior": the tier a served prediction
/// reports.
const char* DeciderToString(DensityBasedClassifier::Decider decider);

}  // namespace udm

#endif  // UDM_CLASSIFY_DENSITY_CLASSIFIER_H_
