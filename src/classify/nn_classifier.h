#ifndef UDM_CLASSIFY_NN_CLASSIFIER_H_
#define UDM_CLASSIFY_NN_CLASSIFIER_H_

#include <span>
#include <string>
#include <vector>

#include "classify/classifier.h"
#include "common/result.h"
#include "dataset/dataset.h"
#include "error/error_model.h"

namespace udm {

/// The paper's baseline (§4, comparator (1)): "a standard nearest neighbor
/// classification algorithm which reported the class label of its nearest
/// record". Trained on data alone it ranks records by plain Euclidean
/// distance on the observed (noisy) values; no error information is used —
/// which is exactly why it degrades drastically as the error level rises
/// (Figs. 4 and 6).
///
/// Trained with the records' error table it becomes the error-aware NN of
/// the paper's Figure 1: records are ranked by the error-adjusted distance
/// of Eq. 5, each discounted by its own ψ, so a record whose error region
/// covers the query wins even if its observed position is farther. That
/// is the minimal error-aware upgrade of the baseline, not one of the
/// paper's §4 comparators. It also shows the figure's limits: under
/// *heavy* errors best-case matching lets the noisiest records (whose
/// Eq. 5 distance to everything approaches zero) claim most queries, and
/// accuracy falls below plain NN (tests/nn_classifier_test.cc measures
/// this) — the pathology the paper avoids by routing error awareness
/// through the density transform, where a noisy record's influence is
/// *spread out* rather than sharpened.
///
/// `k > 1` generalizes to majority-vote k-NN (vote ties go to the lower
/// class); the paper's experiments use k = 1.
class NnClassifier : public Classifier {
 public:
  struct Options {
    size_t k = 1;
  };

  /// Copies the labeled training data. Requires a non-empty labeled dataset.
  static Result<NnClassifier> Train(const Dataset& data,
                                    const Options& options);
  static Result<NnClassifier> Train(const Dataset& data) {
    return Train(data, Options());
  }

  /// Copies the labeled training data and its error table (matching
  /// `data`'s shape) for Eq. 5 ranking.
  static Result<NnClassifier> Train(const Dataset& data,
                                    const ErrorModel& errors,
                                    const Options& options);
  static Result<NnClassifier> Train(const Dataset& data,
                                    const ErrorModel& errors) {
    return Train(data, errors, Options());
  }

  Result<int> Predict(std::span<const double> x) const override;
  size_t NumClasses() const override { return num_classes_; }
  std::string Name() const override {
    return psi_.empty() ? "nn" : "error_aware_nn";
  }

 private:
  NnClassifier(std::vector<double> values, std::vector<double> psi,
               std::vector<int> labels, size_t num_dims, size_t num_classes,
               size_t k)
      : values_(std::move(values)),
        psi_(std::move(psi)),
        labels_(std::move(labels)),
        num_dims_(num_dims),
        num_classes_(num_classes),
        k_(k) {}

  static Result<NnClassifier> Make(const Dataset& data,
                                   std::vector<double> psi,
                                   const Options& options);

  std::vector<double> values_;  // row-major training points
  std::vector<double> psi_;     // row-major ψ; empty = Euclidean ranking
  std::vector<int> labels_;
  size_t num_dims_;
  size_t num_classes_;
  size_t k_;
};

}  // namespace udm

#endif  // UDM_CLASSIFY_NN_CLASSIFIER_H_
