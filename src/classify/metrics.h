#ifndef UDM_CLASSIFY_METRICS_H_
#define UDM_CLASSIFY_METRICS_H_

#include <cstddef>
#include <vector>

#include "classify/classifier.h"
#include "common/result.h"
#include "dataset/dataset.h"

namespace udm {

/// A k x k confusion matrix: rows index the true class, columns the
/// predicted class.
class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(size_t num_classes)
      : num_classes_(num_classes), counts_(num_classes * num_classes, 0) {}

  size_t NumClasses() const { return num_classes_; }

  /// Records one (truth, prediction) observation.
  void Record(int truth, int predicted) {
    UDM_CHECK(truth >= 0 && static_cast<size_t>(truth) < num_classes_);
    UDM_CHECK(predicted >= 0 && static_cast<size_t>(predicted) < num_classes_);
    ++counts_[static_cast<size_t>(truth) * num_classes_ +
              static_cast<size_t>(predicted)];
  }

  /// Count of rows with true class `truth` predicted as `predicted`.
  size_t At(size_t truth, size_t predicted) const {
    UDM_DCHECK(truth < num_classes_ && predicted < num_classes_);
    return counts_[truth * num_classes_ + predicted];
  }

  /// Total observations.
  size_t Total() const;

  /// Correctly classified observations (the trace).
  size_t Correct() const;

  /// Correct / Total (0 when empty).
  double Accuracy() const;

 private:
  size_t num_classes_;
  std::vector<size_t> counts_;
};

/// Runs `classifier` over every row of `test` and tallies the confusion
/// matrix against the true labels. Rows must be labeled with labels in
/// [0, classifier.NumClasses()). `threads` parallelizes the prediction
/// pass (0 = serial); the tally itself is always done in row order, so
/// the matrix is identical at any thread count.
Result<ConfusionMatrix> EvaluateClassifier(const Classifier& classifier,
                                           const Dataset& test,
                                           size_t threads = 0);

}  // namespace udm

#endif  // UDM_CLASSIFY_METRICS_H_
