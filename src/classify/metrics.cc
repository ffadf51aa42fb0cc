#include "classify/metrics.h"

#include "classify/batch.h"

namespace udm {

size_t ConfusionMatrix::Total() const {
  size_t total = 0;
  for (size_t c : counts_) total += c;
  return total;
}

size_t ConfusionMatrix::Correct() const {
  size_t correct = 0;
  for (size_t c = 0; c < num_classes_; ++c) correct += At(c, c);
  return correct;
}

double ConfusionMatrix::Accuracy() const {
  const size_t total = Total();
  return total == 0 ? 0.0
                    : static_cast<double>(Correct()) /
                          static_cast<double>(total);
}

Result<ConfusionMatrix> EvaluateClassifier(const Classifier& classifier,
                                           const Dataset& test,
                                           size_t threads) {
  ConfusionMatrix matrix(classifier.NumClasses());
  for (size_t i = 0; i < test.NumRows(); ++i) {
    const int truth = test.Label(i);
    if (truth < 0 ||
        static_cast<size_t>(truth) >= classifier.NumClasses()) {
      return Status::InvalidArgument(
          "EvaluateClassifier: test label out of range at row " +
          std::to_string(i));
    }
  }
  UDM_ASSIGN_OR_RETURN(const std::vector<int> predictions,
                       BatchPredict(classifier, test, threads));
  for (size_t i = 0; i < test.NumRows(); ++i) {
    matrix.Record(test.Label(i), predictions[i]);
  }
  return matrix;
}

}  // namespace udm
