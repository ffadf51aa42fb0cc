#include "classify/nn_classifier.h"

#include <algorithm>
#include <utility>

#include "common/math_util.h"
#include "microcluster/distance.h"

namespace udm {

Result<NnClassifier> NnClassifier::Train(const Dataset& data,
                                         const Options& options) {
  return Make(data, {}, options);
}

Result<NnClassifier> NnClassifier::Train(const Dataset& data,
                                         const ErrorModel& errors,
                                         const Options& options) {
  if (errors.NumRows() != data.NumRows() ||
      errors.NumDims() != data.NumDims()) {
    return Status::InvalidArgument(
        "NnClassifier::Train: error model shape mismatch");
  }
  std::vector<double> psi;
  psi.reserve(data.NumRows() * data.NumDims());
  for (size_t i = 0; i < data.NumRows(); ++i) {
    const auto row = errors.RowPsi(i);
    psi.insert(psi.end(), row.begin(), row.end());
  }
  return Make(data, std::move(psi), options);
}

Result<NnClassifier> NnClassifier::Make(const Dataset& data,
                                        std::vector<double> psi,
                                        const Options& options) {
  if (data.NumRows() == 0) {
    return Status::InvalidArgument("NnClassifier::Train: empty dataset");
  }
  if (options.k == 0) {
    return Status::InvalidArgument("NnClassifier::Train: k == 0");
  }
  const size_t num_classes = data.NumClasses();
  if (num_classes == 0) {
    return Status::InvalidArgument("NnClassifier::Train: unlabeled dataset");
  }
  std::vector<double> values(data.values().begin(), data.values().end());
  std::vector<int> labels(data.labels().begin(), data.labels().end());
  return NnClassifier(std::move(values), std::move(psi), std::move(labels),
                      data.NumDims(), num_classes, options.k);
}

Result<int> NnClassifier::Predict(std::span<const double> x) const {
  if (x.size() != num_dims_) {
    return Status::InvalidArgument("NnClassifier::Predict: dimension mismatch");
  }
  const size_t n = labels_.size();
  const auto distance = [&](size_t i) {
    const std::span<const double> row{values_.data() + i * num_dims_,
                                      num_dims_};
    if (psi_.empty()) return SquaredEuclidean(x, row);
    // Eq. 5 with the roles set by Figure 1: the *training* record's error
    // region determines how near the query effectively is.
    const std::span<const double> row_psi{psi_.data() + i * num_dims_,
                                          num_dims_};
    return ErrorAdjustedDistance(row, row_psi, x);
  };

  // One scan keeps the k nearest (distance, index) pairs in a max-heap; a
  // later record displaces the farthest only when strictly nearer, so ties
  // keep the earlier record.
  const size_t k = std::min(k_, n);
  std::vector<std::pair<double, size_t>> nearest;
  nearest.reserve(k);
  for (size_t i = 0; i < n; ++i) {
    const double dist = distance(i);
    if (nearest.size() < k) {
      nearest.emplace_back(dist, i);
      std::push_heap(nearest.begin(), nearest.end());
    } else if (dist < nearest.front().first) {
      std::pop_heap(nearest.begin(), nearest.end());
      nearest.back() = {dist, i};
      std::push_heap(nearest.begin(), nearest.end());
    }
  }

  // Majority vote of the labeled neighbors; ties go to the lower class.
  std::vector<size_t> votes(num_classes_, 0);
  for (const auto& [dist, i] : nearest) {
    const int label = labels_[i];
    if (label >= 0) ++votes[static_cast<size_t>(label)];
  }
  size_t best_class = 0;
  for (size_t c = 1; c < num_classes_; ++c) {
    if (votes[c] > votes[best_class]) best_class = c;
  }
  return static_cast<int>(best_class);
}

}  // namespace udm
