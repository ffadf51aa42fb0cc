// Renders the paper's two illustrative figures as live computations:
//
// Figure 1 — a test point X between training points Y (exact, near) and
// Z (farther but with a large error along dimension 0): plain NN picks Y,
// the same NN trained with the error table picks Z, and the error-adjusted
// density field shows why (Z's mass reaches X).
//
// Figure 2 — a point whose error ellipse is skewed toward centroid 1 even
// though centroid 2 is Euclidean-nearer: the error-adjusted distance
// (Eq. 5) flips the assignment.
//
// Build & run:  ./build/examples/paper_figures
#include <cstdio>
#include <vector>

#include "classify/nn_classifier.h"
#include "dataset/dataset.h"
#include "error/error_model.h"
#include "kde/error_kde.h"
#include "kde/grid.h"
#include "common/math_util.h"
#include "microcluster/distance.h"

int main() {
  // ----- Figure 1 ---------------------------------------------------------
  std::printf("Figure 1 — errors flip the nearest neighbor\n");
  udm::Dataset train = udm::Dataset::Create(2, {"dim0", "dim1"}).value();
  (void)train.AppendRow(std::vector<double>{0.0, 2.0}, 0);  // Y (exact)
  (void)train.AppendRow(std::vector<double>{5.0, 0.0}, 1);  // Z (noisy)
  udm::ErrorModel errors = udm::ErrorModel::Zero(2, 2);
  errors.SetPsi(1, 0, 6.0);  // Z's error along dim 0 covers X

  const std::vector<double> x{0.0, 0.0};
  const auto plain = udm::NnClassifier::Train(train).value();
  const auto aware = udm::NnClassifier::Train(train, errors).value();
  std::printf("  plain NN picks class %d (Y), error-aware NN picks class "
              "%d (Z)\n",
              plain.Predict(x).value(), aware.Predict(x).value());

  const udm::ErrorKernelDensity kde =
      udm::ErrorKernelDensity::Fit(train, errors).value();
  const udm::DensityField field =
      udm::SampleField(kde, {0.0, 0.0}, 0, 1, -8.0, 12.0, -4.0, 6.0, 48, 16)
          .value();
  std::printf("  error-adjusted density field (X at left-center; Z's bump "
              "is wide along dim0):\n%s",
              udm::RenderAscii(field).c_str());

  // ----- Figure 2 ---------------------------------------------------------
  std::printf("\nFigure 2 — errors flip the cluster assignment\n");
  const std::vector<double> point{0.0, 0.0};
  const std::vector<double> psi{4.0, 0.0};  // skewed error ellipse
  const std::vector<double> centroid1{4.0, 0.0};
  const std::vector<double> centroid2{0.0, 2.5};
  std::printf("  Euclidean²: to centroid1 %.1f, to centroid2 %.1f -> plain "
              "assignment: centroid2\n",
              udm::SquaredEuclidean(point, centroid1),
              udm::SquaredEuclidean(point, centroid2));
  std::printf("  Eq.5 adjusted: to centroid1 %.1f, to centroid2 %.1f -> "
              "error-adjusted assignment: centroid1\n",
              udm::ErrorAdjustedDistance(point, psi, centroid1),
              udm::ErrorAdjustedDistance(point, psi, centroid2));
  return 0;
}
