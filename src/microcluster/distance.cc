#include "microcluster/distance.h"

#include <algorithm>

#include "common/logging.h"

namespace udm {

double ErrorAdjustedDistance(std::span<const double> point,
                             std::span<const double> psi,
                             std::span<const double> centroid) {
  UDM_DCHECK(point.size() == centroid.size() && point.size() == psi.size())
      << "ErrorAdjustedDistance: size mismatch";
  double sum = 0.0;
  for (size_t j = 0; j < point.size(); ++j) {
    const double diff = point[j] - centroid[j];
    sum += std::max(0.0, diff * diff - psi[j] * psi[j]);
  }
  return sum;
}

}  // namespace udm
