#include "classify/class_models.h"

#include <string>

namespace udm {

Result<std::vector<McDensityModel>> TrainClassModels(
    const Dataset& data, const ErrorModel& errors,
    const MicroClusterer::Options& clustering,
    const DensityEvalOptions& density, std::string_view who) {
  const std::string prefix = std::string(who) + ": ";
  if (data.NumRows() == 0) {
    return Status::InvalidArgument(prefix + "empty dataset");
  }
  if (errors.NumRows() != data.NumRows() ||
      errors.NumDims() != data.NumDims()) {
    return Status::InvalidArgument(prefix + "error model shape mismatch");
  }
  const size_t k = data.NumClasses();
  if (k < 2) {
    return Status::InvalidArgument(prefix + "need at least two classes");
  }

  std::vector<McDensityModel> models;
  models.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    const std::vector<size_t> indices =
        data.IndicesOfLabel(static_cast<int>(c));
    if (indices.empty()) {
      return Status::InvalidArgument(
          prefix + "class " + std::to_string(c) +
          " has no training rows (labels must be dense)");
    }
    const Dataset subset = data.Select(indices);
    const ErrorModel subset_errors = errors.Select(indices);
    UDM_ASSIGN_OR_RETURN(std::vector<MicroCluster> summary,
                         BuildMicroClusters(subset, subset_errors, clustering));
    UDM_ASSIGN_OR_RETURN(McDensityModel model,
                         McDensityModel::Build(summary, density));
    models.push_back(std::move(model));
  }
  return models;
}

}  // namespace udm
