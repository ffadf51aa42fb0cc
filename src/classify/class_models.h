#ifndef UDM_CLASSIFY_CLASS_MODELS_H_
#define UDM_CLASSIFY_CLASS_MODELS_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "error/error_model.h"
#include "kde/eval.h"
#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"

namespace udm {

/// The per-class training path of the density classifier (the Fig. 3
/// roll-up). Validates labeled uncertain data — non-empty, `errors`
/// matching `data`'s shape, labels dense in [0, k) with k >= 2 — then
/// splits it by class and returns one density model g(·, D_c) per class
/// (index = label), built with `density` over a micro-cluster summary of
/// the class's rows in data order, built with `clustering`. A summary
/// absorbs every row, so models[c].total_count() is the class size |D_c|.
/// `who` prefixes the error messages.
Result<std::vector<McDensityModel>> TrainClassModels(
    const Dataset& data, const ErrorModel& errors,
    const MicroClusterer::Options& clustering,
    const DensityEvalOptions& density, std::string_view who);

}  // namespace udm

#endif  // UDM_CLASSIFY_CLASS_MODELS_H_
