#ifndef UDM_CLASSIFY_CLASS_MODELS_H_
#define UDM_CLASSIFY_CLASS_MODELS_H_

#include <functional>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "error/error_model.h"
#include "kde/eval.h"
#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"

namespace udm {

/// Sees one class's rows (in data order) with their errors before that
/// class's summary is built; a non-OK status aborts training.
using ClassSubsetVisitor =
    std::function<Status(const Dataset& subset, const ErrorModel& errors)>;

/// The one per-class training path of the density classifiers (the Fig. 3
/// roll-up and the degradation ladder). Validates labeled uncertain data —
/// non-empty, `errors` matching `data`'s shape, labels dense in [0, k) with
/// k >= 2 — then splits it by class and returns one density model
/// g(·, D_c) per class (index = label), built with `density` over a
/// micro-cluster summary built with `clustering`. A summary absorbs every
/// row, so models[c].total_count() is the class size |D_c|. `who` prefixes
/// the error messages. `visit`, when set, is called once per class on the
/// same split, for models fitted beside the summaries.
Result<std::vector<McDensityModel>> TrainClassModels(
    const Dataset& data, const ErrorModel& errors,
    const MicroClusterer::Options& clustering,
    const DensityEvalOptions& density, std::string_view who,
    const ClassSubsetVisitor& visit = {});

}  // namespace udm

#endif  // UDM_CLASSIFY_CLASS_MODELS_H_
