#ifndef UDM_KDE_GRID_H_
#define UDM_KDE_GRID_H_

#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "kde/eval.h"

namespace udm {

/// Grid evaluation utilities for density models. ErrorKernelDensity and
/// McDensityModel both expose the batched
/// `Evaluate(EvalRequest)` entry point; these helpers turn it into 1-D
/// profiles and 2-D fields for inspection, plotting, and the numeric
/// integration used throughout the test suite. Sampling goes through the
/// batch API — not a per-point std::function — so grids inherit the
/// model's ExecContext accounting and spatial-index pruning instead of
/// bypassing them. Sampling is serial on the calling thread.

/// Per-call controls threaded through to the underlying EvalRequest.
struct GridSampleOptions {
  /// Subspace S for the g(x, S, D) primitive; empty = all dimensions.
  std::span<const size_t> subspace;
  /// Deadline/budget contract; null = unbounded. Grid sampling is
  /// all-or-nothing: a context stop fails the call rather than returning
  /// a ragged profile.
  ExecContext* ctx = nullptr;
  /// Spatial-index policy (bit-identical values under every mode).
  IndexMode index = IndexMode::kAuto;
};

/// A sampled 1-D density profile along dimension `dim`, other coordinates
/// fixed at `anchor`.
struct DensityProfile {
  size_t dim = 0;
  std::vector<double> xs;
  std::vector<double> densities;
};

/// A sampled 2-D density field over dimensions (dim_x, dim_y), other
/// coordinates fixed at `anchor`. Row-major: values[iy * xs.size() + ix].
struct DensityField {
  size_t dim_x = 0;
  size_t dim_y = 0;
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<double> values;
};

namespace grid_internal {

/// Non-template grid builders shared by the SampleProfile/SampleField
/// templates below: argument validation plus the row-major query-point
/// buffer an EvalRequest consumes.
Result<DensityProfile> MakeProfileQuery(std::span<const double> anchor,
                                        size_t dim, double lo, double hi,
                                        size_t steps,
                                        std::vector<double>* points);
Result<DensityField> MakeFieldQuery(std::span<const double> anchor,
                                    size_t dim_x, size_t dim_y, double lo_x,
                                    double hi_x, double lo_y, double hi_y,
                                    size_t steps_x, size_t steps_y,
                                    std::vector<double>* points);

/// Runs the batch and moves the densities out, failing on a context stop
/// (grids are all-or-nothing).
template <typename Model>
Result<std::vector<double>> EvaluateGrid(const Model& model,
                                         std::span<const double> points,
                                         const GridSampleOptions& options,
                                         const char* what) {
  EvalRequest request;
  request.points = points;
  request.subspace = options.subspace;
  request.ctx = options.ctx;
  request.index = options.index;
  UDM_ASSIGN_OR_RETURN(EvalResult result, model.Evaluate(request));
  if (!result.complete()) {
    return Status::DeadlineExceeded(std::string(what) +
                                    ": evaluation stopped early");
  }
  return std::move(result.densities);
}

}  // namespace grid_internal

/// Samples the model along dimension `dim` over [lo, hi] with `steps`
/// points (>= 2); `anchor` supplies the other coordinates and must match
/// the model's dimensionality. `Model` is anything with the batched
/// `Evaluate(EvalRequest)` entry point (the fitted estimators, or an
/// AnalyticDensity for closed-form references).
template <typename Model>
Result<DensityProfile> SampleProfile(const Model& model,
                                     std::vector<double> anchor, size_t dim,
                                     double lo, double hi, size_t steps,
                                     const GridSampleOptions& options = {}) {
  std::vector<double> points;
  UDM_ASSIGN_OR_RETURN(
      DensityProfile profile,
      grid_internal::MakeProfileQuery(anchor, dim, lo, hi, steps, &points));
  UDM_ASSIGN_OR_RETURN(profile.densities, grid_internal::EvaluateGrid(
                                              model, points, options,
                                              "SampleProfile"));
  return profile;
}

/// Samples a 2-D field over [lo_x, hi_x] x [lo_y, hi_y].
template <typename Model>
Result<DensityField> SampleField(const Model& model,
                                 std::vector<double> anchor, size_t dim_x,
                                 size_t dim_y, double lo_x, double hi_x,
                                 double lo_y, double hi_y, size_t steps_x,
                                 size_t steps_y,
                                 const GridSampleOptions& options = {}) {
  std::vector<double> points;
  UDM_ASSIGN_OR_RETURN(
      DensityField field,
      grid_internal::MakeFieldQuery(anchor, dim_x, dim_y, lo_x, hi_x, lo_y,
                                    hi_y, steps_x, steps_y, &points));
  UDM_ASSIGN_OR_RETURN(
      field.values,
      grid_internal::EvaluateGrid(model, points, options, "SampleField"));
  return field;
}

/// Adapts a closed-form density `fn(x) -> double` to the batched
/// Evaluate(EvalRequest) surface so analytic references (tests, examples)
/// sample through the same grid helpers as fitted models. Serial, ignores
/// `subspace` (the callable sees the full point); honors log_space and the
/// IndexMode contract (kForce fails — there is nothing to index).
template <typename Fn>
class AnalyticDensity {
 public:
  AnalyticDensity(size_t num_dims, Fn fn)
      : num_dims_(num_dims), fn_(std::move(fn)) {}

  size_t num_dims() const { return num_dims_; }

  Result<EvalResult> Evaluate(const EvalRequest& request) const {
    if (num_dims_ == 0 || request.points.size() % num_dims_ != 0) {
      return Status::InvalidArgument(
          "AnalyticDensity: points not a multiple of num_dims");
    }
    if (request.index == IndexMode::kForce) {
      return Status::FailedPrecondition(
          "AnalyticDensity: no spatial index to force");
    }
    const size_t k = request.points.size() / num_dims_;
    EvalResult result;
    result.densities.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      const double v = fn_(request.points.subspan(i * num_dims_, num_dims_));
      result.densities.push_back(request.log_space ? std::log(v) : v);
    }
    result.stats.points_requested = k;
    result.stats.points_evaluated = k;
    return result;
  }

 private:
  size_t num_dims_;
  Fn fn_;
};

template <typename Fn>
AnalyticDensity(size_t, Fn) -> AnalyticDensity<Fn>;

/// Trapezoid integral of a profile (the tests' "does it integrate to 1"
/// primitive).
double IntegrateProfile(const DensityProfile& profile);

/// Index of the profile's highest-density sample (mode).
size_t ProfileArgmax(const DensityProfile& profile);

/// Renders a field as a rows x cols ASCII heat map (' ' to '#' ramp),
/// lowest y first. For terminal-level inspection in the examples.
std::string RenderAscii(const DensityField& field);

}  // namespace udm

#endif  // UDM_KDE_GRID_H_
