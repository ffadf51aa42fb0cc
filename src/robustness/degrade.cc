#include "robustness/degrade.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "classify/class_models.h"
#include "microcluster/clusterer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace udm {

namespace {

/// Ladder outcome counters (`classify.*`), aggregated across classifier
/// instances — the per-instance DegradationReport stays the precise record.
struct ClassifyMetrics {
  obs::Counter& served_exact;
  obs::Counter& served_micro;
  obs::Counter& served_prior;
  obs::Counter& degraded_deadline;
  obs::Counter& degraded_budget;
  obs::Counter& admission_rejections;

  static ClassifyMetrics& Get() {
    static ClassifyMetrics* metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return new ClassifyMetrics{
          registry.GetCounter("classify.served.exact"),
          registry.GetCounter("classify.served.micro"),
          registry.GetCounter("classify.served.prior"),
          registry.GetCounter("classify.degraded.deadline"),
          registry.GetCounter("classify.degraded.budget"),
          registry.GetCounter("classify.admission.rejections")};
    }();
    return *metrics;
  }
};

/// Fraction of the remaining time the exact rung may spend; the rest is
/// the reserve that lets the micro rung still make its (much cheaper)
/// pass after a fall.
constexpr double kExactTimeFraction = 0.8;

/// argmax_c [ log prior_c + log f_c(x) ] over one rung's models. Any
/// violation of `ctx` aborts the whole rung — no partial posteriors.
template <typename Model>
Result<int> BestBayesLabel(const std::vector<Model>& models,
                           const std::vector<double>& log_priors,
                           std::span<const double> x,
                           std::span<const size_t> dims, ExecContext& ctx) {
  int best = 0;
  double best_score = 0.0;
  EvalRequest request;
  request.points = x;
  request.subspace = dims;
  request.ctx = &ctx;
  request.log_space = true;
  for (size_t c = 0; c < models.size(); ++c) {
    // One-point requests never return partials: a context violation
    // surfaces as the failed status that aborts this rung.
    UDM_ASSIGN_OR_RETURN(const EvalResult eval, models[c].Evaluate(request));
    const double score = log_priors[c] + eval.densities[0];
    if (c == 0 || score > best_score) {
      best = static_cast<int>(c);
      best_score = score;
    }
  }
  return best;
}

}  // namespace

const char* DegradationTierToString(DegradationTier tier) {
  switch (tier) {
    case DegradationTier::kExact:
      return "exact";
    case DegradationTier::kMicroCluster:
      return "micro-cluster";
    case DegradationTier::kPrior:
      return "prior";
  }
  return "unknown";
}

void DegradationReport::Merge(const DegradationReport& other) {
  served_exact += other.served_exact;
  served_micro += other.served_micro;
  served_prior += other.served_prior;
  degraded_deadline += other.degraded_deadline;
  degraded_budget += other.degraded_budget;
}

std::string DegradationReport::ToString() const {
  std::ostringstream out;
  out << "served " << total_served() << " (exact=" << served_exact
      << " micro=" << served_micro << " prior=" << served_prior
      << "), degradations deadline=" << degraded_deadline
      << " budget=" << degraded_budget;
  return out.str();
}

Result<DegradingClassifier> DegradingClassifier::Train(
    const Dataset& data, const ErrorModel& errors, const Options& options) {
  MicroClusterer::Options mc_options;
  mc_options.num_clusters = options.num_clusters;

  // The exact rung's per-class error KDEs are fitted on the same class
  // split that the micro rung's summaries are built from.
  std::vector<ErrorKernelDensity> exact_models;
  UDM_ASSIGN_OR_RETURN(
      std::vector<McDensityModel> micro_models,
      TrainClassModels(
          data, errors, mc_options, options.density, "DegradingClassifier",
          [&](const Dataset& subset, const ErrorModel& subset_errors) {
            Result<ErrorKernelDensity> exact = ErrorKernelDensity::Fit(
                subset, subset_errors, options.density);
            if (!exact.ok()) return exact.status();
            exact_models.push_back(std::move(*exact));
            return Status::OK();
          }));
  std::vector<double> log_priors;
  for (const McDensityModel& micro : micro_models) {
    log_priors.push_back(std::log(static_cast<double>(micro.total_count()) /
                                  static_cast<double>(data.NumRows())));
  }
  return DegradingClassifier(std::move(exact_models), std::move(micro_models),
                             std::move(log_priors), data.NumDims());
}

Result<DegradingClassifier::Prediction> DegradingClassifier::Predict(
    std::span<const double> x) {
  ExecContext unbounded;
  return Predict(x, unbounded);
}

Result<DegradingClassifier::Prediction> DegradingClassifier::Predict(
    std::span<const double> x, ExecContext& ctx) {
  if (x.size() != num_dims_) {
    return Status::InvalidArgument(
        "DegradingClassifier: point dimension mismatch");
  }
  // Cancellation is the only non-degradable exit, and it must leave the
  // classifier (report included) untouched — check it before any work.
  if (ctx.cancellation().IsCancelled()) {
    return Status::Cancelled("DegradingClassifier: query cancelled");
  }

  // Walk the ladder. A deadline/budget violation inside (or admission
  // failure before) a rung abandons it and records why.
  UDM_TRACE_SPAN("classify.predict");
  const auto note_degradation = [&](StatusCode cause) {
    if (cause == StatusCode::kDeadlineExceeded) {
      ++report_.degraded_deadline;
      ClassifyMetrics::Get().degraded_deadline.Increment();
    } else {
      ++report_.degraded_budget;
      ClassifyMetrics::Get().degraded_budget.Increment();
    }
  };

  // Kernel evaluations the caller's budget still affords.
  const auto remaining_evals = [&]() -> uint64_t {
    const uint64_t max = ctx.budget().max_kernel_evals;
    if (max == 0) return std::numeric_limits<uint64_t>::max();
    const uint64_t spent = ctx.kernel_evals_spent();
    return max > spent ? max - spent : 0;
  };

  // Rung costs are deterministic, so budget admission is a pre-flight
  // comparison; each rung runs under a child context carrying the caller's
  // cancellation token (budget-unlimited — admission already decided), and
  // its spend is charged back to the caller afterwards.
  const uint64_t micro_reserve =
      micro_cost_ < std::numeric_limits<uint64_t>::max() - exact_cost_
          ? micro_cost_
          : 0;

  // Rung 1: exact per-class error-KDE Bayes scores. Admitted only with
  // budget for itself plus the micro reserve, under a deadline that keeps
  // a time reserve for the fall.
  if (remaining_evals() < exact_cost_ + micro_reserve) {
    ClassifyMetrics::Get().admission_rejections.Increment();
    note_degradation(StatusCode::kResourceExhausted);
  } else {
    Deadline tier_deadline = ctx.deadline();
    if (!tier_deadline.is_infinite()) {
      tier_deadline = Deadline::AfterSeconds(
          ctx.deadline().RemainingSeconds() * kExactTimeFraction);
    }
    ExecContext tier_ctx(tier_deadline, ctx.cancellation(), ExecBudget{});
    const Result<int> label =
        BestBayesLabel(exact_models_, log_priors_, x, all_dims_, tier_ctx);
    (void)ctx.ChargeKernelEvals(tier_ctx.kernel_evals_spent());
    if (label.ok()) {
      ++report_.served_exact;
      ClassifyMetrics::Get().served_exact.Increment();
      return Prediction{*label, DegradationTier::kExact};
    }
    if (label.status().code() == StatusCode::kCancelled) {
      return label.status();
    }
    note_degradation(label.status().code());
  }

  // Rung 2: micro-cluster surrogate under the full remaining deadline.
  if (remaining_evals() < micro_cost_) {
    ClassifyMetrics::Get().admission_rejections.Increment();
    note_degradation(StatusCode::kResourceExhausted);
  } else {
    ExecContext tier_ctx(ctx.deadline(), ctx.cancellation(), ExecBudget{});
    const Result<int> label =
        BestBayesLabel(micro_models_, log_priors_, x, all_dims_, tier_ctx);
    (void)ctx.ChargeKernelEvals(tier_ctx.kernel_evals_spent());
    if (label.ok()) {
      ++report_.served_micro;
      ClassifyMetrics::Get().served_micro.Increment();
      return Prediction{*label, DegradationTier::kMicroCluster};
    }
    if (label.status().code() == StatusCode::kCancelled) {
      return label.status();
    }
    note_degradation(label.status().code());
  }

  // Rung 3: class priors — zero evaluations, always affordable.
  Prediction best{0, DegradationTier::kPrior};
  for (size_t c = 1; c < log_priors_.size(); ++c) {
    if (log_priors_[c] > log_priors_[static_cast<size_t>(best.label)]) {
      best.label = static_cast<int>(c);
    }
  }
  ++report_.served_prior;
  ClassifyMetrics::Get().served_prior.Increment();
  return best;
}

}  // namespace udm
