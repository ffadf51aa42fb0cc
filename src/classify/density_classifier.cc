#include "classify/density_classifier.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace udm {
namespace {

/// Hard cap on candidate-subspace density evaluations per prediction;
/// expansion stops once exceeded. Guards pathological blowups in very high
/// dimensions.
constexpr size_t kMaxEvaluations = 200000;

/// Publishes one Explain's roll-up tallies: subspaces scored, subspaces
/// that qualified (beat the threshold), which fallback rung decided (the
/// Bayes rule or the class prior), and why the context cut the roll-up
/// short. One increment per counter per Explain.
void RecordRollUp(size_t scored, size_t qualified,
                  DensityBasedClassifier::Decider decider, StopCause stop) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& scored_counter =
      registry.GetCounter("classify.subspaces_scored");
  static obs::Counter& qualified_counter =
      registry.GetCounter("classify.subspaces_qualified");
  static obs::Counter& fallback_counter =
      registry.GetCounter("classify.fallbacks");
  static obs::Counter& prior_counter = registry.GetCounter("classify.priors");
  static obs::Counter& deadline_counter =
      registry.GetCounter("classify.truncated.deadline");
  static obs::Counter& budget_counter =
      registry.GetCounter("classify.truncated.budget");
  if (scored != 0) scored_counter.Increment(scored);
  if (qualified != 0) qualified_counter.Increment(qualified);
  if (decider == DensityBasedClassifier::kBayes) fallback_counter.Increment();
  if (decider == DensityBasedClassifier::kPrior) prior_counter.Increment();
  if (stop == StopCause::kDeadline) deadline_counter.Increment();
  if (stop == StopCause::kBudget) budget_counter.Increment();
}

}  // namespace

const char* DeciderToString(DensityBasedClassifier::Decider decider) {
  switch (decider) {
    case DensityBasedClassifier::kRules:
      return "rules";
    case DensityBasedClassifier::kBayes:
      return "bayes";
    case DensityBasedClassifier::kPrior:
      return "prior";
  }
  return "?";
}

Result<DensityBasedClassifier> DensityBasedClassifier::Train(
    const Dataset& data, const ErrorModel& errors, const Options& options) {
  if (options.accuracy_threshold <= 0.0) {
    return Status::InvalidArgument(
        "DensityBasedClassifier: accuracy_threshold must be > 0");
  }
  MicroClusterer::Options mc_options;
  mc_options.num_clusters = options.num_clusters;
  mc_options.distance = options.distance;

  // Summaries are built separately for each D_i and for D (§3); this is the
  // entire preprocessing step.
  UDM_ASSIGN_OR_RETURN(std::vector<McDensityModel> class_models,
                       TrainClassModels(data, errors, mc_options,
                                        options.density,
                                        "DensityBasedClassifier"));
  UDM_ASSIGN_OR_RETURN(std::vector<MicroCluster> global_summary,
                       BuildMicroClusters(data, errors, mc_options));
  UDM_ASSIGN_OR_RETURN(McDensityModel global_model,
                       McDensityModel::Build(global_summary, options.density));

  const std::string name =
      errors.IsZero() ? "density_no_adjust" : "density_error_adjusted";
  return DensityBasedClassifier(std::move(class_models),
                                std::move(global_model), data.NumDims(),
                                options, name);
}

double DensityBasedClassifier::LogAccuracy(size_t c, double log_class,
                                           double log_global) const {
  // log A(x,S,l_c) = log|D_c| + log g(x,S,D_c) − log|D| − log g(x,S,D).
  return log_counts_[c] + log_class - log_total_ - log_global;
}

template <typename ClassLogDensity>
DensityBasedClassifier::SubspaceScore DensityBasedClassifier::BestClass(
    double log_global, ClassLogDensity&& log_class) const {
  SubspaceScore best;
  for (size_t c = 0; c < class_models_.size(); ++c) {
    const double log_acc = LogAccuracy(c, log_class(c), log_global);
    if (c == 0 || log_acc > best.log_accuracy) {
      best.label = static_cast<int>(c);
      best.log_accuracy = log_acc;
    }
  }
  return best;
}

DensityBasedClassifier::SubspaceScore DensityBasedClassifier::ScoreSubspace(
    std::span<const double> x, std::span<const size_t> dims) const {
  return BestClass(global_model_.LogEvaluateSubspace(x, dims), [&](size_t c) {
    return class_models_[c].LogEvaluateSubspace(x, dims);
  });
}

double DensityBasedClassifier::LogLocalAccuracy(
    std::span<const double> x, std::span<const size_t> dims, int label) const {
  UDM_CHECK(label >= 0 && static_cast<size_t>(label) < class_models_.size())
      << "LogLocalAccuracy: label out of range";
  const size_t c = static_cast<size_t>(label);
  const double log_global = global_model_.LogEvaluateSubspace(x, dims);
  return LogAccuracy(c, class_models_[c].LogEvaluateSubspace(x, dims),
                     log_global);
}

Result<int> DensityBasedClassifier::PredictBayes(
    std::span<const double> x) const {
  if (x.size() != num_dims_) {
    return Status::InvalidArgument(
        "DensityBasedClassifier: point dimension mismatch");
  }
  std::vector<size_t> all_dims(num_dims_);
  for (size_t j = 0; j < num_dims_; ++j) all_dims[j] = j;
  int best = 0;
  double best_score = 0.0;
  for (size_t c = 0; c < class_models_.size(); ++c) {
    const double score =
        log_counts_[c] + class_models_[c].LogEvaluateSubspace(x, all_dims);
    if (c == 0 || score > best_score) {
      best = static_cast<int>(c);
      best_score = score;
    }
  }
  return best;
}

Result<int> DensityBasedClassifier::Predict(std::span<const double> x) const {
  UDM_ASSIGN_OR_RETURN(const Explanation explanation, Explain(x));
  return explanation.predicted;
}

Result<int> DensityBasedClassifier::Predict(std::span<const double> x,
                                            ExecContext& ctx) const {
  UDM_ASSIGN_OR_RETURN(const Explanation explanation, Explain(x, ctx));
  return explanation.predicted;
}

Result<DensityBasedClassifier::Explanation> DensityBasedClassifier::Explain(
    std::span<const double> x) const {
  ExecContext unbounded;
  return Explain(x, unbounded);
}

Result<DensityBasedClassifier::Explanation> DensityBasedClassifier::Explain(
    std::span<const double> x, ExecContext& ctx) const {
  if (x.size() != num_dims_) {
    return Status::InvalidArgument(
        "DensityBasedClassifier: point dimension mismatch");
  }
  obs::TraceSpan span("classify.explain");
  // A context already spent on entry (a later point of a batch sharing one
  // deadline, say) gets the prior rung: argmax log|D_c|, ties to the lower
  // label, at zero kernel evals. Cancellation still fails without work.
  if (const Status entry = ctx.Check(); !entry.ok()) {
    if (entry.code() == StatusCode::kCancelled) return entry;
    Explanation explanation;
    explanation.predicted = static_cast<int>(
        std::max_element(log_counts_.begin(), log_counts_.end()) -
        log_counts_.begin());
    explanation.used_fallback = kPrior;
    explanation.stop_cause = entry.code() == StatusCode::kDeadlineExceeded
                                 ? StopCause::kDeadline
                                 : StopCause::kBudget;
    RecordRollUp(0, 0, kPrior, explanation.stop_cause);
    return explanation;
  }
  const double log_threshold = std::log(options_.accuracy_threshold);

  struct Qualified {
    std::vector<size_t> dims;
    SubspaceScore score;
  };

  size_t evaluations = 0;
  const auto budget_left = [&]() { return evaluations < kMaxEvaluations; };

  // Kernel-eval cost of scoring one subspace dimension: every pseudo-point
  // in the class models plus the global model contributes one term.
  size_t class_pseudo_per_dim = 0;
  for (const McDensityModel& model : class_models_) {
    class_pseudo_per_dim += model.num_clusters();
  }
  const size_t pseudo_per_dim =
      class_pseudo_per_dim + global_model_.num_clusters();

  // The roll-up is an anytime algorithm: a deadline/budget violation at a
  // subspace boundary stops expansion and the prediction is made from the
  // subspaces qualified so far. Cancellation is never absorbed.
  StopCause stop = StopCause::kCompleted;
  Status cancelled;
  const auto boundary_ok = [&](size_t subspace_dims) {
    Status s = ctx.ChargeKernelEvals(subspace_dims * pseudo_per_dim);
    if (s.ok()) s = ctx.Check();
    if (s.ok()) return true;
    if (s.code() == StatusCode::kCancelled) {
      cancelled = s;
    } else {
      stop = s.code() == StatusCode::kDeadlineExceeded ? StopCause::kDeadline
                                                       : StopCause::kBudget;
    }
    return false;
  };

  // Level 1: all singleton subspaces. One singleton pass per model fills
  // the bank (row c = class c, row k = global) up front; the loop then
  // charges, checks and scores each singleton exactly as if it were read
  // on demand, so a deadline or budget stops at the same subspace.
  const size_t k = class_models_.size();
  std::vector<double> bank((k + 1) * num_dims_);
  for (size_t c = 0; c <= k; ++c) {
    const McDensityModel& model = c < k ? class_models_[c] : global_model_;
    model.LogEvaluateSingletons(
        x, std::span<double>(bank).subspan(c * num_dims_, num_dims_));
  }
  std::vector<Qualified> level1;
  for (size_t j = 0; j < num_dims_; ++j) {
    if (!boundary_ok(1)) break;
    ++evaluations;
    const SubspaceScore score =
        BestClass(bank[k * num_dims_ + j],
                  [&](size_t c) { return bank[c * num_dims_ + j]; });
    if (score.log_accuracy > log_threshold) {
      level1.push_back({{j}, score});
    }
  }
  if (!cancelled.ok()) {
    RecordRollUp(evaluations, level1.size(), kRules, stop);
    return cancelled;
  }

  std::vector<Qualified> qualifying = level1;
  std::vector<Qualified> frontier = level1;

  // Roll-up: join L_i with L_1 to form C_{i+1} (Figure 3).
  size_t level = 1;
  while (!frontier.empty() && budget_left() && stop == StopCause::kCompleted) {
    if (options_.max_subspace_dim != 0 && level >= options_.max_subspace_dim) {
      break;
    }
    std::set<std::vector<size_t>> candidates;
    for (const Qualified& base : frontier) {
      for (const Qualified& single : level1) {
        const size_t extra = single.dims[0];
        if (std::binary_search(base.dims.begin(), base.dims.end(), extra)) {
          continue;
        }
        std::vector<size_t> extended = base.dims;
        extended.insert(
            std::upper_bound(extended.begin(), extended.end(), extra), extra);
        candidates.insert(std::move(extended));
      }
    }
    std::vector<Qualified> next;
    for (const std::vector<size_t>& dims : candidates) {
      if (!budget_left()) break;
      if (!boundary_ok(dims.size())) break;
      ++evaluations;
      const SubspaceScore score = ScoreSubspace(x, dims);
      if (score.log_accuracy > log_threshold) {
        next.push_back({dims, score});
      }
    }
    qualifying.insert(qualifying.end(), next.begin(), next.end());
    frontier = std::move(next);
    ++level;
  }
  if (!cancelled.ok()) {
    RecordRollUp(evaluations, qualifying.size(), kRules, stop);
    return cancelled;
  }

  Explanation explanation;
  explanation.stop_cause = stop;
  explanation.used_fallback = qualifying.empty() ? kBayes : kRules;
  RecordRollUp(evaluations, qualifying.size(), explanation.used_fallback,
               stop);
  if (qualifying.empty()) {
    // Fallback (paper unspecified): the Bayes rule over all dimensions,
    // which reads only the class models. Runs even after a deadline/budget
    // stop so every query yields a prediction; the charge is recorded but
    // cannot fail the query.
    (void)ctx.ChargeKernelEvals(num_dims_ * class_pseudo_per_dim);
    UDM_ASSIGN_OR_RETURN(explanation.predicted, PredictBayes(x));
    return explanation;
  }

  // Greedy selection of non-overlapping subspaces by descending accuracy.
  std::sort(qualifying.begin(), qualifying.end(),
            [](const Qualified& a, const Qualified& b) {
              if (a.score.log_accuracy != b.score.log_accuracy) {
                return a.score.log_accuracy > b.score.log_accuracy;
              }
              return a.dims < b.dims;  // deterministic tie-break
            });
  std::vector<bool> used_dims(num_dims_, false);
  for (const Qualified& q : qualifying) {
    if (options_.max_selected_subspaces != 0 &&
        explanation.selected.size() >= options_.max_selected_subspaces) {
      break;
    }
    bool overlaps = false;
    for (size_t dim : q.dims) {
      if (used_dims[dim]) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) continue;
    for (size_t dim : q.dims) used_dims[dim] = true;
    explanation.selected.push_back(
        Rule{q.dims, q.score.label, q.score.log_accuracy});
  }

  // Majority vote among selected rules; ties go to the earliest (highest
  // accuracy) rule voting for that class.
  std::vector<size_t> votes(class_models_.size(), 0);
  for (const Rule& rule : explanation.selected) {
    ++votes[static_cast<size_t>(rule.label)];
  }
  size_t best_votes = 0;
  for (size_t votes_c : votes) best_votes = std::max(best_votes, votes_c);
  for (const Rule& rule : explanation.selected) {
    if (votes[static_cast<size_t>(rule.label)] == best_votes) {
      explanation.predicted = rule.label;
      break;
    }
  }
  return explanation;
}

}  // namespace udm
