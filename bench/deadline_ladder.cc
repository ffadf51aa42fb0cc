// Robustness harness: the accuracy/latency tradeoff of the roll-up
// classifier's ladder as the per-query deadline tightens. Each query runs
// DensityBasedClassifier::Explain under its ExecContext: the anytime
// roll-up (truncated where the deadline cuts it), the Bayes fallback when
// no rule qualified, and the class prior when the deadline had already
// passed on entry. The sweep shows the ladder trading accuracy for
// bounded latency instead of failing, and that the worst case tracks the
// deadline rather than the workload.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "classify/density_classifier.h"
#include "common/deadline.h"
#include "common/exec_context.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "dataset/uci_like.h"
#include "error/perturbation.h"

int main(int argc, char** argv) {
  const udm::FlagValues& flags = udm::bench::ParseCommonFlags(
      argc, argv, "deadline_ladder",
      {{"deadline-ms", udm::FlagKind::kReal, "0",
        "narrow the sweep to {unlimited, this deadline} (0 = full sweep)"}});
  const udm::Result<udm::Dataset> clean =
      udm::bench::LoadDataset("adult", 6000, 1);
  UDM_CHECK(clean.ok()) << clean.status().ToString();

  udm::PerturbationOptions perturb;
  perturb.f = 1.2;
  const udm::Result<udm::UncertainDataset> uncertain =
      udm::Perturb(*clean, perturb);
  UDM_CHECK(uncertain.ok()) << uncertain.status().ToString();

  // Holdout split: last `num_queries` rows are the query stream.
  const size_t num_queries = std::min<size_t>(300, clean->NumRows() / 4);
  const size_t train_n = clean->NumRows() - num_queries;
  std::vector<size_t> train_idx(train_n);
  for (size_t i = 0; i < train_n; ++i) train_idx[i] = i;
  std::vector<size_t> query_idx(num_queries);
  for (size_t i = 0; i < num_queries; ++i) query_idx[i] = train_n + i;
  const udm::Dataset train = uncertain->data.Select(train_idx);
  const udm::ErrorModel train_errors = uncertain->errors.Select(train_idx);
  const udm::Dataset queries = uncertain->data.Select(query_idx);

  udm::DensityBasedClassifier::Options options;
  options.num_clusters = 60;
  const udm::Result<udm::DensityBasedClassifier> classifier =
      udm::DensityBasedClassifier::Train(train, train_errors, options);
  UDM_CHECK(classifier.ok()) << classifier.status().ToString();

  // 0 = unlimited (the full roll-up baseline), then a tightening sweep down
  // to deadlines shorter than one singleton pass (the Bayes rule decides)
  // and than the call itself (the prior rung answers).
  // --deadline-ms narrows the sweep to {unlimited, the given deadline}.
  std::vector<double> deadlines_ms{0,    50,   5,     1,     0.5,
                                   0.1,  0.05, 0.01,  0.001, 0.0001};
  const double narrowed = flags.Real("deadline-ms");
  if (narrowed > 0) deadlines_ms = {0, narrowed};

  udm::bench::Series accuracy{"accuracy", {}};
  udm::bench::Series mean_latency{"mean latency (ms)", {}};
  udm::bench::Series max_latency{"max latency (ms)", {}};
  udm::bench::Series tier_rules{"served rules", {}};
  udm::bench::Series tier_bayes{"served bayes", {}};
  udm::bench::Series tier_prior{"served prior", {}};
  udm::bench::Series truncated{"truncated", {}};

  for (const double deadline_ms : deadlines_ms) {
    size_t correct = 0;
    double total_latency = 0.0;
    double worst_latency = 0.0;
    double tiers[3] = {0, 0, 0};  // indexed by Decider: rules, bayes, prior
    double cut = 0;
    for (size_t i = 0; i < queries.NumRows(); ++i) {
      const udm::Deadline deadline =
          deadline_ms > 0 ? udm::Deadline::AfterSeconds(deadline_ms / 1000.0)
                          : udm::Deadline::Infinite();
      udm::ExecContext ctx(deadline);
      udm::Stopwatch watch;
      const udm::Result<udm::DensityBasedClassifier::Explanation> explained =
          classifier->Explain(queries.Row(i), ctx);
      const double latency_ms = watch.ElapsedSeconds() * 1000.0;
      UDM_CHECK(explained.ok()) << explained.status().ToString();
      total_latency += latency_ms;
      worst_latency = std::max(worst_latency, latency_ms);
      if (explained->predicted == queries.Label(i)) ++correct;
      ++tiers[explained->used_fallback];
      if (explained->stop_cause != udm::StopCause::kCompleted) ++cut;
    }
    accuracy.y.push_back(static_cast<double>(correct) / queries.NumRows());
    mean_latency.y.push_back(total_latency / queries.NumRows());
    max_latency.y.push_back(worst_latency);
    tier_rules.y.push_back(tiers[udm::DensityBasedClassifier::kRules]);
    tier_bayes.y.push_back(tiers[udm::DensityBasedClassifier::kBayes]);
    tier_prior.y.push_back(tiers[udm::DensityBasedClassifier::kPrior]);
    truncated.y.push_back(cut);
  }

  udm::bench::PrintFigureHeader(
      "Robustness: deadline ladder",
      "accuracy and latency vs per-query deadline (roll-up ladder)",
      "adult-like N=" + std::to_string(clean->NumRows()) + ", f=1.2, q=" +
          std::to_string(options.num_clusters) + ", " +
          std::to_string(num_queries) + " queries; deadline 0 = unlimited");
  udm::bench::PrintTable(
      "deadline_ms", deadlines_ms,
      {accuracy, mean_latency, max_latency, tier_rules, tier_bayes,
       tier_prior, truncated},
      "%12.4f", "%18.4f");

  // Shape criteria: latency must fall as the deadline tightens, the
  // tightest deadline must have cut at least one roll-up short, and every
  // query must get an answer from some rung at every deadline.
  const double unlimited_mean = mean_latency.y.front();
  const double tightest_mean = mean_latency.y.back();
  udm::bench::ShapeCheck("mean latency shrinks under tight deadlines",
                         tightest_mean <= unlimited_mean);
  udm::bench::ShapeCheck("tight deadline forces degradation",
                         truncated.y.back() > 0);
  udm::bench::ShapeCheck("every query was served at every deadline", [&] {
    for (size_t i = 0; i < deadlines_ms.size(); ++i) {
      if (tier_rules.y[i] + tier_bayes.y[i] + tier_prior.y[i] !=
          static_cast<double>(num_queries)) {
        return false;
      }
    }
    return true;
  }());
  return 0;
}
