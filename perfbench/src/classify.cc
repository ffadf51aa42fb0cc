// classify: the read side of the summaries. A DensityBasedClassifier
// trained during set-up on noisy ionosphere-like data (d=34, k=2, the
// Fig. 10 setting f=0.6, q=140) explains held-out noisy points one at a
// time: the Figure 3 roll-up over per-subspace LogEvaluateSubspace reads,
// with no micro-cluster assignment at all.
#include <cmath>
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "classify/density_classifier.h"
#include "dataset/uci_like.h"
#include "error/perturbation.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The clean rows are fixed, like a UCI file (generator seed
/// kDatasetSeed); the run seed draws the injected errors and which
/// kTestRows rows are held out. The paper's ionosphere size (N=351) would
/// leave every per-class summary below q, so the run trains on a few
/// thousand rows.
constexpr size_t kRows = 7000;
constexpr size_t kTestRows = 4000;
constexpr uint64_t kDatasetSeed = 2;
constexpr double kErrorLevel = 0.6;
constexpr size_t kClusters = 140;
/// Accuracy the classifier must keep on the held-out points.
constexpr double kAccuracyFloor = 0.85;

struct Inputs {
  udm::UncertainDataset train;
  udm::Dataset test;  // noisy held-out points with their true labels
  udm::DensityBasedClassifier classifier;
};

udm::Result<Inputs> Setup(uint64_t seed) {
  UDM_ASSIGN_OR_RETURN(udm::Dataset clean,
                       udm::MakeIonosphereLike(kRows, kDatasetSeed));
  udm::PerturbationOptions perturb;
  perturb.f = kErrorLevel;
  perturb.seed = seed * 7 + 2;
  UDM_ASSIGN_OR_RETURN(udm::UncertainDataset noisy,
                       udm::Perturb(clean, perturb));
  std::vector<size_t> rows(kRows);
  std::iota(rows.begin(), rows.end(), size_t{0});
  std::shuffle(rows.begin(), rows.end(), std::mt19937_64(seed));
  const std::vector<size_t> test_rows(rows.begin(), rows.begin() + kTestRows);
  const std::vector<size_t> train_rows(rows.begin() + kTestRows, rows.end());
  udm::UncertainDataset train{noisy.data.Select(train_rows),
                              noisy.errors.Select(train_rows)};
  udm::DensityBasedClassifier::Options options;
  options.num_clusters = kClusters;
  UDM_ASSIGN_OR_RETURN(
      udm::DensityBasedClassifier classifier,
      udm::DensityBasedClassifier::Train(train.data, train.errors, options));
  return Inputs{std::move(train), noisy.data.Select(test_rows),
                std::move(classifier)};
}

/// One pass of Explain over every held-out point.
struct Pass {
  std::vector<double> example_us;
  double seconds = 0.0;
  uint64_t digest = 0;
  size_t correct = 0;
  size_t fallbacks = 0;
  size_t rules = 0;
  uint64_t kernel_evals = 0;
};

bool ExplainPass(const Inputs& in, Outcome& out, Pass& pass) {
  Digest digest;
  const size_t n = in.test.NumRows();
  pass.example_us.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    udm::ExecContext ctx;
    ++out.attempted;
    const int64_t start = NowNs();
    udm::Result<udm::DensityBasedClassifier::Explanation> explained = [&] {
      Tracer::Span span("classify.Explain");
      return in.classifier.Explain(in.test.Row(i), ctx);
    }();
    const int64_t elapsed = NowNs() - start;
    if (!explained.ok()) {
      ++out.failed;
      out.Check("classify_explain", false, explained.status().ToString());
      return false;
    }
    pass.example_us.push_back(static_cast<double>(elapsed) * 1e-3);
    pass.seconds += static_cast<double>(elapsed) * 1e-9;
    pass.kernel_evals += ctx.kernel_evals_spent();
    const udm::DensityBasedClassifier::Explanation& e = *explained;
    if (e.predicted == in.test.Label(i)) ++pass.correct;
    if (e.used_fallback) ++pass.fallbacks;
    pass.rules += e.selected.size();
    digest.AddU64(static_cast<uint64_t>(e.predicted));
    for (const udm::DensityBasedClassifier::Rule& rule : e.selected) {
      digest.AddU64(static_cast<uint64_t>(rule.label));
      digest.AddDouble(rule.log_accuracy);
      for (size_t dim : rule.dims) digest.AddU64(dim);
    }
  }
  pass.digest = digest.value();
  return true;
}

struct Phase {
  std::vector<Pass> passes;
  size_t examples = 0;
  double seconds = 0.0;
};

bool MeasurePhase(const Inputs& in, double seconds, Outcome& out,
                  Phase& phase) {
  const int64_t start = NowNs();
  while (phase.passes.size() < 2 || SecondsSince(start) < seconds) {
    Pass pass;
    if (!ExplainPass(in, out, pass)) return false;
    phase.examples += pass.example_us.size();
    phase.seconds += pass.seconds;
    phase.passes.push_back(std::move(pass));
  }
  return true;
}

/// p90 Explain latency of each pass (a host stall moves one pass, not the
/// figure).
std::vector<double> PassP90sUs(const Phase& phase) {
  std::vector<double> p90s;
  for (const Pass& pass : phase.passes) {
    p90s.push_back(Percentile(pass.example_us, 0.90));
  }
  return p90s;
}

/// Mean Explain time per example of each pass.
std::vector<double> PassMeansUs(const Phase& phase) {
  std::vector<double> means;
  for (const Pass& pass : phase.passes) means.push_back(Mean(pass.example_us));
  return means;
}

/// Times LogLocalAccuracy over every singleton subspace of every held-out
/// point: each call reads one dimension of the global and one class model,
/// 2·q pseudo-point terms. Returns ns per term.
double ProbeNsPerTerm(const Inputs& in) {
  const size_t n = in.test.NumRows();
  const size_t d = in.test.NumDims();
  double sink = 0.0;
  const int64_t start = NowNs();
  {
    Tracer::Span span("classify.LogLocalAccuracy");
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < d; ++j) {
        const size_t dims[] = {j};
        sink += in.classifier.LogLocalAccuracy(in.test.Row(i), dims, 0);
      }
    }
  }
  const double ns = static_cast<double>(NowNs() - start);
  if (!std::isfinite(sink)) return 0.0;
  return ns / static_cast<double>(n * d * 2 * kClusters);
}

}  // namespace

Outcome RunClassify(const Args& args) {
  Outcome out;
  std::vector<double> setup_s;
  udm::Result<Inputs> inputs = udm::Status::Internal("no setup ran");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t start = NowNs();
    inputs = Setup(args.seed);
    setup_s.push_back(SecondsSince(start));
    if (!inputs.ok()) {
      out.Check("classify_setup", false, inputs.status().ToString());
      return out;
    }
  }
  const Inputs& in = *inputs;
  const size_t examples = in.test.NumRows();

  Phase phase;
  Phase traced;
  bool ok = true;
  if (!args.trace) {
    ok = MeasurePhase(in, args.seconds, out, phase);
  } else {
    ok = MeasurePhase(in, args.seconds / 2, out, phase);
    Tracer::Get().set_enabled(true);
    ok = ok && MeasurePhase(in, args.seconds / 2, out, traced);
  }
  out.Check("classify_operations", ok && out.failed == 0,
            std::to_string(out.attempted) + " Explain calls, " +
                std::to_string(out.failed) + " failed");
  if (!ok) return out;

  // Predictions and selected rules must not change from pass to pass.
  const Pass& first = phase.passes.front();
  bool stable = true;
  for (const Phase* p : {&phase, &traced}) {
    for (const Pass& pass : p->passes) stable &= pass.digest == first.digest;
  }
  char digest_text[32];
  std::snprintf(digest_text, sizeof(digest_text), "%016llx",
                static_cast<unsigned long long>(first.digest));
  out.Check("classify_digest_stable", stable,
            std::string("digest ") + digest_text + " over " +
                std::to_string(phase.passes.size() + traced.passes.size()) +
                " passes of " + std::to_string(examples) + " examples");
  const double accuracy =
      static_cast<double>(first.correct) / static_cast<double>(examples);
  out.Check("classify_accuracy", accuracy >= kAccuracyFloor,
            "accuracy " + std::to_string(accuracy) + " >= floor " +
                std::to_string(kAccuracyFloor));

  out.Set("item_us", Median(PassMeansUs(phase)));
  out.Set("p90_us", Median(PassP90sUs(phase)));
  out.Set("items_per_s",
          static_cast<double>(phase.examples) / phase.seconds);
  out.Set("setup_s", Median(setup_s));
  out.Set("rss_peak_mb", SelfPeakRssMb());

  if (args.trace) {
    const Tracer& t = Tracer::Get();
    const double passes = static_cast<double>(traced.passes.size());
    const double explain_s = t.TotalSeconds("classify.Explain") / passes;
    const double per_example = static_cast<double>(examples);
    const double evals =
        static_cast<double>(first.kernel_evals) / per_example;
    const double probe_ns = ProbeNsPerTerm(in);
    out.Set("classify.explain_s", explain_s);
    out.Set("classify.kernel_evals_per_example", evals);
    out.Set("classify.fallback_share",
            static_cast<double>(first.fallbacks) / per_example);
    out.Set("classify.rules_per_example",
            static_cast<double>(first.rules) / per_example);
    out.Set("mc_density.probe_ns_per_term", probe_ns);
    out.Set("classify.density_share_est",
            evals * probe_ns / (explain_s * 1e9 / per_example));
    out.Set("trace.overhead_pct", (Median(PassMeansUs(traced)) /
                                       Median(PassMeansUs(phase)) -
                                   1.0) *
                                      100.0);
  }
  // The summaries Train built during set-up (global + per class).
  ReplaySummaries(in.train.data, in.train.errors, kClusters,
                  /*per_class=*/true, out);
  return out;
}

}  // namespace perfbench
