// google-benchmark micro-benchmarks of the density primitives: the
// per-operation costs that the figure harnesses aggregate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/crc32.h"
#include "common/number_text.h"
#include "common/random.h"
#include "common/simd.h"
#include "dataset/synthetic.h"
#include "dataset/uci_like.h"
#include "error/perturbation.h"
#include "kde/error_kde.h"
#include "kde/kernel.h"
#include "kde/simd_sweep.h"
#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"

namespace {

// Raw throughput of the dispatched kernel primitives, one series per ISA
// level (range arg: 0 = scalar, 1 = avx2, 2 = avx512). Levels the host
// cannot execute are skipped with an explicit error so a missing row in
// the output is always loud. These go through the same function-pointer
// tables the estimators use, so they need no -march flags — the vector
// bodies carry their own target attributes.
void BM_SweepLogKernel(benchmark::State& state) {
  const auto level = static_cast<udm::SimdLevel>(state.range(0));
  if (level > udm::DetectBestSimdLevel()) {
    state.SkipWithError("host CPU lacks this SIMD level");
    return;
  }
  const auto& dispatch = udm::kde_internal::GetSimdDispatch(level);
  const size_t n = 4096;
  udm::Rng rng(11);
  udm::AlignedVector<double> col(n);
  udm::AlignedVector<double> neg_inv_two_var(n);
  udm::AlignedVector<double> log_norm(n);
  udm::AlignedVector<double> acc(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    col[i] = rng.Gaussian();
    const double h = 0.2 + 0.1 * std::abs(rng.Gaussian());
    neg_inv_two_var[i] = -1.0 / (2.0 * h * h);
    log_norm[i] = -std::log(2.5066282746310002 * h);
  }
  for (auto _ : state) {
    dispatch.sweep(0.37, col.data(), neg_inv_two_var.data(), log_norm.data(),
                   acc.data(), n);
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(udm::SimdLevelName(dispatch.level));
}
BENCHMARK(BM_SweepLogKernel)->Arg(0)->Arg(1)->Arg(2);

// The exp-and-sum pass (vectorized table exp + striped lane sums +
// pruning-gap mask; the scalar level is std::exp + Kahan) on a realistic
// log-term spread: most terms live, a tail below the gap pruned.
void BM_PrunedExpAccum(benchmark::State& state) {
  const auto level = static_cast<udm::SimdLevel>(state.range(0));
  if (level > udm::DetectBestSimdLevel()) {
    state.SkipWithError("host CPU lacks this SIMD level");
    return;
  }
  const auto& dispatch = udm::kde_internal::GetSimdDispatch(level);
  const size_t n = 4096;
  udm::Rng rng(13);
  udm::AlignedVector<double> terms(n);
  for (size_t i = 0; i < n; ++i) {
    terms[i] = -std::abs(rng.Gaussian(0.0, 18.0));
  }
  for (auto _ : state) {
    udm::kde_internal::ExpSumState sum_state;
    dispatch.pruned_exp_accum(terms.data(), n, /*offset=*/0, /*max_term=*/0.0,
                              /*shift=*/0.0, /*gap=*/37.0, sum_state);
    benchmark::DoNotOptimize(sum_state.Total());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(udm::SimdLevelName(dispatch.level));
}
BENCHMARK(BM_PrunedExpAccum)->Arg(0)->Arg(1)->Arg(2);

// The running term maximum of the dense and indexed routines' pass 1
// (SimdDispatch::max_term), over the same 4096-term spread.
void BM_MaxTerm(benchmark::State& state) {
  const auto level = static_cast<udm::SimdLevel>(state.range(0));
  if (level > udm::DetectBestSimdLevel()) {
    state.SkipWithError("host CPU lacks this SIMD level");
    return;
  }
  const auto& dispatch = udm::kde_internal::GetSimdDispatch(level);
  const size_t n = 4096;
  udm::Rng rng(17);
  udm::AlignedVector<double> terms(n);
  for (size_t i = 0; i < n; ++i) {
    terms[i] = -std::abs(rng.Gaussian(0.0, 18.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatch.max_term(
        terms.data(), n, -std::numeric_limits<double>::infinity()));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(udm::SimdLevelName(dispatch.level));
}
BENCHMARK(BM_MaxTerm)->Arg(0)->Arg(1)->Arg(2);

// The number codec of every text format (common/number_text.h) and the
// CRC footer, over the doubles of one fit-workload shard checkpoint's
// cluster block: 140 clusters x 3 x 10 sums of summary-scale magnitude.
std::vector<double> CheckpointDoubles() {
  udm::Rng rng(23);
  std::vector<double> values(4200);
  for (double& v : values) v = rng.Gaussian(0.0, 1.0) * 1e3;
  return values;
}

void BM_AppendDouble(benchmark::State& state) {
  const std::vector<double> values = CheckpointDoubles();
  std::string text;
  for (auto _ : state) {
    text.clear();
    for (double v : values) {
      udm::AppendDouble(text, v);
      text += ' ';
    }
    benchmark::DoNotOptimize(text.data());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_AppendDouble);

void BM_ParseDouble(benchmark::State& state) {
  std::vector<std::string> tokens;
  for (double v : CheckpointDoubles()) {
    udm::AppendDouble(tokens.emplace_back(), v);
  }
  for (auto _ : state) {
    double sum = 0.0;
    for (const std::string& token : tokens) sum += *udm::ParseDouble(token);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * tokens.size());
}
BENCHMARK(BM_ParseDouble);

// Items are bytes; 82000 is one fit-workload shard checkpoint.
void BM_Crc32(benchmark::State& state) {
  std::string data;
  for (double v : CheckpointDoubles()) {
    udm::AppendDouble(data, v);
    data += ' ';
  }
  data.resize(static_cast<size_t>(state.range(0)), '0');
  for (auto _ : state) benchmark::DoNotOptimize(udm::Crc32(data));
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32)->Arg(82000);

void BM_ErrorKernelValue(benchmark::State& state) {
  udm::Rng rng(1);
  const double h = 0.3;
  double x = 0.0;
  for (auto _ : state) {
    x += 1e-6;
    benchmark::DoNotOptimize(udm::ErrorKernelValue(x, h, 0.5));
  }
}
BENCHMARK(BM_ErrorKernelValue);

void BM_LogErrorKernelValue(benchmark::State& state) {
  const double h = 0.3;
  double x = 0.0;
  for (auto _ : state) {
    x += 1e-6;
    benchmark::DoNotOptimize(udm::LogErrorKernelValue(x, h, 0.5));
  }
}
BENCHMARK(BM_LogErrorKernelValue);

void BM_MicroClusterAdd(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  udm::Rng rng(2);
  std::vector<double> point(d);
  std::vector<double> psi(d, 0.2);
  for (size_t j = 0; j < d; ++j) point[j] = rng.Gaussian();
  udm::MicroCluster cluster(d);
  for (auto _ : state) {
    cluster.AddPoint(point, psi);
    benchmark::DoNotOptimize(cluster);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MicroClusterAdd)->Arg(6)->Arg(10)->Arg(34);

void BM_ClustererAssign(benchmark::State& state) {
  const size_t q = static_cast<size_t>(state.range(0));
  const size_t d = 10;
  udm::Rng rng(3);
  udm::MicroClusterer::Options options;
  options.num_clusters = q;
  auto clusterer = udm::MicroClusterer::Create(d, options).value();
  std::vector<double> psi(d, 0.2);
  std::vector<double> point(d);
  // Fill the budget first so we time the steady-state assignment path.
  for (size_t i = 0; i < q; ++i) {
    for (size_t j = 0; j < d; ++j) point[j] = rng.Gaussian(0.0, 10.0);
    clusterer.Add(point, psi);
  }
  for (auto _ : state) {
    for (size_t j = 0; j < d; ++j) point[j] = rng.Gaussian(0.0, 10.0);
    benchmark::DoNotOptimize(clusterer.Add(point, psi));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClustererAssign)->Arg(20)->Arg(80)->Arg(140);

void BM_McDensitySubspaceEval(benchmark::State& state) {
  const size_t q = static_cast<size_t>(state.range(0));
  const size_t subspace = static_cast<size_t>(state.range(1));
  const udm::Dataset clean = udm::MakeForestCoverLike(4000, 4).value();
  udm::PerturbationOptions perturb;
  perturb.f = 1.2;
  const udm::UncertainDataset uncertain =
      udm::Perturb(clean, perturb).value();
  udm::MicroClusterer::Options options;
  options.num_clusters = q;
  const auto clusters =
      udm::BuildMicroClusters(uncertain.data, uncertain.errors, options)
          .value();
  const auto model = udm::McDensityModel::Build(clusters).value();
  std::vector<size_t> dims(subspace);
  for (size_t j = 0; j < subspace; ++j) dims[j] = j;
  size_t row = 0;
  for (auto _ : state) {
    row = (row + 1) % uncertain.data.NumRows();
    benchmark::DoNotOptimize(
        model.LogEvaluateSubspace(uncertain.data.Row(row), dims));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_McDensitySubspaceEval)
    ->Args({80, 2})
    ->Args({80, 10})
    ->Args({140, 2})
    ->Args({140, 10});

// The classifier's singleton level for one model: every singleton
// log-density of one query over a q=140 summary of ionosphere-like data
// (d=34, the `classify` benchmark's shape). Arg 0 makes d separate
// LogEvaluateSubspace({j}) calls, arg 1 one LogEvaluateSingletons pass;
// both return the same bits. Items are singleton densities.
void BM_McDensitySingletons(benchmark::State& state) {
  const bool one_pass = state.range(0) != 0;
  const udm::Dataset clean = udm::MakeIonosphereLike(3000, 2).value();
  udm::PerturbationOptions perturb;
  perturb.f = 0.6;
  const udm::UncertainDataset uncertain =
      udm::Perturb(clean, perturb).value();
  udm::MicroClusterer::Options options;
  options.num_clusters = 140;
  const auto clusters =
      udm::BuildMicroClusters(uncertain.data, uncertain.errors, options)
          .value();
  const auto model = udm::McDensityModel::Build(clusters).value();
  const size_t d = model.num_dims();
  std::vector<double> out(d);
  size_t row = 0;
  for (auto _ : state) {
    row = (row + 1) % uncertain.data.NumRows();
    const std::span<const double> x = uncertain.data.Row(row);
    if (one_pass) {
      model.LogEvaluateSingletons(x, out);
    } else {
      for (size_t j = 0; j < d; ++j) {
        const size_t dims[] = {j};
        out[j] = model.LogEvaluateSubspace(x, dims);
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_McDensitySingletons)->Arg(0)->Arg(1);

// Batch evaluation through the EvalRequest front door at a given worker
// width (range arg). Single-threaded-time / N-thread-time across the args
// is the engine's speedup on this host.
void BM_ErrorKdeBatchEval(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const udm::Dataset clean = udm::MakeAdultLike(1000, 1).value();
  udm::PerturbationOptions perturb;
  perturb.f = 1.2;
  const udm::UncertainDataset uncertain =
      udm::Perturb(clean, perturb).value();
  const auto kde =
      udm::ErrorKernelDensity::Fit(uncertain.data, uncertain.errors).value();
  const size_t queries = 64;
  udm::EvalRequest request;
  request.points =
      uncertain.data.values().subspan(0, queries * uncertain.data.NumDims());
  request.threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde.Evaluate(request));
  }
  state.SetItemsProcessed(state.iterations() * queries);
}
BENCHMARK(BM_ErrorKdeBatchEval)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Log-space batch evaluation: the pruned log-sum-exp path. The same
// workload as BM_ErrorKdeBatchEval, so the two series isolate the cost of
// log-space stability on top of the shared column-major sweeps.
void BM_ErrorKdeLogBatchEval(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const udm::Dataset clean = udm::MakeAdultLike(1000, 1).value();
  udm::PerturbationOptions perturb;
  perturb.f = 1.2;
  const udm::UncertainDataset uncertain =
      udm::Perturb(clean, perturb).value();
  const auto kde =
      udm::ErrorKernelDensity::Fit(uncertain.data, uncertain.errors).value();
  const size_t queries = 64;
  udm::EvalRequest request;
  request.points =
      uncertain.data.values().subspan(0, queries * uncertain.data.NumDims());
  request.threads = threads;
  request.log_space = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde.Evaluate(request));
  }
  state.SetItemsProcessed(state.iterations() * queries);
}
BENCHMARK(BM_ErrorKdeLogBatchEval)->Arg(1)->Arg(2);

void BM_McDensityBatchEval(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const udm::Dataset clean = udm::MakeForestCoverLike(4000, 4).value();
  udm::PerturbationOptions perturb;
  perturb.f = 1.2;
  const udm::UncertainDataset uncertain =
      udm::Perturb(clean, perturb).value();
  udm::MicroClusterer::Options options;
  options.num_clusters = 140;
  const auto clusters =
      udm::BuildMicroClusters(uncertain.data, uncertain.errors, options)
          .value();
  const auto model = udm::McDensityModel::Build(clusters).value();
  const size_t queries = 512;
  udm::EvalRequest request;
  request.points =
      uncertain.data.values().subspan(0, queries * uncertain.data.NumDims());
  request.threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Evaluate(request));
  }
  state.SetItemsProcessed(state.iterations() * queries);
}
BENCHMARK(BM_McDensityBatchEval)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Single-thread batch evaluation on the clustered spatial-index fixture
// (dataset/synthetic.h), kAuto (the default) vs the exact full scan
// (kOff). kAuto keeps the index at N = 4000, where BM_ExactKdeEval /
// BM_ExactKdeEvalNoIndex is the index's headline speedup, and routes
// N = 1000 to the dense path (the index would sweep 29% of the terms);
// bench/index_speedup sweeps it with routing diagnostics and asserts
// bit-identity between the modes.
udm::Result<udm::EvalResult> ClusteredEval(size_t n, udm::IndexMode mode) {
  static std::map<size_t, udm::UncertainDataset>* datasets =
      new std::map<size_t, udm::UncertainDataset>();
  if (datasets->find(n) == datasets->end()) {
    udm::PerturbationOptions perturb;
    perturb.f = 0.01;
    datasets->emplace(
        n, udm::Perturb(udm::MakeClusteredDataset(n, 1).value(),
                        perturb)
               .value());
  }
  const udm::UncertainDataset& uncertain = datasets->at(n);
  udm::DensityEvalOptions options;
  // See the fixture comment in dataset/synthetic.cc.
  options.bandwidth_scale = 0.7;
  static std::map<size_t, udm::ErrorKernelDensity>* kdes =
      new std::map<size_t, udm::ErrorKernelDensity>();
  if (kdes->find(n) == kdes->end()) {
    kdes->emplace(n, udm::ErrorKernelDensity::Fit(uncertain.data,
                                                  uncertain.errors, options)
                         .value());
  }
  const size_t queries = std::min<size_t>(256, n);
  udm::EvalRequest request;
  request.points =
      uncertain.data.values().subspan(0, queries * uncertain.data.NumDims());
  request.index = mode;
  return kdes->at(n).Evaluate(request);
}

void BM_ExactKdeEval(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t queries = std::min<size_t>(256, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClusteredEval(n, udm::IndexMode::kAuto));
  }
  state.SetItemsProcessed(state.iterations() * queries);
}
BENCHMARK(BM_ExactKdeEval)->Arg(1000)->Arg(4000);

void BM_ExactKdeEvalNoIndex(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t queries = std::min<size_t>(256, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClusteredEval(n, udm::IndexMode::kOff));
  }
  state.SetItemsProcessed(state.iterations() * queries);
}
BENCHMARK(BM_ExactKdeEvalNoIndex)->Arg(1000)->Arg(4000);

}  // namespace
