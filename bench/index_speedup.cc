// Spatial-index speedup harness: the kAuto routing (IndexMode::kAuto)
// against the full scan (IndexMode::kOff) on the same fitted
// ErrorKernelDensity, single-threaded, plus the series that explain each
// ratio: which path kAuto took, and what the index prunes and sweeps when
// forced (IndexMode::kForce, untimed). Three workloads bracket the
// index's behavior:
//
//  * clustered — 14 well-separated clusters in 3 dims, near-clean error
//    (f = 0.01), bandwidth_scale = 0.7 (Silverman's rule assumes
//    unimodality and over-smooths a 14-mode mixture; the scale applies
//    to both modes, so the comparison stays apples-to-apples). Density
//    mass has low-dimensional locality, whole far cells fall below the
//    pruning gap, and from N = 4000 up the index sweeps ~7% of the terms
//    and should win big. At N = 1000 the kernels are still wide and it
//    sweeps ~29%, too many to beat the dense tiled path.
//  * adult f=1.2 — the paper's evaluation regime (BM_ErrorKdeBatchEval's
//    fixture): 6 heavily-overlapped dims with errors comparable to the
//    data's own spread. Under bit-identity almost no term is prunable
//    (the gap test keeps >90% of summands), so NO index can help; kAuto
//    must instead be near-free.
//  * serve — perfbench's `serve` model: adult-like, f = 1.0, one ψ = 0.25
//    for every entry (the udm_serve manifest's error model), N = 4000,
//    batches of 64 held-out queries. Three quarters of the cells prune,
//    but they are the sparse ones, so the index still sweeps ~74% of the
//    terms: the regime that shows a cell prune rate is no routing signal.
//
// kAuto's routing (ResolveBatchIndex, DESIGN.md §4k) probes each large
// batch's first query through the index and keeps the index only when it
// swept at most kIndexMaxSweptTermShare of the terms; otherwise the batch
// runs the dense query-tiled SIMD path, and its path column reads
// "dense". An indexed term costs about 4x a tiled dense term, so the
// speedup column of an indexed row is roughly 1/(4 · forced sweep share).
//
// Correctness is asserted, not assumed: every (workload, N, space) cell
// must be bit-identical between modes, pruned-term counts included;
// kAuto must never lose more than 5% to kOff anywhere; and the clustered
// workload must actually deliver >= 5x from N = 4000 up (below that the
// Silverman bandwidth is too wide for whole-cluster pruning — see the
// fixture comment in dataset/synthetic.cc). Any violation makes the
// process exit nonzero, so the ctest wiring catches a broken or
// pessimizing index, not just a slow one.
//
// --json-out=PATH writes a google-benchmark-shaped {"benchmarks": [...]}
// file (names `index_eval/<N>/<mode>`, clustered workload, linear space)
// for tools/check_bench_regression against the committed
// BENCH_index.json. --smoke shrinks the sweep for CI (clustered and adult
// at N = 1000, serve at its own N).
#include <algorithm>
#include <ctime>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dataset/synthetic.h"
#include "dataset/uci_like.h"
#include "error/error_model.h"
#include "error/perturbation.h"
#include "kde/error_kde.h"
#include "kde/eval.h"

namespace {

struct ModeRun {
  double items_per_second = 0.0;
  udm::EvalResult result;
};

/// Thread CPU seconds — the same basis as google-benchmark's CPU-time
/// items/s. The evaluation is single-threaded, so this is exactly the
/// work done, and unlike wall time it is immune to the rest of a
/// parallel ctest schedule preempting the core mid-rep (which would
/// otherwise flake both the in-process speedup assertions and the
/// BENCH_index.json regression gate).
double ThreadSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One timed single-thread batch evaluation in the given mode.
double TimeOnce(const udm::ErrorKernelDensity& kde,
                std::span<const double> points, udm::IndexMode mode,
                bool log_space, ModeRun* run) {
  udm::EvalRequest request;
  request.points = points;
  request.log_space = log_space;
  request.index = mode;
  const double start = ThreadSeconds();
  udm::Result<udm::EvalResult> result = kde.Evaluate(request);
  const double seconds = ThreadSeconds() - start;
  if (!result.ok()) {
    std::fprintf(stderr, "index_speedup: Evaluate failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  run->result = std::move(result).value();
  return seconds;
}

/// Best-of-`reps` for both modes, reps interleaved (off, auto, off, auto,
/// ...) so shared-host noise hits both modes alike instead of whichever
/// mode happened to run during a spike.
std::pair<ModeRun, ModeRun> RunModes(const udm::ErrorKernelDensity& kde,
                                     std::span<const double> points,
                                     bool log_space, size_t queries,
                                     int reps) {
  ModeRun off, automatic;
  double best_off = 1e300, best_auto = 1e300;
  for (int r = 0; r < reps; ++r) {
    best_off = std::min(
        best_off, TimeOnce(kde, points, udm::IndexMode::kOff, log_space, &off));
    best_auto = std::min(
        best_auto,
        TimeOnce(kde, points, udm::IndexMode::kAuto, log_space, &automatic));
  }
  off.items_per_second = static_cast<double>(queries) / best_off;
  automatic.items_per_second = static_cast<double>(queries) / best_auto;
  return {off, automatic};
}

struct Workload {
  const char* name;
  bool clustered = false;  // else adult-like
  double f = 0.0;
  /// > 0: one ψ for every entry instead of Perturb's per-entry ψ.
  double uniform_psi = 0.0;
  /// > 0: this N only, queries held out of the fit; 0: the N sweep, with
  /// the first rows of the fitted data as queries.
  size_t fixed_n = 0;
  size_t fixed_queries = 0;
  /// Speedup each N must reach on this workload (linear space); 0 = only
  /// the universal "within 5% of kOff" floor applies.
  double min_speedup = 0.0;
  bool emit_json = false;
};

/// The fitted model and its query batch for one (workload, N) cell.
struct Cell {
  udm::ErrorKernelDensity kde;
  std::vector<double> points;
  size_t queries = 0;
};

Cell MakeCell(const Workload& w, size_t n, bool smoke) {
  const size_t held_out = w.fixed_n > 0 ? w.fixed_queries : 0;
  const udm::Dataset clean =
      w.clustered ? udm::MakeClusteredDataset(n + held_out, 1).value()
                  : udm::MakeAdultLike(n + held_out, 1).value();
  udm::PerturbationOptions perturb;
  perturb.f = w.f;
  const udm::UncertainDataset noisy = udm::Perturb(clean, perturb).value();
  std::vector<size_t> fit_rows(n);
  std::iota(fit_rows.begin(), fit_rows.end(), size_t{0});
  const udm::Dataset data = noisy.data.Select(fit_rows);
  const udm::ErrorModel errors =
      w.uniform_psi > 0.0
          ? udm::ErrorModel::PerDimension(
                n, std::vector<double>(data.NumDims(), w.uniform_psi))
                .value()
          : noisy.errors.Select(fit_rows);
  udm::DensityEvalOptions fit_options;
  if (w.min_speedup > 0.0) fit_options.bandwidth_scale = 0.7;
  Cell cell{udm::ErrorKernelDensity::Fit(data, errors, fit_options).value(),
            {},
            held_out > 0 ? held_out : std::min<size_t>(smoke ? 64 : 256, n)};
  const size_t d = data.NumDims();
  const std::span<const double> source =
      held_out > 0 ? noisy.data.values().subspan(n * d) : data.values();
  cell.points.assign(source.begin(), source.begin() + cell.queries * d);
  return cell;
}

double Percent(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

}  // namespace

int main(int argc, char** argv) {
  udm::bench::ParseCommonFlags(argc, argv, "index_speedup");
  bool smoke = false;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg.rfind("--json-out=", 0) == 0) json_out = arg.substr(11);
  }

  const std::vector<size_t> sweep =
      smoke ? std::vector<size_t>{1000}
            : std::vector<size_t>{1000, 4000, 16000};
  const int reps = smoke ? 3 : 11;

  udm::bench::PrintFigureHeader(
      "index_speedup",
      "kAuto index routing vs full scan (single thread)",
      "ErrorKernelDensity; clustered f=0.01 (indexable), adult f=1.2 "
      "(index-neutral), serve (cells prune, terms do not)");

  // The clustered workload uses a near-clean error level: measurement
  // error scales with the data's sigma, so ψ² enters every kernel width
  // directly while h² shrinks as n^{-2/5} — by f ≈ 0.05 the ψ term alone
  // pushes lattice-adjacent cluster pairs back inside the pruning gap at
  // any separation (the gap test, and hence any bit-identical index,
  // keeps them). The adult row covers the heavy-error end of the axis.
  const Workload workloads[] = {
      {.name = "clustered",
       .clustered = true,
       .f = 0.01,
       .min_speedup = 5.0,
       .emit_json = true},
      {.name = "adult", .f = 1.2},
      {.name = "serve",
       .f = 1.0,
       .uniform_psi = 0.25,
       .fixed_n = 4000,
       .fixed_queries = 64},
  };

  bool ok = true;
  std::vector<std::pair<std::string, double>> json_entries;
  for (const Workload& w : workloads) {
    std::printf("\nworkload: %s (f=%.2f)\n", w.name, w.f);
    std::printf("%8s %6s %14s %14s %9s %6s %12s %12s %12s\n", "N", "space",
                "off items/s", "auto items/s", "speedup", "path",
                "cell prune%", "swept%", "term prune%");
    const std::vector<size_t> ns =
        w.fixed_n > 0 ? std::vector<size_t>{w.fixed_n} : sweep;
    for (const size_t n : ns) {
      const Cell cell = MakeCell(w, n, smoke);
      for (const bool log_space : {false, true}) {
        const auto [off, automatic] =
            RunModes(cell.kde, cell.points, log_space, cell.queries, reps);
        ModeRun forced;
        (void)TimeOnce(cell.kde, cell.points, udm::IndexMode::kForce,
                       log_space, &forced);
        const std::string label = std::string(w.name) +
                                  ", N=" + std::to_string(n) +
                                  (log_space ? ", log" : ", linear");
        const bool identical =
            automatic.result.densities == off.result.densities &&
            automatic.result.stats.pruned_terms ==
                off.result.stats.pruned_terms &&
            forced.result.densities == off.result.densities &&
            forced.result.stats.pruned_terms == off.result.stats.pruned_terms;
        udm::bench::ShapeCheck(
            "bit-identical kAuto, kForce vs kOff (" + label + ")", identical);
        ok = ok && identical;
        const double speedup =
            automatic.items_per_second / off.items_per_second;
        const udm::EvalStats& auto_stats = automatic.result.stats;
        const udm::EvalStats& forced_stats = forced.result.stats;
        const bool indexed =
            auto_stats.cells_visited + auto_stats.cells_pruned > 0;
        std::printf(
            "%8zu %6s %14.0f %14.0f %8.2fx %6s %11.1f%% %11.1f%% %11.1f%%\n",
            n, log_space ? "log" : "linear", off.items_per_second,
            automatic.items_per_second, speedup, indexed ? "index" : "dense",
            Percent(forced_stats.cells_pruned,
                    forced_stats.cells_visited + forced_stats.cells_pruned),
            Percent(forced_stats.kernel_evals, off.result.stats.kernel_evals),
            Percent(off.result.stats.pruned_terms, cell.queries * n));
        if (w.emit_json && !log_space) {
          json_entries.emplace_back("index_eval/" + std::to_string(n) + "/off",
                                    off.items_per_second);
          json_entries.emplace_back(
              "index_eval/" + std::to_string(n) + "/auto",
              automatic.items_per_second);
        }
        // kAuto must never cost more than noise: tolerate only that, on
        // every workload and at every N. Smoke runs share the
        // host with the rest of a parallel ctest schedule, where a CPU
        // spike can land on a handful of this mode's reps — use the
        // same 2x headroom as the bench regression gates there; the
        // tight 5% bar applies to full (dedicated) runs.
        const bool no_regression = speedup >= (smoke ? 0.5 : 0.95);
        udm::bench::ShapeCheck("kAuto within 5% of kOff (" + label + ")",
                               no_regression);
        ok = ok && no_regression;
        // Speedup floors only from n = 4000 up: at n = 1000 the bandwidth
        // is still too wide and lattice-adjacent pairs sit inside the
        // pruning gap (see the fixture comment), so sub-linearity has
        // nothing to bite on yet.
        if (w.min_speedup > 0.0 && !log_space && n >= 4000) {
          const bool fast_enough = speedup >= w.min_speedup;
          udm::bench::ShapeCheck(
              "kAuto >= " + std::to_string(w.min_speedup).substr(0, 3) +
                  "x on " + label,
              fast_enough);
          ok = ok && fast_enough;
        }
      }
    }
  }

  if (!json_out.empty()) {
    FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "index_speedup: cannot write %s\n",
                   json_out.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (size_t i = 0; i < json_entries.size(); ++i) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"items_per_second\": %.1f}%s\n",
                   json_entries[i].first.c_str(), json_entries[i].second,
                   i + 1 < json_entries.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
  return ok ? 0 : 1;
}
