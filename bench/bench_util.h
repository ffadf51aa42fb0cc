#ifndef UDM_BENCH_BENCH_UTIL_H_
#define UDM_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "dataset/dataset.h"

namespace udm::bench {

/// One plotted line of a paper figure: y values over the shared x sweep.
struct Series {
  std::string name;
  std::vector<double> y;
};

/// --threads: worker width of the library's threaded paths (0 = serial,
/// the default; results are bit-identical at any width). Only the
/// harnesses that read it declare it, the callers of the sweeps below
/// among them.
inline constexpr FlagSpec kThreadsFlag = {
    "threads", FlagKind::kCount, "0",
    "worker width (0 = serial; results bit-identical at any width)"};

/// Parses the command line against the flags every bench main accepts
/// (--metrics-out: write a RunReport JSON, schema v1, at exit;
/// --trace-out: collect trace spans and write Chrome trace JSON) plus the
/// harness's own `extra` flags, and installs an atexit hook that writes
/// the run artifacts. A usage error exits 2; --help prints the flags.
/// Without flags the harness runs as it always has (no report, no
/// tracing, serial execution). Call first in main(); returns the values.
const FlagValues& ParseCommonFlags(int argc, char** argv,
                                   const std::string& name,
                                   std::initializer_list<FlagSpec> extra = {});

/// Records a configuration key in the run report (no-op before
/// ParseCommonFlags or when no artifact flag was given).
void BenchConfig(const std::string& key, const std::string& value);
void BenchConfig(const std::string& key, double value);

/// Streams every row of `data` through a StreamSummarizer (zero error
/// vectors) and runs one checkpoint save/restore round-trip in a scratch
/// directory, so a figure bench's run report also exercises — and gets
/// nonzero metrics from — the ingest and checkpoint paths. Prints a one-
/// line summary and records a check in the run report.
void MeasureStreamIngest(const Dataset& data, size_t num_clusters);

/// Prints the figure banner (id + caption + workload note).
void PrintFigureHeader(const std::string& figure_id,
                       const std::string& caption,
                       const std::string& workload);

/// Prints an aligned table: one row per x value, one column per series.
/// `x_format`/`y_format` are printf formats for the numeric cells.
void PrintTable(const std::string& x_label, const std::vector<double>& xs,
                const std::vector<Series>& series,
                const char* x_format = "%10.2f",
                const char* y_format = "%24.4f");

/// Prints a PASS/FAIL shape-check line (the reproduction criterion is the
/// figure's *shape*, not its absolute numbers).
void ShapeCheck(const std::string& what, bool ok);

/// Loads a UCI-like dataset by name, honoring the UDM_BENCH_N environment
/// variable as a row-count override (so CI can shrink the harness).
Result<Dataset> LoadDataset(const std::string& name, size_t default_n,
                            uint64_t seed);

/// Returns UDM_BENCH_N if set, else `fallback`.
size_t RowsFromEnv(size_t fallback);

/// Accuracy series of the three §4 comparators over a parameter sweep.
struct ComparatorSeries {
  std::vector<double> adjusted;    ///< density, with error adjustment
  std::vector<double> unadjusted;  ///< density, errors assumed zero
  std::vector<double> nn;          ///< 1-NN baseline
  std::vector<double> train_seconds_per_example;
  std::vector<double> test_seconds_per_example;
};

/// Runs the full experiment protocol at each error level f (fixed q).
/// Accuracies/timings at each sweep point average `repeats` runs.
ComparatorSeries SweepErrorLevels(const Dataset& clean,
                                  const std::vector<double>& fs, size_t q,
                                  size_t max_test, uint64_t seed,
                                  size_t repeats = 3);

/// Runs the protocol at each micro-cluster budget q (fixed f).
ComparatorSeries SweepClusterBudgets(const Dataset& clean,
                                     const std::vector<double>& qs, double f,
                                     size_t max_test, uint64_t seed,
                                     size_t repeats = 3);

}  // namespace udm::bench

#endif  // UDM_BENCH_BENCH_UTIL_H_
