// Shared plumbing for the udm_perfbench workloads: command-line settings,
// the metric table every workload reports into, an in-memory span
// recorder for the traced runs, exact order statistics, and small
// filesystem/process helpers.
#ifndef UDM_PERFBENCH_COMMON_H_
#define UDM_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dataset/dataset.h"
#include "error/error_model.h"

namespace perfbench {

/// One invocation: `udm_perfbench --workload W --seed N --seconds S
/// --trace 0|1 --work-dir DIR [--serve-bin PATH]`.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for checkpoints, CSVs, manifests and sockets.
  std::string work_dir;
  /// udm_serve binary spawned by the serve workload.
  std::string serve_bin;
};

/// Metric values of one run, keyed by the names BENCHMARK.json lists.
/// Every workload prints every end-to-end metric (untraced runs) or every
/// per-layer metric (traced runs); a per-layer metric of a layer the
/// workload never calls reads 0.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Human-readable check results, printed before the JSON line.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { values[name] = value; }
  /// Records a correctness check; a failing check clears `correct`.
  void Check(const std::string& name, bool ok, const std::string& detail);
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (printed with --trace 0), in BENCHMARK.json order.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Per-layer metrics (printed with --trace 1), in BENCHMARK.json order.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Prints the result JSON line for `outcome` (the last stdout line).
void PrintResult(const Outcome& outcome, bool trace);

/// Monotonic clock in nanoseconds.
int64_t NowNs();
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Exact order statistics over a copy of `samples` (nearest rank).
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// In-memory span recorder. Spans are recorded only while enabled (the
/// traced run); each keeps its parent so self time can be derived, and the
/// whole buffer is written as Chrome trace JSON at the end of the run.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// RAII span around one call into a layer.
  class Span {
   public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    int64_t index_ = -1;
  };

  /// Total duration (seconds) of the spans named `name`.
  double TotalSeconds(const std::string& name) const;

  /// Writes the buffer as a Chrome trace (`traceEvents`, ph "X").
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
  };
  bool enabled_ = false;
  std::vector<Record> records_;
  int64_t open_ = -1;  // innermost open span
};

/// 64-bit FNV-1a, fed incrementally.
class Digest {
 public:
  void Add(const void* data, size_t bytes);
  void AddU64(uint64_t value) { Add(&value, sizeof(value)); }
  void AddDouble(double value) { Add(&value, sizeof(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set of this process, in MiB.
double SelfPeakRssMb();
/// Peak resident set (VmHWM) of process `pid`, in MiB; 0 if unreadable.
double ProcessPeakRssMb(int pid);

/// Creates `path` (and parents) after removing anything already there.
bool ResetDirectory(const std::string& path);
/// Writes `content` to `path`.
bool WriteTextFile(const std::string& path, const std::string& content);

/// Replays the summary builds a workload's model rests on — the global
/// BuildMicroClusters and, with `per_class`, one per class subset, as
/// DensityBasedClassifier::Train does — each followed by
/// McDensityModel::Build, under the "microcluster.BuildMicroClusters" and
/// "mc_density.Build" spans. Checks that every summary reached q and, in
/// a traced run, sets the microcluster.* and mc_density.build_s metrics.
void ReplaySummaries(const udm::Dataset& data, const udm::ErrorModel& errors,
                     size_t num_clusters, bool per_class, Outcome& out);

}  // namespace perfbench

#endif  // UDM_PERFBENCH_COMMON_H_
