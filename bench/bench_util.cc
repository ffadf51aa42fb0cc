#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "classify/experiment.h"
#include "common/logging.h"
#include "common/number_text.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/random.h"
#include "dataset/synthetic.h"
#include "dataset/uci_like.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "robustness/checkpoint.h"
#include "stream/stream_summarizer.h"

namespace udm::bench {

namespace {

std::unique_ptr<obs::RunReport> g_report;
FlagValues g_flags;
std::string g_figure_id;

void WriteArtifactsAtExit() {
  const std::string& trace_out = g_flags.Text("trace-out");
  if (!trace_out.empty()) {
    obs::DisableTracing();
    const Status status = obs::WriteTrace(trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "bench: %s\n", status.ToString().c_str());
    } else {
      std::printf("trace written to %s (%zu spans)\n", trace_out.c_str(),
                  obs::TraceEventCount());
    }
  }
  const std::string& metrics_out = g_flags.Text("metrics-out");
  if (!metrics_out.empty() && g_report != nullptr) {
    const Status status = g_report->Write(metrics_out);
    if (!status.ok()) {
      std::fprintf(stderr, "bench: %s\n", status.ToString().c_str());
    } else {
      std::printf("run report written to %s\n", metrics_out.c_str());
    }
  }
}

constexpr FlagSpec kCommonFlags[] = {
    {"metrics-out", FlagKind::kText, nullptr,
     "write a RunReport JSON (schema v1) at exit"},
    {"trace-out", FlagKind::kText, nullptr,
     "write Chrome trace_event JSON at exit"},
};

}  // namespace

const FlagValues& ParseCommonFlags(int argc, char** argv,
                                   const std::string& name,
                                   std::initializer_list<FlagSpec> extra) {
  std::vector<FlagSpec> specs(std::begin(kCommonFlags),
                              std::end(kCommonFlags));
  specs.insert(specs.end(), extra.begin(), extra.end());
  g_flags = ParseFlagsOrExit(name, specs, argc, argv);
  // The report exists whenever any artifact was requested so tables and
  // checks recorded along the way have somewhere to go.
  if (g_flags.Has("metrics-out") || g_flags.Has("trace-out")) {
    g_report = std::make_unique<obs::RunReport>(name);
    const char* env_n = std::getenv("UDM_BENCH_N");
    if (env_n != nullptr) g_report->SetConfig("UDM_BENCH_N", env_n);
    g_report->SetConfig(g_flags);
    g_report->SetConfig("hardware_threads",
                        static_cast<double>(ThreadPool::HardwareThreads()));
    g_report->SetConfig("simd", SimdLevelName(ProcessSimdLevel()));
  }
  if (g_flags.Has("trace-out")) obs::EnableTracing();
  std::atexit(WriteArtifactsAtExit);
  return g_flags;
}

void BenchConfig(const std::string& key, const std::string& value) {
  if (g_report != nullptr) g_report->SetConfig(key, value);
}

void BenchConfig(const std::string& key, double value) {
  if (g_report != nullptr) g_report->SetConfig(key, value);
}

void PrintFigureHeader(const std::string& figure_id,
                       const std::string& caption,
                       const std::string& workload) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s — %s\n", figure_id.c_str(), caption.c_str());
  std::printf("workload: %s\n", workload.c_str());
  std::printf("---------------------------------------------------------------"
              "-----------------\n");
  g_figure_id = figure_id;
  if (g_report != nullptr) {
    g_report->SetConfig("figure_id", figure_id);
    g_report->SetConfig("caption", caption);
    g_report->SetConfig("workload", workload);
  }
}

void PrintTable(const std::string& x_label, const std::vector<double>& xs,
                const std::vector<Series>& series, const char* x_format,
                const char* y_format) {
  std::printf("%10s", x_label.c_str());
  for (const Series& s : series) std::printf("%24s", s.name.c_str());
  std::printf("\n");
  for (size_t i = 0; i < xs.size(); ++i) {
    std::printf(x_format, xs[i]);
    for (const Series& s : series) {
      if (i < s.y.size()) {
        std::printf(y_format, s.y[i]);
      } else {
        std::printf("%24s", "-");
      }
    }
    std::printf("\n");
  }
  if (g_report != nullptr) {
    obs::ReportTable table;
    table.title = g_figure_id.empty() ? x_label : g_figure_id;
    table.columns.push_back(x_label);
    for (const Series& s : series) table.columns.push_back(s.name);
    for (size_t i = 0; i < xs.size(); ++i) {
      std::vector<std::string> row(1);
      AppendDouble(row.back(), xs[i]);
      for (const Series& s : series) {
        if (i < s.y.size()) {
          AppendDouble(row.emplace_back(), s.y[i]);
        } else {
          row.push_back("-");
        }
      }
      table.rows.push_back(std::move(row));
    }
    g_report->AddTable(std::move(table));
  }
}

void ShapeCheck(const std::string& what, bool ok) {
  std::printf("shape-check [%s]: %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (g_report != nullptr) g_report->AddCheck(what, ok);
}

void MeasureStreamIngest(const Dataset& data, size_t num_clusters) {
  namespace fs = std::filesystem;
  const size_t d = data.NumDims();
  Result<StreamSummarizer> summarizer = StreamSummarizer::Create(
      d, {.num_clusters = num_clusters});
  UDM_CHECK(summarizer.ok()) << summarizer.status().ToString();

  std::vector<RecordView> records;
  records.reserve(data.NumRows());
  const std::vector<double> zero_psi(d, 0.0);
  for (size_t i = 0; i < data.NumRows(); ++i) {
    records.push_back({data.Row(i), zero_psi, /*timestamp=*/i});
  }
  ExecContext unbounded;
  const Result<BatchIngestResult> ingested =
      summarizer->IngestBatch(records, unbounded);
  UDM_CHECK(ingested.ok()) << ingested.status().ToString();

  // One checkpoint round-trip in a scratch directory so the report's
  // checkpoint latency histograms are populated.
  std::error_code ec;
  std::string scratch =
      (fs::temp_directory_path(ec) / "udm-bench-ck-XXXXXX").string();
  UDM_CHECK(mkdtemp(scratch.data()) != nullptr)
      << "MeasureStreamIngest: mkdtemp failed";
  bool roundtrip_ok = false;
  std::string detail;
  CheckpointOptions options;
  options.directory = scratch;
  Result<CheckpointManager> manager = CheckpointManager::Create(options);
  if (manager.ok()) {
    const Status saved = manager->Save(*summarizer, data.NumRows());
    if (saved.ok()) {
      const Result<CheckpointManager::Restored> restored =
          manager->RestoreLatest();
      roundtrip_ok = restored.ok() &&
                     restored->summarizer.ingest_stats().records_ok ==
                         summarizer->ingest_stats().records_ok;
      if (!restored.ok()) detail = restored.status().ToString();
    } else {
      detail = saved.ToString();
    }
  } else {
    detail = manager.status().ToString();
  }
  fs::remove_all(scratch, ec);

  std::printf("stream-ingest: %zu records, %zu micro-clusters, checkpoint "
              "round-trip %s\n",
              static_cast<size_t>(ingested->consumed),
              summarizer->clusters().size(), roundtrip_ok ? "ok" : "FAILED");
  if (g_report != nullptr) {
    g_report->SetConfig("stream_ingest_records",
                        static_cast<double>(ingested->consumed));
    g_report->AddCheck("stream ingest + checkpoint round-trip", roundtrip_ok,
                       detail);
  }
}

Result<Dataset> LoadDataset(const std::string& name, size_t default_n,
                            uint64_t seed) {
  return MakeUciLike(name, RowsFromEnv(default_n), seed);
}

size_t RowsFromEnv(size_t fallback) {
  const char* env = std::getenv("UDM_BENCH_N");
  if (env == nullptr) return fallback;
  const long value = std::atol(env);
  return value > 0 ? static_cast<size_t>(value) : fallback;
}

namespace {

void AppendRun(const Dataset& clean, double f, size_t q, size_t max_test,
               uint64_t seed, size_t repeats, ComparatorSeries* out) {
  ClassificationExperimentConfig config;
  config.f = f;
  config.num_clusters = q;
  config.max_test_examples = max_test;
  config.seed = seed;
  config.repeats = repeats;
  config.threads = g_flags.Size("threads");
  const Result<ClassificationExperimentResult> result =
      RunClassificationExperiment(clean, config);
  UDM_CHECK(result.ok()) << result.status().ToString();
  out->adjusted.push_back(result->accuracy_error_adjusted);
  out->unadjusted.push_back(result->accuracy_no_adjust);
  out->nn.push_back(result->accuracy_nn);
  out->train_seconds_per_example.push_back(
      result->train_seconds_per_example);
  out->test_seconds_per_example.push_back(result->test_seconds_per_example);
}

}  // namespace

ComparatorSeries SweepErrorLevels(const Dataset& clean,
                                  const std::vector<double>& fs, size_t q,
                                  size_t max_test, uint64_t seed,
                                  size_t repeats) {
  ComparatorSeries out;
  for (const double f : fs) {
    AppendRun(clean, f, q, max_test, seed, repeats, &out);
  }
  return out;
}

ComparatorSeries SweepClusterBudgets(const Dataset& clean,
                                     const std::vector<double>& qs, double f,
                                     size_t max_test, uint64_t seed,
                                     size_t repeats) {
  ComparatorSeries out;
  for (const double q : qs) {
    AppendRun(clean, f, static_cast<size_t>(q), max_test, seed, repeats,
              &out);
  }
  return out;
}

}  // namespace udm::bench
