#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"

namespace perfbench {

void Outcome::Check(const std::string& name, bool ok,
                    const std::string& detail) {
  notes.push_back(std::string(ok ? "PASS " : "FAIL ") + name + ": " + detail);
  if (!ok) correct = false;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"item_us", "us"},
      {"p90_us", "us"},
      {"items_per_s", "1/s"},
      {"setup_s", "s"},
      {"rss_peak_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"microcluster.build_s", "s"},
      {"microcluster.assign_ns_per_record", "ns"},
      {"microcluster.distance_evals", "count"},
      {"microcluster.merge_s", "s"},
      {"mc_density.build_s", "s"},
      {"mc_density.probe_ns_per_term", "ns"},
      {"stream.ingest_s", "s"},
      {"stream.records_deferred", "count"},
      {"stream.records_quarantined", "count"},
      {"robustness.checkpoint_s", "s"},
      {"robustness.checkpoint_bytes", "bytes"},
      {"classify.explain_s", "s"},
      {"classify.kernel_evals_per_example", "count"},
      {"classify.fallback_share", "ratio"},
      {"classify.rules_per_example", "count"},
      {"classify.density_share_est", "ratio"},
      {"serve.client_encode_us", "us"},
      {"serve.client_parse_us", "us"},
      {"serve.protocol_parse_us", "us"},
      {"serve.protocol_encode_us", "us"},
      {"serve.transport_us", "us"},
      {"serve.queue_wait_p99_ms", "ms"},
      {"serve.daemon_window_p50_ms", "ms"},
      {"serve.shed", "count"},
      {"serve.degraded", "count"},
      {"serve.gen_late_p99_ms", "ms"},
      {"kde.eval_us_per_request", "us"},
      {"kde.pruned_share", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

void PrintResult(const Outcome& outcome, bool trace) {
  const std::vector<MetricSpec>& specs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = outcome.values.find(spec.name);
    const double value = it == outcome.values.end() ? 0.0 : it->second;
    char cell[64];
    std::snprintf(cell, sizeof(cell), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += std::string("\"") + spec.name + "\": {\"value\": " + cell +
            ", \"unit\": \"" + spec.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      std::min(samples.size() - 1,
               static_cast<size_t>(std::max(1.0, rank)) - 1);
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Span::Span(const char* name) {
  Tracer& t = Tracer::Get();
  if (!t.enabled_) return;
  index_ = static_cast<int64_t>(t.records_.size());
  t.records_.push_back({name, NowNs(), 0, t.open_});
  t.open_ = index_;
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  Tracer& t = Tracer::Get();
  Record& record = t.records_[static_cast<size_t>(index_)];
  record.end_ns = NowNs();
  t.open_ = record.parent;
}

double Tracer::TotalSeconds(const std::string& name) const {
  int64_t total = 0;
  for (const Record& r : records_) {
    if (name == r.name) total += r.end_ns - r.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"parent\": %lld}}",
                  i == 0 ? "" : ",", r.name,
                  static_cast<double>(r.start_ns) * 1e-3,
                  static_cast<double>(r.end_ns - r.start_ns) * 1e-3,
                  static_cast<long long>(r.parent));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Digest::Add(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;
  }
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessPeakRssMb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool ResetDirectory(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
  return !ec;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return static_cast<bool>(out);
}

void ReplaySummaries(const udm::Dataset& data, const udm::ErrorModel& errors,
                     size_t num_clusters, bool per_class, Outcome& out) {
  udm::MicroClusterer::Options options;
  options.num_clusters = num_clusters;
  std::vector<std::vector<size_t>> subsets = {{}};  // {} = every row
  if (per_class) {
    for (size_t c = 0; c < data.NumClasses(); ++c) {
      subsets.push_back(data.IndicesOfLabel(static_cast<int>(c)));
    }
  }
  bool all_at_q = true;
  uint64_t records = 0;
  uint64_t distance_evals = 0;
  for (const std::vector<size_t>& rows : subsets) {
    const udm::Dataset subset = rows.empty() ? data : data.Select(rows);
    const udm::ErrorModel subset_errors =
        rows.empty() ? errors : errors.Select(rows);
    udm::Result<std::vector<udm::MicroCluster>> summary = [&] {
      Tracer::Span span("microcluster.BuildMicroClusters");
      return udm::BuildMicroClusters(subset, subset_errors, options);
    }();
    if (!summary.ok() || summary->size() != num_clusters) {
      all_at_q = false;
      continue;
    }
    udm::Result<udm::McDensityModel> model = [&] {
      Tracer::Span span("mc_density.Build");
      return udm::McDensityModel::Build(*summary);
    }();
    if (!model.ok()) all_at_q = false;
    // The first q records seed a cluster each and compare against nothing;
    // every later record is compared with all q centroids (Eq. 5).
    const uint64_t n = subset.NumRows();
    records += n;
    distance_evals += (n - num_clusters) * num_clusters;
  }
  out.Check("summaries_at_q", all_at_q,
            std::to_string(subsets.size()) + " summaries of q=" +
                std::to_string(num_clusters));
  const Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  const double build_s = t.TotalSeconds("microcluster.BuildMicroClusters");
  out.Set("microcluster.build_s", build_s);
  out.Set("microcluster.assign_ns_per_record",
          build_s * 1e9 / static_cast<double>(records));
  out.Set("microcluster.distance_evals", static_cast<double>(distance_evals));
  out.Set("mc_density.build_s", t.TotalSeconds("mc_density.Build"));
}

}  // namespace perfbench
