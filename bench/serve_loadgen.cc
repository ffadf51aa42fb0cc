// serve_loadgen — closed-loop load generator for udm_serve.
//
//   serve_loadgen --server-bin build/tools/udm_serve [--smoke]
//   serve_loadgen --socket /tmp/udm.sock --clients 8 --requests 100
//
// Drives eval/classify traffic at one or more concurrency levels and
// reports per-level p50/p95/p99 latency, throughput, and the daemon's own
// shed/degraded/served counters (fetched with the stats op). With
// --server-bin it owns the whole lifecycle: generates a dataset + manifest
// in a scratch directory, spawns the daemon, waits for readiness, runs the
// load, SIGTERMs it, and asserts a clean (exit 0) drain.
//
// The saturation sweep (--sweep "1,2,4,8") pairs rising client counts with
// a deliberately small --max-queue so the run crosses saturation: the
// check is that p99 stays bounded by the deadline while the overflow shows
// up as explicit `overloaded` shedding — never as unbounded latency.
//
// Flags:
//   --server-bin PATH   spawn this udm_serve binary (scratch workdir)
//   --server-report P   --metrics-out path passed to the spawned daemon
//   --socket PATH       drive an already-running daemon instead
//   --clients N         concurrent closed-loop clients (default 4)
//   --requests N        requests per client per level (default 50)
//   --points K          query points per request (default 4)
//   --deadline-ms D     per-request deadline (default 150)
//   --mode M            eval | classify | mixed (default mixed)
//   --sweep "1,2,.."    client counts per level (overrides --clients)
//   --workers N         spawned daemon worker threads (default 1)
//   --max-queue N       spawned daemon queue bound (default 8; with
//                       --sweep, top level - workers - 1, at least 1)
//   --smoke             tiny fixed workload for the tier-1 ctest fixture
//   --scrape-interval-ms N  poll the stats op on a side connection every
//                       N ms for the whole run and assert the admin path
//                       stays responsive while the workers saturate
//   --metrics-out PATH  write the loadgen's own RunReport JSON
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace {

using udm::Result;
using udm::Status;
using udm::serve::ProtocolLimits;
using udm::serve::ServeClient;
using udm::serve::ServeOp;
using udm::serve::ServeRequest;
using udm::serve::ServeResponse;
using udm::serve::ServeStatus;

using Flags = std::map<std::string, std::string>;

Result<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected --flag, got '" + key + "'");
    }
    const std::string name = key.substr(2);
    if (name == "smoke") {  // the only boolean flag
      flags[name] = "1";
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag '" + key + "' needs a value");
    }
    flags[name] = argv[++i];
  }
  return flags;
}

std::string GetFlag(const Flags& flags, const std::string& key,
                    const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

double GetDouble(const Flags& flags, const std::string& key, double fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : std::atof(it->second.c_str());
}

size_t GetSize(const Flags& flags, const std::string& key, size_t fallback) {
  const auto it = flags.find(key);
  return it == flags.end()
             ? fallback
             : static_cast<size_t>(std::atoll(it->second.c_str()));
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spawned-daemon lifecycle
// ---------------------------------------------------------------------------

/// Owns a scratch workdir, the generated dataset + manifest, and the
/// daemon child process.
class SpawnedServer {
 public:
  Status Start(const std::string& server_bin, size_t workers,
               size_t max_queue, double deadline_ms,
               const std::string& server_report);
  /// SIGTERM + waitpid; returns the child's exit code (-1 = abnormal).
  int Stop();
  const std::string& socket_path() const { return socket_path_; }

 private:
  std::string workdir_;
  std::string socket_path_;
  pid_t pid_ = -1;
};

/// Two well-separated gaussian blobs with the label in the trailing
/// column — enough structure for both the kde and classifier models.
std::string GenerateCsv(size_t rows, size_t dims, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.6);
  std::string csv;
  for (size_t j = 0; j < dims; ++j) {
    csv += "x" + std::to_string(j) + ",";
  }
  csv += "label\n";
  for (size_t i = 0; i < rows; ++i) {
    const int label = static_cast<int>(i % 2);
    const double center = label == 0 ? -2.0 : 2.0;
    for (size_t j = 0; j < dims; ++j) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6f,", center + noise(rng));
      csv += buf;
    }
    csv += std::to_string(label) + "\n";
  }
  return csv;
}

Status WriteFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot write " + path + ": " +
                           std::strerror(errno));
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (written != content.size()) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

Status SpawnedServer::Start(const std::string& server_bin, size_t workers,
                            size_t max_queue, double deadline_ms,
                            const std::string& server_report) {
  // Scratch directory: prefer the cwd (ctest runs in the build tree), but
  // fall back to /tmp when the resulting socket path would overflow
  // sockaddr_un's ~107-byte limit.
  char cwd_template[] = "serve_loadgen_XXXXXX";
  char tmp_template[] = "/tmp/serve_loadgen_XXXXXX";
  char cwd_buf[512];
  std::string base;
  if (getcwd(cwd_buf, sizeof(cwd_buf)) != nullptr &&
      std::strlen(cwd_buf) + sizeof(cwd_template) + sizeof("/s.sock") < 100) {
    if (mkdtemp(cwd_template) == nullptr) {
      return Status::IoError(std::string("mkdtemp: ") + std::strerror(errno));
    }
    base = std::string(cwd_buf) + "/" + cwd_template;
  } else {
    if (mkdtemp(tmp_template) == nullptr) {
      return Status::IoError(std::string("mkdtemp: ") + std::strerror(errno));
    }
    base = tmp_template;
  }
  workdir_ = base;
  socket_path_ = base + "/s.sock";

  const std::string csv_path = base + "/data.csv";
  UDM_RETURN_IF_ERROR(WriteFile(csv_path, GenerateCsv(240, 4, 7)));
  const std::string manifest_path = base + "/manifest.txt";
  UDM_RETURN_IF_ERROR(
      WriteFile(manifest_path, "udm-models 1\n"
                               "kde base " + csv_path + "\n"
                               "classifier clf " + csv_path + " 0.25 16\n"));

  std::vector<std::string> args = {
      server_bin,
      "--manifest", manifest_path,
      "--socket", socket_path_,
      "--workers", std::to_string(workers),
      "--max-queue", std::to_string(max_queue),
      "--default-deadline-ms", std::to_string(deadline_ms),
      "--drain-deadline-ms", "2000",
  };
  if (!server_report.empty()) {
    args.push_back("--metrics-out");
    args.push_back(server_report);
  }

  pid_ = fork();
  if (pid_ < 0) {
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    // Child: route the daemon's stdout/stderr into a log in the workdir so
    // the loadgen's own table stays clean.
    const std::string log_path = workdir_ + "/server.log";
    FILE* log = std::fopen(log_path.c_str(), "wb");
    if (log != nullptr) {
      dup2(fileno(log), STDOUT_FILENO);
      dup2(fileno(log), STDERR_FILENO);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(server_bin.c_str(), argv.data());
    std::fprintf(stderr, "execv(%s): %s\n", server_bin.c_str(),
                 std::strerror(errno));
    _exit(127);
  }

  // Parent: wait until the daemon answers a ping (manifest fitting takes a
  // moment; sanitized builds take longer).
  const double give_up = NowSeconds() + 30.0;
  while (NowSeconds() < give_up) {
    Result<ServeClient> probe = ServeClient::Connect(socket_path_);
    if (probe.ok()) {
      ServeRequest ping;
      ping.op = ServeOp::kPing;
      Result<ServeResponse> pong = probe.value().Call(ping, 1000.0);
      if (pong.ok() && pong.value().status == ServeStatus::kOk) {
        return Status::OK();
      }
    }
    // The child may have died on a bad flag — fail fast instead of
    // polling out the full window.
    int wait_status = 0;
    if (waitpid(pid_, &wait_status, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::Internal("server exited during startup (see " +
                              workdir_ + "/server.log)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return Status::DeadlineExceeded("server did not become ready in 30s");
}

int SpawnedServer::Stop() {
  if (pid_ < 0) return -1;
  kill(pid_, SIGTERM);
  int wait_status = 0;
  const pid_t waited = waitpid(pid_, &wait_status, 0);
  pid_ = -1;
  // Best-effort scratch cleanup; the server.log stays only on failure so
  // a red ctest run leaves something to debug with.
  const int exit_code =
      (waited < 0 || !WIFEXITED(wait_status)) ? -1 : WEXITSTATUS(wait_status);
  if (!workdir_.empty()) {
    unlink((workdir_ + "/data.csv").c_str());
    unlink((workdir_ + "/manifest.txt").c_str());
    unlink(socket_path_.c_str());
    if (exit_code == 0) {
      unlink((workdir_ + "/server.log").c_str());
      rmdir(workdir_.c_str());
    }
  }
  return exit_code;
}

// ---------------------------------------------------------------------------
// Load level
// ---------------------------------------------------------------------------

struct LevelResult {
  size_t clients = 0;
  std::vector<double> latencies_ms;  // sorted ascending after the run
  uint64_t ok = 0;
  uint64_t partial = 0;
  uint64_t shed = 0;        // overloaded + draining responses seen
  uint64_t degraded = 0;    // responses flagged degraded
  uint64_t errors = 0;      // transport or unexpected-status failures
  double wall_seconds = 0.0;
  // Daemon-side counters from the stats op after the level completed.
  uint64_t server_shed = 0;
  uint64_t server_degraded = 0;
  uint64_t server_served = 0;
};

double PercentileMs(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(q * static_cast<double>(
                                                   sorted.size() - 1));
  return sorted[index];
}

struct LoadConfig {
  size_t requests_per_client = 50;
  size_t points = 4;
  double deadline_ms = 150.0;
  std::string mode = "mixed";  // eval | classify | mixed
};

void ClientWorker(const std::string& socket_path, const LoadConfig& config,
                  size_t client_id, LevelResult* result, std::mutex* mu) {
  std::vector<double> latencies;
  uint64_t ok = 0, partial = 0, shed = 0, degraded = 0, errors = 0;
  std::mt19937_64 rng(1000 + client_id);
  std::uniform_real_distribution<double> coord(-3.0, 3.0);

  Result<ServeClient> client = ServeClient::Connect(socket_path);
  if (!client.ok()) {
    std::lock_guard<std::mutex> lock(*mu);
    result->errors += config.requests_per_client;
    return;
  }

  for (size_t i = 0; i < config.requests_per_client; ++i) {
    ServeRequest request;
    const bool classify =
        config.mode == "classify" || (config.mode == "mixed" && i % 2 == 1);
    request.op = classify ? ServeOp::kClassify : ServeOp::kEval;
    request.model = classify ? "clf" : "base";
    request.id_json = std::to_string(client_id * 1000000 + i);
    request.dims = 4;
    request.num_points = config.points;
    request.points.resize(request.dims * request.num_points);
    for (double& x : request.points) x = coord(rng);
    request.deadline_ms = config.deadline_ms;

    const double start = NowSeconds();
    Result<ServeResponse> response =
        client.value().Call(request, config.deadline_ms * 20.0 + 2000.0);
    const double elapsed_ms = (NowSeconds() - start) * 1000.0;

    if (!response.ok()) {
      ++errors;
      // The connection may be dead (server draining mid-run) — reconnect
      // so one failure doesn't void the rest of this client's schedule.
      client = ServeClient::Connect(socket_path);
      if (!client.ok()) {
        errors += config.requests_per_client - i - 1;
        break;
      }
      continue;
    }
    latencies.push_back(elapsed_ms);
    static udm::obs::Histogram& latency_hist =
        udm::obs::MetricsRegistry::Global().GetHistogram(
            "loadgen.request.seconds");
    latency_hist.Record(elapsed_ms / 1000.0);
    const ServeResponse& r = response.value();
    if (r.degraded) ++degraded;
    switch (r.status) {
      case ServeStatus::kOk:
        ++ok;
        break;
      case ServeStatus::kPartial:
      case ServeStatus::kDeadlineExceeded:
        ++partial;
        break;
      case ServeStatus::kOverloaded:
      case ServeStatus::kDraining:
        ++shed;
        // Honor the server's back-off hint (capped so a sweep level can't
        // stall) — this is the cooperative half of admission control.
        if (r.retry_after_ms > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              std::min(r.retry_after_ms, 50.0)));
        }
        break;
      default:
        ++errors;
        break;
    }
  }

  std::lock_guard<std::mutex> lock(*mu);
  result->latencies_ms.insert(result->latencies_ms.end(), latencies.begin(),
                              latencies.end());
  result->ok += ok;
  result->partial += partial;
  result->shed += shed;
  result->degraded += degraded;
  result->errors += errors;
}

// ---------------------------------------------------------------------------
// Admin-path scraper
// ---------------------------------------------------------------------------

/// Polls the stats op on its own connection while the load runs. The admin
/// verbs are answered inline on reader threads, so saturating the worker
/// pool must not make introspection slow — the scraper measures exactly
/// that claim, and Run() asserts it after the sweep.
class StatsScraper {
 public:
  void Start(std::string socket_path, double interval_ms) {
    socket_path_ = std::move(socket_path);
    interval_ms_ = interval_ms;
    stop_.store(false);
    thread_ = std::thread([this] { Loop(); });
  }

  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }

  /// Sorted ascending; valid after Stop().
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  uint64_t failures() const { return failures_; }

 private:
  void Loop() {
    Result<ServeClient> client = ServeClient::Connect(socket_path_);
    while (!stop_.load()) {
      if (!client.ok() || !client.value().connected()) {
        client = ServeClient::Connect(socket_path_);
        if (!client.ok()) {
          ++failures_;
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(interval_ms_));
          continue;
        }
      }
      ServeRequest request;
      request.op = ServeOp::kStats;
      request.window_seconds = 60.0;
      const double start = NowSeconds();
      Result<ServeResponse> response = client.value().Call(request, 10000.0);
      const double elapsed_ms = (NowSeconds() - start) * 1000.0;
      if (response.ok() && !response.value().stats_json.empty()) {
        latencies_ms_.push_back(elapsed_ms);
      } else {
        ++failures_;
        client = Status::IoError("reconnect next scrape");
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(interval_ms_));
    }
    std::sort(latencies_ms_.begin(), latencies_ms_.end());
  }

  std::string socket_path_;
  double interval_ms_ = 0.0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::vector<double> latencies_ms_;  // only touched by the scraper thread
  uint64_t failures_ = 0;
};

/// Reads one uint64 field out of the stats-op payload (0 if absent).
uint64_t StatsField(const udm::obs::JsonValue& stats, const char* key) {
  const udm::obs::JsonValue* field = stats.Find(key);
  if (field == nullptr || !field->is_number()) return 0;
  return static_cast<uint64_t>(field->number());
}

LevelResult RunLevel(const std::string& socket_path, size_t clients,
                     const LoadConfig& config) {
  LevelResult result;
  result.clients = clients;
  std::mutex mu;
  const double start = NowSeconds();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back(ClientWorker, socket_path, config, c, &result, &mu);
  }
  for (std::thread& t : threads) t.join();
  result.wall_seconds = NowSeconds() - start;
  std::sort(result.latencies_ms.begin(), result.latencies_ms.end());

  // Snapshot the daemon's own counters (cumulative across levels).
  Result<ServeClient> client = ServeClient::Connect(socket_path);
  if (client.ok()) {
    ServeRequest stats_request;
    stats_request.op = ServeOp::kStats;
    Result<ServeResponse> response = client.value().Call(stats_request);
    if (response.ok() && !response.value().stats_json.empty()) {
      Result<udm::obs::JsonValue> stats =
          udm::obs::JsonValue::Parse(response.value().stats_json);
      if (stats.ok()) {
        result.server_shed = StatsField(*stats, "shed_overload") +
                             StatsField(*stats, "shed_draining");
        result.server_degraded = StatsField(*stats, "degraded");
        result.server_served = StatsField(*stats, "served_ok") +
                               StatsField(*stats, "served_partial");
      }
    }
  }
  return result;
}

std::vector<size_t> ParseSweep(const std::string& spec) {
  std::vector<size_t> levels;
  std::string token;
  for (const char c : spec + ",") {
    if (c == ',') {
      if (!token.empty()) {
        levels.push_back(static_cast<size_t>(std::atoll(token.c_str())));
        token.clear();
      }
    } else {
      token += c;
    }
  }
  return levels;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

int Run(const Flags& flags) {
  const bool smoke = flags.count("smoke") != 0;
  LoadConfig config;
  config.requests_per_client = GetSize(flags, "requests", smoke ? 12 : 50);
  config.points = GetSize(flags, "points", 4);
  config.deadline_ms = GetDouble(flags, "deadline-ms", 150.0);
  config.mode = GetFlag(flags, "mode", "mixed");

  std::vector<size_t> levels;
  if (flags.count("sweep") != 0) {
    levels = ParseSweep(flags.at("sweep"));
  } else if (smoke) {
    levels = {2};
  } else {
    levels = {GetSize(flags, "clients", 4)};
  }
  if (levels.empty()) {
    std::fprintf(stderr, "serve_loadgen: empty --sweep\n");
    return 2;
  }

  // Admission sheds when queued + in-flight requests reach max-queue, and
  // a closed-loop client has at most one request in the daemon. A sweep's
  // default bound leaves the top level's clients outnumbering max-queue +
  // workers, so the daemon must shed even while `workers` clients sit
  // between an answer and their next request — shedding_observed then
  // checks the daemon, not a race between a client's resend and a
  // worker's in-flight decrement.
  const size_t workers = GetSize(flags, "workers", 1);
  const size_t top_level = *std::max_element(levels.begin(), levels.end());
  size_t default_max_queue = 8;
  if (levels.size() > 1) {
    default_max_queue = top_level > workers + 1 ? top_level - workers - 1 : 1;
  }
  const std::string server_bin = GetFlag(flags, "server-bin", "");
  std::string socket_path = GetFlag(flags, "socket", "");
  SpawnedServer server;
  if (!server_bin.empty()) {
    const Status started = server.Start(
        server_bin, workers, GetSize(flags, "max-queue", default_max_queue),
        config.deadline_ms, GetFlag(flags, "server-report", ""));
    if (!started.ok()) {
      std::fprintf(stderr, "serve_loadgen: %s\n", started.ToString().c_str());
      return 1;
    }
    socket_path = server.socket_path();
  } else if (socket_path.empty()) {
    std::fprintf(stderr,
                 "serve_loadgen: need --server-bin or --socket\n");
    return 2;
  }

  // Admin-path scraper: --scrape-interval-ms (smoke defaults it on so the
  // tier-1 fixture always exercises the inline admin path under load).
  const double scrape_interval_ms =
      GetDouble(flags, "scrape-interval-ms", smoke ? 25.0 : 0.0);
  StatsScraper scraper;
  if (scrape_interval_ms > 0.0) {
    scraper.Start(socket_path, scrape_interval_ms);
  }

  udm::obs::RunReport report("serve_loadgen");
  report.SetConfig("mode", config.mode);
  report.SetConfig("scrape_interval_ms", scrape_interval_ms);
  report.SetConfig("requests_per_client",
                   static_cast<uint64_t>(config.requests_per_client));
  report.SetConfig("points", static_cast<uint64_t>(config.points));
  report.SetConfig("deadline_ms", config.deadline_ms);
  report.SetConfig("smoke", smoke ? "true" : "false");

  static udm::obs::Counter& served_counter =
      udm::obs::MetricsRegistry::Global().GetCounter("loadgen.served_total");
  static udm::obs::Counter& shed_counter =
      udm::obs::MetricsRegistry::Global().GetCounter("loadgen.shed_total");
  static udm::obs::Counter& degraded_counter =
      udm::obs::MetricsRegistry::Global().GetCounter(
          "loadgen.degraded_total");

  std::printf("%8s %8s %8s %8s %8s %8s %8s %10s %10s %10s\n", "clients",
              "ok", "partial", "shed", "degraded", "errors", "req/s",
              "p50_ms", "p95_ms", "p99_ms");
  udm::obs::ReportTable table;
  table.title = "load_levels";
  table.columns = {"clients", "ok", "partial", "shed",   "degraded",
                   "errors",  "rps", "p50_ms", "p95_ms", "p99_ms"};

  std::vector<LevelResult> results;
  for (const size_t clients : levels) {
    LevelResult level = RunLevel(socket_path, clients, config);
    served_counter.Increment(level.ok + level.partial);
    shed_counter.Increment(level.shed);
    degraded_counter.Increment(level.degraded);
    const double rps =
        level.wall_seconds > 0.0
            ? static_cast<double>(level.ok + level.partial + level.shed) /
                  level.wall_seconds
            : 0.0;
    const double p50 = PercentileMs(level.latencies_ms, 0.50);
    const double p95 = PercentileMs(level.latencies_ms, 0.95);
    const double p99 = PercentileMs(level.latencies_ms, 0.99);
    std::printf("%8zu %8llu %8llu %8llu %8llu %8llu %8.1f %10.2f %10.2f "
                "%10.2f\n",
                level.clients, static_cast<unsigned long long>(level.ok),
                static_cast<unsigned long long>(level.partial),
                static_cast<unsigned long long>(level.shed),
                static_cast<unsigned long long>(level.degraded),
                static_cast<unsigned long long>(level.errors), rps, p50, p95,
                p99);
    char cell[64];
    std::vector<std::string> row = {std::to_string(level.clients),
                                    std::to_string(level.ok),
                                    std::to_string(level.partial),
                                    std::to_string(level.shed),
                                    std::to_string(level.degraded),
                                    std::to_string(level.errors)};
    std::snprintf(cell, sizeof(cell), "%.1f", rps);
    row.push_back(cell);
    for (const double p : {p50, p95, p99}) {
      std::snprintf(cell, sizeof(cell), "%.2f", p);
      row.push_back(cell);
    }
    table.rows.push_back(std::move(row));
    results.push_back(std::move(level));
  }
  report.AddTable(std::move(table));

  // ---- checks -------------------------------------------------------------
  uint64_t total_served = 0, total_shed = 0, total_errors = 0;
  double worst_p99 = 0.0;
  for (const LevelResult& level : results) {
    total_served += level.ok + level.partial;
    total_shed += level.shed;
    total_errors += level.errors;
    worst_p99 = std::max(worst_p99, PercentileMs(level.latencies_ms, 0.99));
  }
  const LevelResult& last = results.back();

  bool all_ok = true;
  const auto check = [&](const std::string& name, bool ok,
                         const std::string& detail) {
    report.AddCheck(name, ok, detail);
    std::printf("%s: %s (%s)\n", ok ? "PASS" : "FAIL", name.c_str(),
                detail.c_str());
    if (!ok) all_ok = false;
  };

  check("requests_served", total_served > 0,
        std::to_string(total_served) + " ok/partial responses");
  check("no_transport_errors", total_errors == 0,
        std::to_string(total_errors) + " transport/unexpected failures");
  // The robustness claim: past saturation the daemon sheds explicitly
  // instead of letting latency grow without bound. Every admitted request
  // is bounded by its deadline; the slack multiplier absorbs scheduling
  // noise (generous because sanitized builds run this harness too).
  const double p99_bound = config.deadline_ms * 6.0 + 500.0;
  check("bounded_p99", worst_p99 <= p99_bound,
        "worst p99 " + std::to_string(worst_p99) + " ms <= bound " +
            std::to_string(p99_bound) + " ms");
  if (levels.size() > 1 && !smoke) {
    check("shedding_observed", total_shed > 0 || last.server_shed > 0,
          "client saw " + std::to_string(total_shed) + " shed, server " +
              std::to_string(last.server_shed));
  }
  check("server_stats_visible", last.server_served > 0,
        "server reports " + std::to_string(last.server_served) +
            " served, " + std::to_string(last.server_shed) + " shed, " +
            std::to_string(last.server_degraded) + " degraded");

  if (scrape_interval_ms > 0.0) {
    scraper.Stop();
    const std::vector<double>& scrapes = scraper.latencies_ms();
    check("admin_scrapes_succeeded", !scrapes.empty(),
          std::to_string(scrapes.size()) + " stats scrapes, " +
              std::to_string(scraper.failures()) + " failures");
    // The admin path is inline on reader threads, so it must stay orders
    // of magnitude under the saturated eval p99; the bound is loose only
    // for sanitized builds.
    const double scrape_p99 = PercentileMs(scrapes, 0.99);
    const double scrape_bound_ms = 1000.0;
    check("admin_latency_bounded",
          !scrapes.empty() && scrape_p99 <= scrape_bound_ms,
          "stats p99 " + std::to_string(scrape_p99) + " ms <= " +
              std::to_string(scrape_bound_ms) + " ms while workers saturate");
    static udm::obs::Histogram& scrape_hist =
        udm::obs::MetricsRegistry::Global().GetHistogram(
            "loadgen.scrape.seconds");
    for (const double ms : scrapes) scrape_hist.Record(ms / 1000.0);
  }

  if (!server_bin.empty()) {
    const int exit_code = server.Stop();
    check("server_clean_exit", exit_code == 0,
          "udm_serve exit code " + std::to_string(exit_code));
  }

  const std::string metrics_out = GetFlag(flags, "metrics-out", "");
  if (!metrics_out.empty()) {
    const Status written = report.Write(metrics_out);
    if (!written.ok()) {
      std::fprintf(stderr, "serve_loadgen: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote report to %s\n", metrics_out.c_str());
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);  // a draining server closing mid-write is data
  Result<Flags> flags = ParseFlags(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "serve_loadgen: %s\n",
                 flags.status().ToString().c_str());
    return 2;
  }
  return Run(*flags);
}
