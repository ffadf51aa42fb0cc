// udm_serve — fault-tolerant density-serving daemon. `udm_serve --help`
// lists its flags (kFlagSpecs below) with their defaults.
//
// Loads the model manifest (see serve/registry.h for the format), serves
// JSON-lines eval/classify/ping/stats/healthz/readyz/tracez/metrics
// requests on the unix socket, and on SIGTERM/SIGINT drains gracefully:
// stops accepting, finishes or cancels in-flight work within
// --drain-deadline-ms, writes the final RunReport (--metrics-out), and
// exits 0. Each eval batch runs at the host's hardware width (bit-identical
// to serial); classify batches run serially (see serve/server.h). An
// unknown flag, or a numeric flag whose value does not parse, exits 2.
//
// --smoke is the self-contained tier-1 fixture: it generates a dataset and
// manifest in a scratch directory, serves on a scratch socket, drives its
// own eval/classify traffic, scrapes every admin verb (stats, healthz,
// readyz, tracez, metrics) and schema-checks the responses, then drains
// and exits 0 only if every check passed.
//
// Prints "listening on <socket>" once ready — harnesses wait for that
// line before connecting.
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/status.h"
#include "obs/access_log.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/snapshotter.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace {

using enum udm::FlagKind;
using udm::FlagValues;

/// Every flag udm_serve reads; parsing rejects any other name, so a typo
/// fails the launch instead of silently running on a default.
constexpr udm::FlagSpec kFlagSpecs[] = {
    {"smoke", kSwitch, nullptr, "self-check on scratch models and socket"},
    {"manifest", kText, nullptr, "model manifest (required unless --smoke)"},
    {"socket", kText, nullptr, "AF_UNIX socket path (required unless --smoke)"},
    {"workers", kCount, "2", "worker threads"},
    {"max-queue", kCount, "64", "queued + in-flight bound; shed past it"},
    {"degrade-watermark", kReal, "0.5", "queue share that degrades"},
    {"degraded-deadline-fraction", kReal, "0.35", "degraded deadline scale"},
    {"default-deadline-ms", kReal, "250", "deadline when none is sent"},
    {"max-deadline-ms", kReal, "10000", "cap on client deadlines"},
    {"drain-deadline-ms", kReal, "2000", "SIGTERM grace before cancelling"},
    {"read-timeout-ms", kReal, "5000", "drop a connection stalled mid-frame"},
    {"write-timeout-ms", kReal, "5000", "drop a client not reading replies"},
    {"max-connections", kCount, "64", "concurrent client cap"},
    {"retry", kCount, "3", "manifest/model read attempts"},
    {"stats-window-s", kReal, "60", "stats/metrics window (at most 64 s)"},
    {"access-log", kText, nullptr, "per-request JSON-lines log"},
    {"rotate-bytes", kCount, "67108864", "access-log size that rotates it"},
    {"snapshot-out", kText, nullptr, "windowed-metrics snapshot file"},
    {"snapshot-interval-ms", kReal, "5000", "snapshot period"},
    {"metrics-out", kText, nullptr, "final RunReport, written during drain"},
};

// Self-pipe for async-signal-safe shutdown: the handler only writes one
// byte; all real work happens on the main thread after poll() wakes.
int g_signal_pipe[2] = {-1, -1};

void OnTermSignal(int /*signo*/) {
  const char byte = 1;
  // write(2) is async-signal-safe; the pipe is O_NONBLOCK so a full pipe
  // (already signalled) is fine to ignore.
  [[maybe_unused]] const ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

// ---------------------------------------------------------------------------
// --smoke scratch fixture
// ---------------------------------------------------------------------------

udm::Status WriteFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return udm::Status::IoError("cannot write " + path + ": " +
                                std::strerror(errno));
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (written != content.size()) {
    return udm::Status::IoError("short write to " + path);
  }
  return udm::Status::OK();
}

/// Two separated gaussian blobs with a trailing label column — enough
/// structure for both the kde and classifier models.
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

/// Scratch dataset + manifest + socket for --smoke (kept on failure so a
/// red ctest run leaves something to debug with).
struct SmokeFixture {
  std::string workdir;
  std::string manifest_path;
  std::string socket_path;

  udm::Status Create() {
    char tmp_template[] = "/tmp/udm_smoke_XXXXXX";
    if (mkdtemp(tmp_template) == nullptr) {
      return udm::Status::IoError(std::string("mkdtemp: ") +
                                  std::strerror(errno));
    }
    workdir = tmp_template;
    socket_path = workdir + "/s.sock";
    const std::string csv_path = workdir + "/data.csv";
    UDM_RETURN_IF_ERROR(WriteFile(csv_path, GenerateCsv(160, 3, 11)));
    manifest_path = workdir + "/manifest.txt";
    return WriteFile(manifest_path, "udm-models 1\n"
                                    "kde base " + csv_path + "\n"
                                    "classifier clf " + csv_path +
                                    " 0.25 12\n");
  }

  void Cleanup(bool keep) {
    if (workdir.empty() || keep) return;
    unlink((workdir + "/data.csv").c_str());
    unlink(manifest_path.c_str());
    unlink(socket_path.c_str());
    rmdir(workdir.c_str());
  }
};

/// Drives the smoke workload and scrapes + schema-checks every admin verb.
/// Each assertion lands in `report`; returns false if any failed.
bool RunSmokeChecks(const std::string& socket_path,
                    udm::obs::RunReport& report) {
  using udm::Result;
  using udm::obs::JsonValue;
  using udm::serve::ServeClient;
  using udm::serve::ServeOp;
  using udm::serve::ServeRequest;
  using udm::serve::ServeResponse;
  using udm::serve::ServeStatus;

  bool all_ok = true;
  const auto check = [&](const std::string& name, bool ok,
                         const std::string& detail) {
    report.AddCheck(name, ok, detail);
    std::printf("%s: %s (%s)\n", ok ? "PASS" : "FAIL", name.c_str(),
                detail.c_str());
    if (!ok) all_ok = false;
  };

  Result<ServeClient> client = ServeClient::Connect(socket_path);
  if (!client.ok()) {
    check("smoke_connect", false, client.status().ToString());
    return false;
  }

  // Workload: enough eval/classify traffic to populate the windowed
  // histograms, the tracez sample, and the access log.
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> coord(-3.0, 3.0);
  size_t served = 0;
  std::string echoed_trace_id;
  for (size_t i = 0; i < 12; ++i) {
    ServeRequest request;
    const bool classify = i % 3 == 2;
    request.op = classify ? ServeOp::kClassify : ServeOp::kEval;
    request.model = classify ? "clf" : "base";
    request.id_json = std::to_string(i);
    request.dims = 3;
    request.num_points = 4;
    request.points.resize(request.dims * request.num_points);
    for (double& x : request.points) x = coord(rng);
    request.deadline_ms = 2000.0;
    if (i == 0) request.trace_id = "smoke-client-trace";
    Result<ServeResponse> response = client.value().Call(request, 10000.0);
    if (response.ok() && (response.value().status == ServeStatus::kOk ||
                          response.value().status == ServeStatus::kPartial)) {
      ++served;
      if (i == 0) echoed_trace_id = response.value().trace_id;
    }
  }
  check("smoke_requests_served", served == 12,
        std::to_string(served) + "/12 eval+classify responses ok");
  check("smoke_trace_id_echoed", echoed_trace_id == "smoke-client-trace",
        "response trace_id '" + echoed_trace_id + "'");

  const auto admin = [&](ServeOp op) -> Result<ServeResponse> {
    ServeRequest request;
    request.op = op;
    request.window_seconds = 60.0;
    return client.value().Call(request, 10000.0);
  };

  // stats: counters + window block + health rollup.
  if (Result<ServeResponse> stats = admin(ServeOp::kStats); stats.ok()) {
    Result<JsonValue> doc = JsonValue::Parse(stats.value().stats_json);
    if (!doc.ok()) {
      check("smoke_stats_parses", false, doc.status().ToString());
    } else {
      const JsonValue* served_field = doc.value().Find("served_ok");
      check("smoke_stats_parses",
            served_field != nullptr && served_field->is_number() &&
                served_field->number() > 0.0,
            "stats parses and served_ok > 0");
      const JsonValue* window = doc.value().Find("window");
      const JsonValue* qps =
          window != nullptr ? window->Find("qps") : nullptr;
      const JsonValue* p99 =
          window != nullptr ? window->Find("request_p99_ms") : nullptr;
      check("smoke_stats_window",
            qps != nullptr && qps->is_number() && qps->number() > 0.0 &&
                p99 != nullptr && p99->is_number() && p99->number() > 0.0,
            "window qps/p99 populated over the smoke run");
      const JsonValue* eval_width = doc.value().Find("eval_width");
      check("smoke_stats_eval_width",
            eval_width != nullptr && eval_width->is_number() &&
                eval_width->number() ==
                    static_cast<double>(udm::ThreadPool::HardwareThreads()),
            "eval_width is the host's hardware width");
      const JsonValue* health = doc.value().Find("health");
      const JsonValue* healthy =
          health != nullptr ? health->Find("healthy") : nullptr;
      check("smoke_stats_health",
            healthy != nullptr && healthy->is_bool() && healthy->boolean(),
            "health.healthy true");
    }
  } else {
    check("smoke_stats_parses", false, stats.status().ToString());
  }

  // healthz / readyz.
  if (Result<ServeResponse> healthz = admin(ServeOp::kHealthz);
      healthz.ok()) {
    Result<JsonValue> doc = JsonValue::Parse(healthz.value().stats_json);
    const JsonValue* healthy =
        doc.ok() ? doc.value().Find("healthy") : nullptr;
    check("smoke_healthz",
          healthy != nullptr && healthy->is_bool() && healthy->boolean(),
          "healthz.healthy true");
  } else {
    check("smoke_healthz", false, healthz.status().ToString());
  }
  if (Result<ServeResponse> readyz = admin(ServeOp::kReadyz); readyz.ok()) {
    Result<JsonValue> doc = JsonValue::Parse(readyz.value().stats_json);
    const JsonValue* ready = doc.ok() ? doc.value().Find("ready") : nullptr;
    check("smoke_readyz",
          ready != nullptr && ready->is_bool() && ready->boolean(),
          "readyz.ready true");
  } else {
    check("smoke_readyz", false, readyz.status().ToString());
  }

  // tracez: the slowest capture must exist, have spans, and every span
  // belongs to the one request (they share the capture's trace_id by
  // construction — the check here is that spans actually stitched).
  if (Result<ServeResponse> tracez = admin(ServeOp::kTracez); tracez.ok()) {
    Result<JsonValue> doc = JsonValue::Parse(tracez.value().stats_json);
    const JsonValue* slowest =
        doc.ok() ? doc.value().Find("slowest") : nullptr;
    bool ok = slowest != nullptr && slowest->is_array() &&
              !slowest->items().empty();
    std::string detail = "no captures";
    if (ok) {
      const JsonValue& top = slowest->items().front();
      const JsonValue* trace_id = top.Find("trace_id");
      const JsonValue* spans = top.Find("spans");
      ok = trace_id != nullptr && trace_id->is_string() &&
           !trace_id->string().empty() && spans != nullptr &&
           spans->is_array() && !spans->items().empty();
      detail = ok ? "slowest capture " + trace_id->string() + " with " +
                        std::to_string(spans->items().size()) + " spans"
                  : "capture missing trace_id/spans";
    }
    check("smoke_tracez", ok, detail);
  } else {
    check("smoke_tracez", false, tracez.status().ToString());
  }

  // metrics: Prometheus-style text exposition.
  if (Result<ServeResponse> metrics = admin(ServeOp::kMetrics);
      metrics.ok()) {
    const std::string& text = metrics.value().text;
    const bool ok = text.find("# TYPE udm_serve_served_total counter") !=
                        std::string::npos &&
                    text.find("udm_serve_request_seconds_bucket") !=
                        std::string::npos &&
                    text.find("# TYPE udm_serve_eval_width gauge") !=
                        std::string::npos &&
                    text.find("_window") != std::string::npos;
    check("smoke_metrics_text", ok,
          "exposition has typed counters, the eval-width gauge, histogram "
          "buckets, window series");
  } else {
    check("smoke_metrics_text", false, metrics.status().ToString());
  }
  return all_ok;
}

udm::Status Run(const FlagValues& flags) {
  const bool smoke = flags.Has("smoke");
  SmokeFixture fixture;
  std::string manifest_path = flags.Text("manifest");
  std::string socket_path = flags.Text("socket");
  if (smoke) {
    UDM_RETURN_IF_ERROR(fixture.Create());
    if (manifest_path.empty()) manifest_path = fixture.manifest_path;
    if (socket_path.empty()) socket_path = fixture.socket_path;
  }
  if (manifest_path.empty() || socket_path.empty()) {
    return udm::Status::InvalidArgument(
        "--manifest and --socket are required (or --smoke)");
  }

  udm::serve::ModelRegistry::Options registry_options;
  registry_options.retry.max_attempts = flags.Size("retry");
  udm::serve::ModelRegistry registry(registry_options);
  UDM_RETURN_IF_ERROR(registry.LoadManifest(manifest_path));

  udm::serve::ServerOptions options;
  options.socket_path = socket_path;
  options.workers = flags.Size("workers");
  options.max_queue = flags.Size("max-queue");
  options.degrade_watermark = flags.Real("degrade-watermark");
  options.degraded_deadline_fraction =
      flags.Real("degraded-deadline-fraction");
  options.default_deadline_ms = flags.Real("default-deadline-ms");
  options.max_deadline_ms = flags.Real("max-deadline-ms");
  options.drain_deadline_ms = flags.Real("drain-deadline-ms");
  options.read_timeout_ms = flags.Real("read-timeout-ms");
  options.write_timeout_ms = flags.Real("write-timeout-ms");
  options.max_connections = flags.Size("max-connections");
  options.stats_window_seconds = flags.Real("stats-window-s");

  // Per-request structured access log (--access-log; --smoke defaults it
  // into the scratch dir so the fixture always exercises the writer).
  udm::obs::AccessLog access_log;
  std::string access_log_path = flags.Text("access-log");
  if (smoke && access_log_path.empty()) {
    access_log_path = fixture.workdir + "/access.jsonl";
  }
  if (!access_log_path.empty()) {
    udm::obs::AccessLogOptions log_options;
    log_options.path = access_log_path;
    log_options.rotate_bytes = flags.Size("rotate-bytes");
    UDM_RETURN_IF_ERROR(access_log.Open(log_options));
    options.access_log = &access_log;
  }

  udm::obs::RunReport report("udm_serve");
  report.SetConfig(flags);
  report.SetConfig("models", static_cast<uint64_t>(registry.size()));
  report.SetConfig("simd", udm::SimdLevelName(udm::ProcessSimdLevel()));

  udm::serve::Server server(&registry, options);
  UDM_RETURN_IF_ERROR(server.Start());
  std::printf("listening on %s (%zu models, %zu workers, eval width %zu)\n",
              options.socket_path.c_str(), registry.size(), options.workers,
              server.eval_width());
  std::fflush(stdout);

  // Background metrics snapshotter (--snapshot-out; --smoke defaults it).
  udm::obs::Snapshotter snapshotter;
  std::string snapshot_path = flags.Text("snapshot-out");
  if (smoke && snapshot_path.empty()) {
    snapshot_path = fixture.workdir + "/snapshot.json";
  }
  if (!snapshot_path.empty()) {
    udm::obs::SnapshotterOptions snapshot_options;
    snapshot_options.path = snapshot_path;
    snapshot_options.interval_seconds =
        flags.Real("snapshot-interval-ms") / 1000.0;
    snapshot_options.window_seconds = options.stats_window_seconds;
    UDM_RETURN_IF_ERROR(snapshotter.Start(snapshot_options));
  }

  bool smoke_ok = true;
  if (smoke) {
    smoke_ok = RunSmokeChecks(options.socket_path, report);
  } else {
    // Block until SIGTERM/SIGINT.
    for (;;) {
      pollfd pfd{g_signal_pipe[0], POLLIN, 0};
      const int ready = poll(&pfd, 1, -1);
      if (ready > 0) break;
      if (ready < 0 && errno != EINTR) {
        return udm::Status::IoError(std::string("poll(): ") +
                                    std::strerror(errno));
      }
    }
    std::printf("draining...\n");
    std::fflush(stdout);
  }
  server.Drain();
  snapshotter.Stop();  // final snapshot captures the drained state
  access_log.Close();

  const udm::serve::ServerCounters counters = server.Counters();
  const uint64_t answered = counters.served_ok + counters.served_partial +
                            counters.served_error +
                            counters.cancelled_by_drain +
                            counters.response_write_failures;
  report.AddCheck("drain_completed", true, "all threads joined");
  report.AddCheck(
      "no_leaked_requests", answered >= counters.admitted,
      "admitted " + std::to_string(counters.admitted) + ", answered " +
          std::to_string(answered));
  udm::obs::ReportTable table;
  table.title = "serving";
  table.columns = {"counter", "value"};
  const auto row = [&table](const char* name, uint64_t value) {
    table.rows.push_back({name, std::to_string(value)});
  };
  row("frames_received", counters.frames_received);
  row("admitted", counters.admitted);
  row("served_ok", counters.served_ok);
  row("served_partial", counters.served_partial);
  row("served_error", counters.served_error);
  row("shed_overload", counters.shed_overload);
  row("shed_draining", counters.shed_draining);
  row("degraded", counters.degraded);
  row("cancelled_by_drain", counters.cancelled_by_drain);
  row("protocol_errors", counters.protocol_errors);
  row("client_aborts", counters.client_aborts);
  report.AddTable(std::move(table));

  const std::string& metrics_out = flags.Text("metrics-out");
  if (!metrics_out.empty()) {
    UDM_RETURN_IF_ERROR(report.Write(metrics_out));
    std::printf("wrote report to %s\n", metrics_out.c_str());
  }
  std::printf("drained: admitted=%llu served_ok=%llu shed=%llu\n",
              static_cast<unsigned long long>(counters.admitted),
              static_cast<unsigned long long>(counters.served_ok),
              static_cast<unsigned long long>(counters.shed_overload +
                                              counters.shed_draining));
  if (smoke) {
    // Keep the scratch dir on failure for debugging; delete only files the
    // fixture itself created (explicit --access-log/--snapshot-out paths
    // outlive the run either way).
    if (smoke_ok && access_log_path.rfind(fixture.workdir, 0) == 0) {
      unlink(access_log_path.c_str());
      unlink((access_log_path + ".1").c_str());
    }
    if (smoke_ok && snapshot_path.rfind(fixture.workdir, 0) == 0) {
      unlink(snapshot_path.c_str());
    }
    fixture.Cleanup(/*keep=*/!smoke_ok);
    if (!smoke_ok) {
      return udm::Status::Internal("smoke checks failed (scratch kept at " +
                                   fixture.workdir + ")");
    }
  }
  return udm::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  if (pipe2(g_signal_pipe, O_CLOEXEC | O_NONBLOCK) != 0) {
    std::fprintf(stderr, "pipe2(): %s\n", std::strerror(errno));
    return 1;
  }
  signal(SIGPIPE, SIG_IGN);  // slow/vanished clients must not kill us
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnTermSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  const FlagValues flags =
      udm::ParseFlagsOrExit("udm_serve", kFlagSpecs, argc, argv);
  const udm::Status status = Run(flags);
  if (!status.ok()) {
    std::fprintf(stderr, "udm_serve: %s\n", status.ToString().c_str());
    return status.code() == udm::StatusCode::kInvalidArgument ? 2 : 1;
  }
  return 0;
}
