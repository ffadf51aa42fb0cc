// serve: open-loop eval traffic against a spawned udm_serve daemon.
//
// The daemon (2 workers) serves an `error_kde` model fitted on noisy
// adult-like rows and an `mc` model over their q=140 summary. One
// generator thread sends eval requests of 64 points on one connection at a
// fixed rate, 3 error_kde : 1 mc, each due at a fixed time whether or not
// earlier answers have arrived. Latency runs from the moment a request was
// due, so a stalled generator or daemon shows in every later request.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/csv.h"
#include "dataset/uci_like.h"
#include "error/perturbation.h"
#include "kde/error_kde.h"
#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"
#include "microcluster/serialize.h"
#include "obs/json.h"
#include "obs/tracez.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "workloads.h"

namespace perfbench {
namespace {

using udm::serve::ServeOp;
using udm::serve::ServeRequest;
using udm::serve::ServeResponse;
using udm::serve::ServeStatus;

/// Rows the daemon's models are fitted on. The clean rows are fixed, like
/// a UCI file (generator seed kDatasetSeed); the run seed draws the
/// injected errors and which rows become query payloads.
constexpr size_t kRows = 4000;
constexpr uint64_t kDatasetSeed = 1;
constexpr double kErrorLevel = 1.0;
constexpr size_t kClusters = 140;
/// The manifest's error_kde line takes one ψ for every entry (the paper's
/// homogeneous special case); the mc summary keeps the per-entry ψ.
constexpr const char* kUniformPsi = "0.25";
/// Points per request: enough that evaluating them, not the socket
/// wake-ups around it, makes up most of a request's latency.
constexpr size_t kPointsPerRequest = 64;
/// Distinct request payloads (held-out noisy points), cycled.
constexpr size_t kPayloads = 64;
/// Every kMcEvery-th request targets the mc model: 3 error_kde : 1 mc.
constexpr size_t kMcEvery = 4;
constexpr size_t kWorkers = 2;
/// Admission bound, deep enough that a host stall of a few tens of ms at
/// the offered rate queues (and shows in latency) instead of shedding.
constexpr size_t kMaxQueue = 1024;
/// Offered load, requests/s: about 0.4 of the saturation rate measured on
/// the commit that introduced the benchmark (see perfbench/README.md).
constexpr double kRate = 400.0;
constexpr double kRequestDeadlineMs = 1000.0;
/// How long the generator waits for answers after the last send.
constexpr double kGraceSeconds = 2.0;
/// Requests due in the first second are sent and checked but not timed:
/// the daemon's threads and the sockets warm up.
constexpr double kWarmupSeconds = 1.0;
/// p90_us is the median over windows of this length (400 requests at
/// kRate) of each window's p90: a host stall moves the windows it falls
/// in, not the figure.
constexpr double kTailWindowSeconds = 1.0;

struct Inputs {
  std::string dir;
  std::string csv_path;
  std::string mc_path;
  std::string manifest_path;
  std::string socket_path;
  udm::UncertainDataset train;
  /// kPayloads × kPointsPerRequest held-out points, row-major.
  std::vector<double> payload_points;
  size_t dims = 0;
};

udm::Result<Inputs> WriteInputs(const std::string& dir, uint64_t seed) {
  const size_t pool = kPayloads * kPointsPerRequest;
  UDM_ASSIGN_OR_RETURN(udm::Dataset clean,
                       udm::MakeAdultLike(kRows + pool, kDatasetSeed));
  udm::PerturbationOptions perturb;
  perturb.f = kErrorLevel;
  perturb.seed = seed * 7 + 3;
  UDM_ASSIGN_OR_RETURN(udm::UncertainDataset noisy,
                       udm::Perturb(clean, perturb));
  std::vector<size_t> rows(kRows + pool);
  std::iota(rows.begin(), rows.end(), size_t{0});
  std::shuffle(rows.begin(), rows.end(), std::mt19937_64(seed));
  const std::vector<size_t> query_rows(rows.begin(), rows.begin() + pool);
  const std::vector<size_t> train_rows(rows.begin() + pool, rows.end());
  Inputs in{dir,
            dir + "/data.csv",
            dir + "/mc.txt",
            dir + "/manifest.txt",
            dir + "/s.sock",
            {noisy.data.Select(train_rows), noisy.errors.Select(train_rows)},
            {},
            noisy.data.NumDims()};
  const udm::Dataset queries = noisy.data.Select(query_rows);
  in.payload_points.assign(queries.values().begin(), queries.values().end());

  UDM_RETURN_IF_ERROR(udm::WriteCsv(in.train.data, in.csv_path));
  udm::MicroClusterer::Options mc_options;
  mc_options.num_clusters = kClusters;
  UDM_ASSIGN_OR_RETURN(
      std::vector<udm::MicroCluster> summary,
      udm::BuildMicroClusters(in.train.data, in.train.errors, mc_options));
  UDM_RETURN_IF_ERROR(udm::SaveMicroClusters(summary, in.mc_path));
  if (!WriteTextFile(in.manifest_path,
                     std::string("udm-models 1\nerror_kde ekde ") +
                         in.csv_path + " " + kUniformPsi + "\nmc mc " +
                         in.mc_path + "\n")) {
    return udm::Status::IoError("cannot write " + in.manifest_path);
  }
  return in;
}

/// The spawned daemon; SIGTERM + wait on Stop or destruction.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  udm::Status Start(const std::string& bin, const Inputs& in) {
    std::vector<std::string> args = {
        bin,          "--manifest",  in.manifest_path,
        "--socket",   in.socket_path, "--workers",
        std::to_string(kWorkers),     "--max-queue",
        std::to_string(kMaxQueue),    "--default-deadline-ms",
        "1000",       "--drain-deadline-ms",
        "2000"};
    const std::string log_path = in.dir + "/udm_serve.log";
    pid_ = fork();
    if (pid_ < 0) return udm::Status::IoError("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the benchmark
      if (FILE* log = std::fopen(log_path.c_str(), "wb")) {
        dup2(fileno(log), STDOUT_FILENO);
        dup2(fileno(log), STDERR_FILENO);
      }
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(bin.c_str(), argv.data());
      _exit(127);
    }
    const int64_t give_up = NowNs() + 30'000'000'000LL;
    while (NowNs() < give_up) {
      udm::Result<udm::serve::ServeClient> probe =
          udm::serve::ServeClient::Connect(in.socket_path);
      if (probe.ok()) {
        ServeRequest ping;
        ping.op = ServeOp::kPing;
        udm::Result<ServeResponse> pong = probe->Call(ping, 1000.0);
        if (pong.ok() && pong->status == ServeStatus::kOk) {
          return udm::Status::OK();
        }
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return udm::Status::Internal("udm_serve exited during start-up (see " +
                                     log_path + ")");
      }
      usleep(2000);
    }
    return udm::Status::DeadlineExceeded("udm_serve not ready within 30 s");
  }

  /// SIGTERM and wait; returns the exit code (-1 abnormal or not running).
  int Stop() {
    if (pid_ < 0) return -1;
    kill(pid_, SIGTERM);
    int status = 0;
    const pid_t waited = waitpid(pid_, &status, 0);
    pid_ = -1;
    return waited > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  int pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

int ConnectSocket(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return -1;
  }
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Writes every byte, waiting at most 5 s for a full socket to drain.
bool WriteAll(int fd, const std::string& bytes) {
  const int64_t give_up = NowNs() + 5'000'000'000LL;
  size_t done = 0;
  while (done < bytes.size() && NowNs() < give_up) {
    const ssize_t n = send(fd, bytes.data() + done, bytes.size() - done,
                           MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd pfd{fd, POLLOUT, 0};
      poll(&pfd, 1, 100);
    } else {
      return false;
    }
  }
  return done == bytes.size();
}

/// Expected densities per (payload, model), from in-process models fitted
/// from the same files the daemon loaded.
struct Expected {
  std::vector<std::vector<double>> ekde;
  std::vector<std::vector<double>> mc;
};

struct Schedule {
  // Timed (past warm-up) requests answered ok: due → answer received, its
  // due time since the start, and sent → answer received.
  std::vector<double> latency_us;
  std::vector<double> due_s;
  std::vector<double> late_us;      // due → sent
  std::vector<double> round_trip_us;  // sent → response received
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t outstanding = 0;
  uint64_t transport_errors = 0;
  double first_due_s = 0.0;
  double last_answer_s = 0.0;
  std::string first_failure;
};

struct Pending {
  uint64_t index;
  int64_t due_ns;
  int64_t sent_ns;
};

/// Request `index` of the schedule: every kMcEvery-th targets the mc
/// model, and the payloads cycle so each meets both models.
size_t PayloadOf(uint64_t index) { return (index / kMcEvery) % kPayloads; }
bool TargetsMc(uint64_t index) { return index % kMcEvery == kMcEvery - 1; }

ServeRequest MakeEvalRequest(const Inputs& in, uint64_t index) {
  ServeRequest request;
  request.op = ServeOp::kEval;
  request.id_json = std::to_string(index);
  request.model = TargetsMc(index) ? "mc" : "ekde";
  request.dims = in.dims;
  request.num_points = kPointsPerRequest;
  const size_t values = kPointsPerRequest * in.dims;
  const double* first = in.payload_points.data() + PayloadOf(index) * values;
  request.points.assign(first, first + values);
  request.deadline_ms = kRequestDeadlineMs;
  return request;
}

const std::vector<double>& ExpectedFor(const Expected& expected,
                                       uint64_t index) {
  return TargetsMc(index) ? expected.mc[PayloadOf(index)]
                          : expected.ekde[PayloadOf(index)];
}

/// Runs `seconds` of open-loop load at kRate requests/s.
Schedule RunSchedule(const Inputs& in, const Expected& expected,
                     double seconds) {
  Schedule s;
  int fd = ConnectSocket(in.socket_path);
  // Keyed by request id: with two workers, answers can overtake each other.
  std::unordered_map<std::string, Pending> pending;
  std::string buffer;
  const udm::serve::ProtocolLimits limits;

  const uint64_t total = static_cast<uint64_t>(kRate * seconds);
  const double period_ns = 1e9 / kRate;
  const int64_t t0 = NowNs() + 5'000'000;
  const int64_t grace_end =
      t0 + static_cast<int64_t>(seconds * 1e9 + kGraceSeconds * 1e9);
  s.first_due_s = static_cast<double>(t0) * 1e-9;
  uint64_t next = 0;
  for (;;) {
    int64_t now = NowNs();
    while (next < total &&
           t0 + static_cast<int64_t>(static_cast<double>(next) * period_ns) <=
               now) {
      const int64_t due =
          t0 + static_cast<int64_t>(static_cast<double>(next) * period_ns);
      const ServeRequest request = MakeEvalRequest(in, next);
      std::string frame;
      {
        Tracer::Span span("serve.SerializeRequest");
        frame = udm::serve::SerializeRequest(request);
      }
      frame += '\n';
      ++s.attempted;
      if (fd < 0 || !WriteAll(fd, frame)) {
        ++s.transport_errors;
        ++s.failed;
      } else {
        const int64_t sent = NowNs();
        s.late_us.push_back(static_cast<double>(sent - due) * 1e-3);
        pending.emplace(request.id_json, Pending{next, due, sent});
      }
      ++next;
      now = NowNs();
    }
    if (next == total && (pending.empty() || now >= grace_end)) break;

    // Until the last send the generator polls without sleeping: a thread
    // that sleeps to each due time wakes late by whatever the host's
    // scheduler costs at that moment, and every request would carry it.
    const int64_t wait_ns =
        next < total ? 0 : std::max<int64_t>(0, grace_end - now);
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    pollfd pfd{fd, POLLIN, 0};
    if (ppoll(&pfd, 1, &timeout, nullptr) <= 0) continue;

    char chunk[65536];
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    const int64_t received = NowNs();
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      s.transport_errors += pending.size();
      s.failed += pending.size();
      pending.clear();
      close(fd);
      fd = -1;
      continue;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const std::string frame = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      udm::Result<ServeResponse> response = [&] {
        Tracer::Span span("serve.ParseResponseFrame");
        return udm::serve::ParseResponseFrame(frame, limits);
      }();
      const auto it =
          response.ok() ? pending.find(response->id_json) : pending.end();
      if (it == pending.end()) {
        ++s.mismatches;
        continue;
      }
      const Pending p = it->second;
      pending.erase(it);
      // A degraded answer (admitted past the queue watermark, under a
      // tightened deadline) is still a full answer; the stats verb counts
      // those.
      if (response->status != ServeStatus::kOk) {
        ++s.failed;
        if (s.first_failure.empty()) {
          s.first_failure = udm::serve::ServeStatusToString(response->status);
        }
        continue;
      }
      const std::vector<double>& want = ExpectedFor(expected, p.index);
      if (response->densities.size() != want.size() ||
          std::memcmp(response->densities.data(), want.data(),
                      want.size() * sizeof(double)) != 0) {
        ++s.mismatches;
        ++s.failed;
        continue;
      }
      ++s.ok;
      s.last_answer_s = static_cast<double>(received) * 1e-9;
      const double due_s = static_cast<double>(p.due_ns - t0) * 1e-9;
      if (due_s < kWarmupSeconds) continue;
      s.latency_us.push_back(static_cast<double>(received - p.due_ns) * 1e-3);
      s.due_s.push_back(due_s);
      s.round_trip_us.push_back(static_cast<double>(received - p.sent_ns) *
                                1e-3);
    }
  }
  // A request still unanswered when the grace period ends has failed: a
  // backlog that outgrows the run cannot hide.
  s.outstanding = pending.size();
  s.failed += pending.size();
  if (fd >= 0) close(fd);
  return s;
}

/// The daemon's two models, fitted in-process from the files it loaded.
struct Models {
  udm::ErrorKernelDensity ekde;
  udm::McDensityModel mc;
};

udm::Result<Models> FitModels(const Inputs& in) {
  UDM_ASSIGN_OR_RETURN(udm::Dataset data, udm::ReadCsv(in.csv_path));
  const std::vector<double> sigmas(data.NumDims(), std::stod(kUniformPsi));
  UDM_ASSIGN_OR_RETURN(udm::ErrorModel errors,
                       udm::ErrorModel::PerDimension(data.NumRows(), sigmas));
  UDM_ASSIGN_OR_RETURN(udm::ErrorKernelDensity ekde,
                       udm::ErrorKernelDensity::Fit(data, errors));
  UDM_ASSIGN_OR_RETURN(std::vector<udm::MicroCluster> clusters,
                       udm::LoadMicroClusters(in.mc_path));
  UDM_ASSIGN_OR_RETURN(udm::McDensityModel mc,
                       udm::McDensityModel::Build(clusters));
  return Models{std::move(ekde), std::move(mc)};
}

/// Median over kTailWindowSeconds windows (by due time) of each window's
/// p90 latency.
double WindowedP90(const Schedule& s) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < s.latency_us.size(); ++i) {
    const size_t w = static_cast<size_t>((s.due_s[i] - kWarmupSeconds) /
                                         kTailWindowSeconds);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(s.latency_us[i]);
  }
  std::vector<double> p90s;
  for (const std::vector<double>& w : windows) {
    if (w.size() >= 100) p90s.push_back(Percentile(w, 0.90));
  }
  return Median(p90s);
}

udm::Result<Expected> ComputeExpected(const Inputs& in,
                                      const Models& models) {
  Expected expected;
  for (size_t p = 0; p < kPayloads; ++p) {
    udm::EvalRequest request;
    request.points = std::span<const double>(
        in.payload_points.data() + p * kPointsPerRequest * in.dims,
        kPointsPerRequest * in.dims);
    UDM_ASSIGN_OR_RETURN(udm::EvalResult a, models.ekde.Evaluate(request));
    UDM_ASSIGN_OR_RETURN(udm::EvalResult b, models.mc.Evaluate(request));
    expected.ekde.push_back(std::move(a.densities));
    expected.mc.push_back(std::move(b.densities));
  }
  return expected;
}

/// The daemon's `stats` payload after the load.
udm::Result<udm::obs::JsonValue> FetchStats(const Inputs& in, double window) {
  UDM_ASSIGN_OR_RETURN(udm::serve::ServeClient client,
                       udm::serve::ServeClient::Connect(in.socket_path));
  ServeRequest request;
  request.op = ServeOp::kStats;
  request.window_seconds = window;
  UDM_ASSIGN_OR_RETURN(ServeResponse response, client.Call(request, 5000.0));
  return udm::obs::JsonValue::Parse(response.stats_json);
}

double Field(const udm::obs::JsonValue& object, const char* block,
             const char* key) {
  const udm::obs::JsonValue* parent =
      block == nullptr ? &object : object.Find(block);
  const udm::obs::JsonValue* value =
      parent == nullptr ? nullptr : parent->Find(key);
  return value != nullptr && value->is_number() ? value->number() : 0.0;
}

/// Per-request costs of the daemon-side layers, replayed in-process on the
/// same payloads: request parse, model evaluation and response encode.
struct Replay {
  double parse_us = 0.0;
  double eval_us = 0.0;
  double encode_us = 0.0;
};

udm::Result<Replay> ReplayLayers(const Inputs& in, const Models& models,
                                 const Expected& expected) {
  const udm::serve::ProtocolLimits limits;
  Replay replay;
  double parse_ns = 0.0, eval_ns = 0.0, encode_ns = 0.0;
  size_t requests = 0;
  // One pass over every (payload, model) pair, in the schedule's 3:1 mix.
  for (uint64_t i = 0; i < kPayloads * kMcEvery; ++i) {
    const bool use_mc = TargetsMc(i);
    const std::string frame =
        udm::serve::SerializeRequest(MakeEvalRequest(in, i));

    int64_t start = NowNs();
    udm::Result<ServeRequest> parsed = [&] {
      Tracer::Span span("serve.ParseRequestFrame");
      return udm::serve::ParseRequestFrame(frame, limits);
    }();
    parse_ns += static_cast<double>(NowNs() - start);
    if (!parsed.ok()) return parsed.status();

    udm::EvalRequest eval;
    eval.points = parsed->points;
    udm::ExecContext ctx;
    eval.ctx = &ctx;
    start = NowNs();
    udm::Result<udm::EvalResult> result = [&] {
      Tracer::Span span(use_mc ? "mc_density.Evaluate"
                               : "kde.ErrorKernelDensity.Evaluate");
      return use_mc ? models.mc.Evaluate(eval) : models.ekde.Evaluate(eval);
    }();
    eval_ns += static_cast<double>(NowNs() - start);
    if (!result.ok()) return result.status();

    ServeResponse response;
    response.id_json = parsed->id_json;
    response.status = ServeStatus::kOk;
    response.densities = std::move(result->densities);
    response.requested = response.evaluated = kPointsPerRequest;
    response.trace_id = udm::obs::MintTraceId();
    if (response.densities != ExpectedFor(expected, i)) {
      return udm::Status::Internal("in-process replay disagrees");
    }
    start = NowNs();
    std::string encoded;
    {
      Tracer::Span span("serve.SerializeResponse");
      encoded = udm::serve::SerializeResponse(response);
    }
    encode_ns += static_cast<double>(NowNs() - start);
    ++requests;
  }
  const double n = static_cast<double>(requests);
  replay.parse_us = parse_ns * 1e-3 / n;
  replay.eval_us = eval_ns * 1e-3 / n;
  replay.encode_us = encode_ns * 1e-3 / n;
  return replay;
}

}  // namespace

Outcome RunServe(const Args& args) {
  Outcome out;
  const std::string dir = args.work_dir + "/serve";
  std::vector<double> setup_s;
  udm::Result<Inputs> inputs = udm::Status::Internal("no setup ran");
  Daemon daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.Stop();
    const int64_t start = NowNs();
    ResetDirectory(dir);
    inputs = WriteInputs(dir, args.seed);
    udm::Status started = inputs.ok() ? daemon.Start(args.serve_bin, *inputs)
                                      : inputs.status();
    setup_s.push_back(SecondsSince(start));
    if (!started.ok()) {
      out.Check("serve_setup", false, started.ToString());
      return out;
    }
  }
  const Inputs& in = *inputs;
  udm::Result<Models> models = FitModels(in);
  udm::Result<Expected> expected =
      models.ok() ? ComputeExpected(in, *models) : models.status();
  if (!expected.ok()) {
    out.Check("serve_expected", false, expected.status().ToString());
    return out;
  }

  Schedule load;
  Schedule traced;
  if (!args.trace) {
    load = RunSchedule(in, *expected, args.seconds);
  } else {
    load = RunSchedule(in, *expected, args.seconds / 2);
    Tracer::Get().set_enabled(true);
    traced = RunSchedule(in, *expected, args.seconds / 2);
  }
  const double rss_mb = ProcessPeakRssMb(daemon.pid());
  udm::Result<udm::obs::JsonValue> stats = FetchStats(in, args.seconds + 5.0);
  const int exit_code = daemon.Stop();

  out.attempted = load.attempted + traced.attempted;
  out.failed = load.failed + traced.failed;
  // Failed requests (shed, partial, deadline, transport, unanswered) are
  // counted in `failed`; the checks below are on what was answered.
  out.notes.push_back(
      "serve: " + std::to_string(out.attempted) + " eval requests at " +
      std::to_string(kRate) + "/s, " + std::to_string(out.failed) +
      " failed (" + std::to_string(load.outstanding + traced.outstanding) +
      " outstanding, " +
      std::to_string(load.transport_errors + traced.transport_errors) +
      " transport) " + load.first_failure + traced.first_failure);
  out.Check("serve_answered", load.ok > 0,
            std::to_string(load.ok + traced.ok) + " requests answered ok");
  out.Check("serve_densities_bit_identical",
            load.mismatches + traced.mismatches == 0,
            std::to_string(load.mismatches + traced.mismatches) +
                " answers differ from an in-process Evaluate, " +
                std::to_string(load.ok + traced.ok) + " equal bit for bit");
  out.Check("serve_stats", stats.ok(),
            stats.ok() ? "stats verb answered" : stats.status().ToString());
  out.Check("serve_clean_exit", exit_code == 0,
            "udm_serve exit code " + std::to_string(exit_code));
  if (!out.correct) return out;

  out.Set("item_us", Percentile(load.latency_us, 0.50));
  out.Set("p90_us", WindowedP90(load));
  out.Set("items_per_s", static_cast<double>(load.ok) /
                             (load.last_answer_s - load.first_due_s));
  out.Set("setup_s", Median(setup_s));
  out.Set("rss_peak_mb", rss_mb);
  out.notes.push_back("serve: p50 " +
                      std::to_string(Percentile(load.latency_us, 0.5)) +
                      " us, p99 " +
                      std::to_string(Percentile(load.latency_us, 0.99)) +
                      " us, daemon window p50 " +
                      std::to_string(Field(*stats, "window",
                                           "request_p50_ms")) +
                      " ms");

  if (args.trace) {
    udm::Result<Replay> replay = ReplayLayers(in, *models, *expected);
    out.Check("serve_replay", replay.ok(),
              replay.ok() ? "in-process replay matches the daemon"
                          : replay.status().ToString());
    if (!replay.ok()) return out;
    const Tracer& t = Tracer::Get();
    const double requests = static_cast<double>(traced.attempted);
    out.Set("serve.client_encode_us",
            t.TotalSeconds("serve.SerializeRequest") * 1e6 / requests);
    out.Set("serve.client_parse_us",
            t.TotalSeconds("serve.ParseResponseFrame") * 1e6 / requests);
    out.Set("serve.protocol_parse_us", replay->parse_us);
    out.Set("serve.protocol_encode_us", replay->encode_us);
    out.Set("kde.eval_us_per_request", replay->eval_us);
    out.Set("serve.transport_us", Mean(traced.round_trip_us) -
                                      replay->parse_us - replay->eval_us -
                                      replay->encode_us);
    out.Set("serve.queue_wait_p99_ms",
            Field(*stats, "window", "queue_wait_p99_ms"));
    out.Set("serve.daemon_window_p50_ms",
            Field(*stats, "window", "request_p50_ms"));
    out.Set("serve.shed", Field(*stats, nullptr, "shed_overload") +
                              Field(*stats, nullptr, "shed_draining"));
    out.Set("serve.degraded", Field(*stats, nullptr, "degraded"));
    const double pruned = Field(*stats, "kde", "cells_pruned");
    const double visited = Field(*stats, "kde", "cells_visited");
    out.Set("kde.pruned_share",
            pruned + visited > 0.0 ? pruned / (pruned + visited) : 0.0);
    out.Set("serve.gen_late_p99_ms", Percentile(traced.late_us, 0.99) * 1e-3);
    out.Set("trace.overhead_pct", (Percentile(traced.latency_us, 0.5) /
                                       Percentile(load.latency_us, 0.5) -
                                   1.0) *
                                      100.0);
    // The mc model's summary build, replayed on the same rows.
    ReplaySummaries(in.train.data, in.train.errors, kClusters,
                    /*per_class=*/false, out);
  }
  return out;
}

}  // namespace perfbench
