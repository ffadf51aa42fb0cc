#include "serve/server.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "kde/eval.h"
#include "kde/eval_obs.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/tracez.h"

namespace udm::serve {

namespace {

obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("serve.queue_depth");
  return gauge;
}

obs::Gauge& EvalWidthGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("serve.eval_width");
  return gauge;
}

obs::Counter& ShedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.shed_total");
  return counter;
}

obs::Counter& DegradedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.degraded_total");
  return counter;
}

obs::Counter& ServedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.served_total");
  return counter;
}

obs::Counter& ProtocolErrorCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.protocol_errors");
  return counter;
}

obs::Counter& ClientAbortCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.client_aborts");
  return counter;
}

/// Sub-millisecond to ~minute latency buckets.
obs::Histogram& RequestSecondsHistogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.seconds",
      {/*first_bound=*/1e-5, /*growth=*/2.0, /*num_buckets=*/24});
  return hist;
}

obs::Histogram& QueueWaitSecondsHistogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
      "serve.queue_wait.seconds",
      {/*first_bound=*/1e-6, /*growth=*/2.0, /*num_buckets=*/24});
  return hist;
}

obs::Counter& AdmittedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.admitted_total");
  return counter;
}

obs::Counter& AdminCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.admin_total");
  return counter;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double UnixNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// The server-level health gates, computed once and rendered identically
/// by healthz and the stats health block.
struct HealthRollup {
  bool healthy = false;
  bool ready = false;
  bool draining = false;
  bool registry_loaded = false;
  bool queue_ok = false;
  size_t queue_depth = 0;
  size_t in_flight = 0;
  size_t max_queue = 0;
};

HealthRollup ComputeHealth(bool draining, size_t models, size_t queue_depth,
                           size_t in_flight, const ServerOptions& options) {
  HealthRollup h;
  h.draining = draining;
  h.registry_loaded = models > 0;
  h.ready = h.registry_loaded && !draining;
  h.queue_depth = queue_depth;
  h.in_flight = in_flight;
  h.max_queue = options.max_queue;
  h.queue_ok = queue_depth + in_flight < options.max_queue;
  h.healthy = h.ready && h.queue_ok;
  return h;
}

void WriteHealthRollup(obs::JsonWriter& writer, const HealthRollup& h) {
  writer.BeginObject();
  writer.Key("healthy").Bool(h.healthy);
  writer.Key("ready").Bool(h.ready);
  writer.Key("draining").Bool(h.draining);
  writer.Key("registry_loaded").Bool(h.registry_loaded);
  writer.Key("queue_ok").Bool(h.queue_ok);
  writer.Key("queue_depth").Number(static_cast<uint64_t>(h.queue_depth));
  writer.Key("in_flight").Number(static_cast<uint64_t>(h.in_flight));
  writer.Key("max_queue").Number(static_cast<uint64_t>(h.max_queue));
  writer.EndObject();
}

}  // namespace

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(const ModelRegistry* registry, ServerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      eval_width_(ThreadPool::HardwareThreads()) {
  UDM_CHECK(registry_ != nullptr) << "Server needs a registry";
}

Server::~Server() { Drain(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already started");
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        "socket_path must be 1.." + std::to_string(sizeof(addr.sun_path) - 1) +
        " bytes, got '" + options_.socket_path + "'");
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size());

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket(): ") + std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a prior run
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind(" + options_.socket_path +
                           "): " + std::strerror(err));
  }
  if (::listen(listen_fd_, 128) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(std::string("listen(): ") + std::strerror(err));
  }

  running_.store(true, std::memory_order_release);
  EvalWidthGauge().Set(static_cast<double>(eval_width_));
  const size_t workers = std::max<size_t>(options_.workers, 1);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::AcceptLoop() {
  while (!draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) continue;

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    bool refused = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (open_connections_ >= options_.max_connections) {
        refused = true;
      } else {
        ++open_connections_;
        conns_.push_back(conn);
        reader_threads_.emplace_back(
            [this, conn] { ReaderLoop(std::move(conn)); });
      }
    }
    if (refused) {
      connections_refused_.fetch_add(1, std::memory_order_relaxed);
      // Best-effort refusal frame; the fd is nonblocking and closes next.
      const std::string frame =
          SerializeResponse(MakeErrorResponse(
              "", ServeStatus::kOverloaded, "connection limit reached")) +
          "\n";
      (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
    } else {
      connections_opened_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  char chunk[4096];
  auto last_progress = std::chrono::steady_clock::now();
  bool mid_frame_stalled = false;

  while (conn->alive.load(std::memory_order_acquire)) {
    pollfd pfd{conn->fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (!conn->alive.load(std::memory_order_acquire)) break;
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) {
      // Slow-write defense: a partial frame making no progress is a
      // misbehaving client holding a connection slot.
      if (!buffer.empty() &&
          SecondsSince(last_progress) * 1000.0 > options_.read_timeout_ms) {
        mid_frame_stalled = true;
        break;
      }
      continue;
    }
    if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
        (pfd.revents & POLLIN) == 0) {
      break;
    }
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // orderly close
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    last_progress = std::chrono::steady_clock::now();

    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string_view frame(buffer.data(), newline);
      if (!frame.empty() && frame.back() == '\r') frame.remove_suffix(1);
      HandleFrame(conn, frame);
      buffer.erase(0, newline + 1);
    }
    // Oversized-frame defense: a frame growing past the limit without a
    // newline can never become valid; answer and drop the connection
    // (no line boundary left to resynchronize on).
    if (buffer.size() > options_.limits.max_frame_bytes) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      ProtocolErrorCounter().Increment();
      WriteResponse(conn, MakeErrorResponse(
                              "", ServeStatus::kInvalidArgument,
                              "frame exceeds " +
                                  std::to_string(
                                      options_.limits.max_frame_bytes) +
                                  " bytes without a line break"));
      break;
    }
  }

  if (mid_frame_stalled) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    ProtocolErrorCounter().Increment();
    WriteResponse(conn, MakeErrorResponse("", ServeStatus::kInvalidArgument,
                                          "partial frame stalled past "
                                          "read_timeout_ms"));
  }

  // Stop further writes to this client; the fd itself is closed by the
  // last Connection reference (a worker may still hold one).
  conn->alive.store(false, std::memory_order_release);
  ::shutdown(conn->fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    --open_connections_;
    conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
                 conns_.end());
  }
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         std::string_view frame) {
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  Result<ServeRequest> parsed = ParseRequestFrame(frame, options_.limits);
  if (!parsed.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    ProtocolErrorCounter().Increment();
    WriteResponse(conn, MakeErrorResponse("", ServeStatus::kInvalidArgument,
                                          parsed.status().message()));
    return;
  }
  ServeRequest request = std::move(parsed).value();
  // Every admin verb below is answered here, on the reader thread — never
  // queued behind the worker pool — so a saturated queue cannot starve
  // introspection.
  switch (request.op) {
    case ServeOp::kPing: {
      ServeResponse pong;
      pong.id_json = std::move(request.id_json);
      WriteResponse(conn, pong);
      return;
    }
    case ServeOp::kStats: {
      AdminCounter().Increment();
      ServeResponse response;
      response.id_json = std::move(request.id_json);
      response.stats_json = StatsJson(request.window_seconds);
      WriteResponse(conn, response);
      return;
    }
    case ServeOp::kHealthz: {
      AdminCounter().Increment();
      ServeResponse response;
      response.id_json = std::move(request.id_json);
      response.stats_json = HealthzJson();
      WriteResponse(conn, response);
      return;
    }
    case ServeOp::kReadyz: {
      AdminCounter().Increment();
      ServeResponse response;
      response.id_json = std::move(request.id_json);
      response.stats_json = ReadyzJson();
      WriteResponse(conn, response);
      return;
    }
    case ServeOp::kTracez: {
      AdminCounter().Increment();
      ServeResponse response;
      response.id_json = std::move(request.id_json);
      response.stats_json = obs::Tracez::Global().Json();
      WriteResponse(conn, response);
      return;
    }
    case ServeOp::kMetrics: {
      AdminCounter().Increment();
      ServeResponse response;
      response.id_json = std::move(request.id_json);
      response.text = obs::MetricsRegistry::Global().TextExposition(
          request.window_seconds > 0.0 ? request.window_seconds
                                       : options_.stats_window_seconds);
      WriteResponse(conn, response);
      return;
    }
    case ServeOp::kEval:
    case ServeOp::kClassify:
      Admit(conn, std::move(request), frame.size());
      return;
  }
}

void Server::Admit(const std::shared_ptr<Connection>& conn,
                   ServeRequest request, size_t frame_bytes) {
  // Every accepted frame gets a request identity: the client's trace_id
  // when supplied (already length-validated by the parser), a minted one
  // otherwise. Shed responses echo it too so a refused request is still
  // correlatable.
  if (request.trace_id.empty()) request.trace_id = obs::MintTraceId();

  const auto log_refusal = [&](const char* outcome) {
    if (options_.access_log == nullptr) return;
    obs::AccessLogEntry entry;
    entry.trace_id = request.trace_id;
    entry.op = ServeOpToString(request.op);
    entry.model = request.model;
    entry.outcome = outcome;
    entry.points = request.num_points;
    entry.request_bytes = frame_bytes;
    entry.unix_time = UnixNow();
    options_.access_log->Append(entry);
  };

  if (draining_.load(std::memory_order_acquire)) {
    shed_draining_.fetch_add(1, std::memory_order_relaxed);
    ShedCounter().Increment();
    log_refusal("draining");
    ServeResponse response = MakeErrorResponse(
        std::move(request.id_json), ServeStatus::kDraining,
        "server is draining; not accepting work");
    response.trace_id = std::move(request.trace_id);
    WriteResponse(conn, response);
    return;
  }

  std::shared_ptr<const ModelEntry> entry = registry_->Find(request.model);
  if (entry == nullptr) {
    admitted_.fetch_add(1, std::memory_order_relaxed);
    served_error_.fetch_add(1, std::memory_order_relaxed);
    log_refusal("error");
    ServeResponse response = MakeErrorResponse(
        std::move(request.id_json), ServeStatus::kNotFound,
        "no model named '" + request.model + "'");
    response.trace_id = std::move(request.trace_id);
    WriteResponse(conn, response);
    return;
  }
  const bool kind_matches =
      (request.op == ServeOp::kClassify) ==
      (entry->kind == ModelKind::kClassifier);
  if (!kind_matches || request.dims != entry->num_dims) {
    admitted_.fetch_add(1, std::memory_order_relaxed);
    served_error_.fetch_add(1, std::memory_order_relaxed);
    std::string why =
        !kind_matches
            ? (request.op == ServeOp::kClassify
                   ? "model '" + request.model + "' is not a classifier"
                   : "model '" + request.model +
                         "' is a classifier; use the classify op")
            : "points have " + std::to_string(request.dims) +
                  " dims, model expects " + std::to_string(entry->num_dims);
    log_refusal("error");
    ServeResponse response = MakeErrorResponse(
        std::move(request.id_json), ServeStatus::kInvalidArgument,
        std::move(why));
    response.trace_id = std::move(request.trace_id);
    WriteResponse(conn, response);
    return;
  }

  // Queue admission under the lock; the shed response, if any, is written
  // outside it so a slow client cannot hold the queue mutex.
  bool shed = false;
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = queue_.size() + in_flight_;
    if (depth >= options_.max_queue) {
      shed = true;
    } else {
      // Two-watermark admission: above the degrade watermark the request
      // is still served, but under a tightened deadline so the anytime
      // roll-up (and partial-prefix eval) sheds *work* before the queue
      // sheds *requests*.
      const bool degraded =
          static_cast<double>(depth) >=
          options_.degrade_watermark * static_cast<double>(options_.max_queue);
      double deadline_ms =
          request.deadline_ms > 0.0
              ? std::min(request.deadline_ms, options_.max_deadline_ms)
              : options_.default_deadline_ms;
      if (degraded) deadline_ms *= options_.degraded_deadline_fraction;
      WorkItem item;
      item.request = std::move(request);
      item.entry = std::move(entry);
      item.conn = conn;
      item.deadline = Deadline::AfterSeconds(deadline_ms / 1000.0);
      item.degraded = degraded;
      item.arrival = std::chrono::steady_clock::now();
      item.frame_bytes = frame_bytes;
      // Start the tracez capture at admission so queue wait is part of the
      // captured request, then stamp an admission span under the new id.
      item.trace_handle = obs::Tracez::Global().Begin(
          item.request.trace_id, ServeOpToString(item.request.op));
      {
        obs::TraceIdScope scope(item.request.trace_id);
        obs::TraceSpan admit_span("serve.admit");
        admit_span.AddAttribute("degraded", uint64_t{degraded ? 1u : 0u});
      }
      queue_.push_back(std::move(item));
      SetQueueDepthGauge(queue_.size() + in_flight_);
    }
  }
  if (shed) {
    shed_overload_.fetch_add(1, std::memory_order_relaxed);
    ShedCounter().Increment();
    log_refusal("shed");
    ServeResponse response = MakeErrorResponse(
        std::move(request.id_json), ServeStatus::kOverloaded,
        "request queue full (" + std::to_string(depth) + "/" +
            std::to_string(options_.max_queue) + ")");
    response.retry_after_ms = EstimateRetryAfterMs(depth);
    response.trace_id = std::move(request.trace_id);
    WriteResponse(conn, response);
    return;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  AdmittedCounter().Increment();
  queue_cv_.notify_one();
}

ServeResponse Server::Execute(const WorkItem& item, uint64_t* kernel_evals) {
  const ServeRequest& request = item.request;
  ServeResponse response;
  response.id_json = request.id_json;
  response.requested = request.num_points;
  response.trace_id = request.trace_id;

  ExecBudget budget;
  budget.max_kernel_evals = request.eval_budget;
  ExecContext ctx(item.deadline, drain_cancel_.token(), budget);
  // The context carries the request identity into the batch driver and the
  // classifier: every chunk re-installs it on its executing thread.
  ctx.set_trace_id(request.trace_id);
  struct SpendReporter {
    const ExecContext& ctx;
    uint64_t* out;
    ~SpendReporter() {
      if (out != nullptr) *out = ctx.kernel_evals_spent();
    }
  } spend_reporter{ctx, kernel_evals};

  if (request.op == ServeOp::kEval) {
    EvalRequest eval;
    eval.points = request.points;
    eval.subspace = request.subspace;
    eval.ctx = &ctx;
    eval.threads = eval_width_;
    eval.log_space = request.log_space;
    Result<EvalResult> result = item.entry->Evaluate(eval);
    if (!result.ok()) {
      ServeResponse error = MakeErrorResponse(
          request.id_json, ServeStatusFromCode(result.status().code()),
          result.status().message());
      error.trace_id = request.trace_id;
      return error;
    }
    EvalResult out = std::move(result).value();
    response.densities = std::move(out.densities);
    response.evaluated = response.densities.size();
    if (out.complete()) {
      response.status = ServeStatus::kOk;
    } else {
      response.status = ServeStatus::kPartial;
      response.stop_cause = StopCauseToString(out.stop_cause);
    }
    return response;
  }

  // Classify: one Explain per point under the shared context, serially —
  // the batch spends one budget in point order (see the width policy in
  // server.h). The roll-up absorbs deadline/budget pressure itself
  // (truncation, then the prior once the context is spent), so mid-batch
  // failures only happen on cancellation (drain). A truncated roll-up
  // marks the answer degraded.
  for (size_t i = 0; i < request.num_points; ++i) {
    std::span<const double> x(request.points.data() + i * request.dims,
                              request.dims);
    Result<DensityBasedClassifier::Explanation> explained =
        item.entry->Classify(x, ctx);
    if (!explained.ok()) {
      if (response.labels.empty()) {
        ServeResponse error = MakeErrorResponse(
            request.id_json, ServeStatusFromCode(explained.status().code()),
            explained.status().message());
        error.trace_id = request.trace_id;
        return error;
      }
      response.status = ServeStatus::kPartial;
      response.stop_cause = "cancelled";
      break;
    }
    response.labels.push_back(explained->predicted);
    response.tiers.push_back(DeciderToString(explained->used_fallback));
    std::vector<ServeRule>& rules = response.rules.emplace_back();
    for (DensityBasedClassifier::Rule& rule : explained->selected) {
      rules.push_back(
          ServeRule{std::move(rule.dims), rule.label, rule.log_accuracy});
    }
    if (explained->stop_cause != StopCause::kCompleted) {
      response.degraded = true;
    }
  }
  response.evaluated = response.labels.size();
  return response;
}

void Server::WorkerLoop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_workers_.load(std::memory_order_acquire) ||
               !queue_.empty();
      });
      if (queue_.empty()) {
        if (stop_workers_.load(std::memory_order_acquire)) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      SetQueueDepthGauge(queue_.size() + in_flight_);
    }

    const double queue_seconds = SecondsSince(item.arrival);
    QueueWaitSecondsHistogram().Record(queue_seconds);

    uint64_t kernel_evals = 0;
    ServeResponse response;
    {
      // Worker-thread spans (serve.execute and everything below it)
      // stitch to this request's id and tracez capture.
      obs::TraceIdScope scope(item.request.trace_id);
      obs::TraceSpan span("serve.execute");
      response = Execute(item, &kernel_evals);
    }
    if (item.degraded) response.degraded = true;
    if (response.degraded) {
      degraded_.fetch_add(1, std::memory_order_relaxed);
      DegradedCounter().Increment();
    }
    switch (response.status) {
      case ServeStatus::kOk:
        served_ok_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ServeStatus::kPartial:
        served_partial_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ServeStatus::kCancelled:
        cancelled_by_drain_.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        served_error_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    ServedCounter().Increment();
    const size_t response_bytes = WriteResponse(item.conn, response);

    const double service_seconds = SecondsSince(item.arrival);
    RequestSecondsHistogram().Record(service_seconds);
    RecordServiceSeconds(service_seconds);

    const char* outcome = ServeStatusToString(response.status);
    obs::Tracez::Global().End(
        item.trace_handle,
        {{"op", ServeOpToString(item.request.op)},
         {"model", item.request.model},
         {"outcome", outcome},
         {"degraded", response.degraded ? "true" : "false"},
         {"queue_ms", std::to_string(queue_seconds * 1000.0)}});
    if (options_.access_log != nullptr) {
      obs::AccessLogEntry entry;
      entry.trace_id = item.request.trace_id;
      entry.op = ServeOpToString(item.request.op);
      entry.model = item.request.model;
      entry.outcome = outcome;
      entry.degraded = response.degraded;
      entry.queue_seconds = queue_seconds;
      entry.total_seconds = service_seconds;
      entry.points = item.request.num_points;
      entry.kernel_evals = kernel_evals;
      entry.request_bytes = item.frame_bytes;
      entry.response_bytes = response_bytes;
      entry.unix_time = UnixNow();
      options_.access_log->Append(entry);
    }

    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --in_flight_;
      SetQueueDepthGauge(queue_.size() + in_flight_);
      if (queue_.empty() && in_flight_ == 0) drained_cv_.notify_all();
    }
  }
}

size_t Server::WriteResponse(const std::shared_ptr<Connection>& conn,
                             const ServeResponse& response) {
  const std::string frame = SerializeResponse(response) + "\n";
  if (!conn->alive.load(std::memory_order_acquire)) {
    response_write_failures_.fetch_add(1, std::memory_order_relaxed);
    return frame.size();
  }
  std::lock_guard<std::mutex> lock(conn->write_mu);
  size_t sent = 0;
  const auto start = std::chrono::steady_clock::now();
  while (sent < frame.size()) {
    if (!conn->alive.load(std::memory_order_acquire)) {
      response_write_failures_.fetch_add(1, std::memory_order_relaxed);
      return frame.size();
    }
    const ssize_t n = ::send(conn->fd, frame.data() + sent,
                             frame.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Slow-reader defense: give the client write_timeout_ms in total,
      // then drop it instead of blocking a worker forever.
      if (SecondsSince(start) * 1000.0 > options_.write_timeout_ms) {
        break;
      }
      pollfd pfd{conn->fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, /*timeout_ms=*/50);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // hard error (EPIPE after client disconnect, ...)
  }
  if (sent < frame.size()) {
    if (conn->alive.exchange(false, std::memory_order_acq_rel)) {
      client_aborts_.fetch_add(1, std::memory_order_relaxed);
      ClientAbortCounter().Increment();
      ::shutdown(conn->fd, SHUT_RDWR);
    }
    response_write_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return frame.size();
}

double Server::EstimateRetryAfterMs(size_t depth) const {
  double service_seconds;
  {
    std::lock_guard<std::mutex> lock(ewma_mu_);
    service_seconds = ewma_service_seconds_;
  }
  if (service_seconds <= 0.0) {
    service_seconds = options_.default_deadline_ms / 1000.0;
  }
  const size_t workers = std::max<size_t>(options_.workers, 1);
  const double turnaround_ms =
      (static_cast<double>(depth) / static_cast<double>(workers)) *
      service_seconds * 1000.0;
  return std::max(1.0, turnaround_ms);
}

void Server::RecordServiceSeconds(double seconds) {
  std::lock_guard<std::mutex> lock(ewma_mu_);
  ewma_service_seconds_ = ewma_service_seconds_ <= 0.0
                              ? seconds
                              : 0.8 * ewma_service_seconds_ + 0.2 * seconds;
}

void Server::SetQueueDepthGauge(size_t depth) const {
  QueueDepthGauge().Set(static_cast<double>(depth));
}

ServerCounters Server::Counters() const {
  ServerCounters c;
  c.connections_opened = connections_opened_.load(std::memory_order_relaxed);
  c.connections_refused = connections_refused_.load(std::memory_order_relaxed);
  c.frames_received = frames_received_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.admitted = admitted_.load(std::memory_order_relaxed);
  c.served_ok = served_ok_.load(std::memory_order_relaxed);
  c.served_partial = served_partial_.load(std::memory_order_relaxed);
  c.served_error = served_error_.load(std::memory_order_relaxed);
  c.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  c.shed_draining = shed_draining_.load(std::memory_order_relaxed);
  c.degraded = degraded_.load(std::memory_order_relaxed);
  c.cancelled_by_drain = cancelled_by_drain_.load(std::memory_order_relaxed);
  c.client_aborts = client_aborts_.load(std::memory_order_relaxed);
  c.response_write_failures =
      response_write_failures_.load(std::memory_order_relaxed);
  return c;
}

std::string Server::StatsJson(double window_seconds) const {
  const double window = window_seconds > 0.0 ? window_seconds
                                             : options_.stats_window_seconds;
  const ServerCounters c = Counters();
  size_t depth = 0;
  size_t in_flight = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = queue_.size();
    in_flight = in_flight_;
  }
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("draining").Bool(draining_.load(std::memory_order_acquire));
  writer.Key("queue_depth").Number(static_cast<uint64_t>(depth));
  writer.Key("in_flight").Number(static_cast<uint64_t>(in_flight));
  writer.Key("eval_width").Number(static_cast<uint64_t>(eval_width_));
  writer.Key("connections_opened").Number(c.connections_opened);
  writer.Key("connections_refused").Number(c.connections_refused);
  writer.Key("frames_received").Number(c.frames_received);
  writer.Key("protocol_errors").Number(c.protocol_errors);
  writer.Key("admitted").Number(c.admitted);
  writer.Key("served_ok").Number(c.served_ok);
  writer.Key("served_partial").Number(c.served_partial);
  writer.Key("served_error").Number(c.served_error);
  writer.Key("shed_overload").Number(c.shed_overload);
  writer.Key("shed_draining").Number(c.shed_draining);
  writer.Key("degraded").Number(c.degraded);
  writer.Key("cancelled_by_drain").Number(c.cancelled_by_drain);
  writer.Key("client_aborts").Number(c.client_aborts);
  writer.Key("response_write_failures").Number(c.response_write_failures);
  writer.Key("models").BeginArray();
  for (const std::string& name : registry_->ModelNames()) {
    writer.String(name);
  }
  writer.EndArray();

  // Trailing-window view: rates from the epoch ring, latency quantiles
  // from the windowed histograms. A quiet window reports zero counts and
  // null quantiles — never stale cumulative numbers.
  writer.Key("window").BeginObject();
  writer.Key("seconds").Number(window);
  writer.Key("qps").Number(ServedCounter().RatePerSecond(window));
  writer.Key("admitted_per_sec")
      .Number(AdmittedCounter().RatePerSecond(window));
  writer.Key("shed_per_sec").Number(ShedCounter().RatePerSecond(window));
  writer.Key("degraded_per_sec")
      .Number(DegradedCounter().RatePerSecond(window));
  const obs::WindowedHistogramView request_view =
      RequestSecondsHistogram().WindowedView(window);
  writer.Key("request_count").Number(request_view.count);
  writer.Key("request_p50_ms");
  if (request_view.empty()) {
    writer.Null();
  } else {
    writer.Number(request_view.p50 * 1000.0);
  }
  writer.Key("request_p95_ms");
  if (request_view.empty()) {
    writer.Null();
  } else {
    writer.Number(request_view.p95 * 1000.0);
  }
  writer.Key("request_p99_ms");
  if (request_view.empty()) {
    writer.Null();
  } else {
    writer.Number(request_view.p99 * 1000.0);
  }
  const obs::WindowedHistogramView queue_view =
      QueueWaitSecondsHistogram().WindowedView(window);
  writer.Key("queue_wait_p99_ms");
  if (queue_view.empty()) {
    writer.Null();
  } else {
    writer.Number(queue_view.p99 * 1000.0);
  }
  writer.EndObject();

  // Density-engine rollup: cumulative spatial-index work split plus live
  // windowed rates, so an operator can read the prune ratio under load
  // (cells_pruned / (cells_pruned + cells_visited) is the fraction of the
  // grid the index let every model skip).
  writer.Key("kde").BeginObject();
  writer.Key("simd").String(SimdLevelName(ProcessSimdLevel()));
  writer.Key("kernel_evals")
      .Number(kde_internal::KernelEvalCounter().Value());
  writer.Key("pruned_terms")
      .Number(kde_internal::PrunedTermsCounter().Value());
  writer.Key("cells_visited")
      .Number(kde_internal::CellsVisitedCounter().Value());
  writer.Key("cells_pruned")
      .Number(kde_internal::CellsPrunedCounter().Value());
  writer.Key("cells_visited_per_sec")
      .Number(kde_internal::CellsVisitedCounter().RatePerSecond(window));
  writer.Key("cells_pruned_per_sec")
      .Number(kde_internal::CellsPrunedCounter().RatePerSecond(window));
  writer.EndObject();

  writer.Key("health");
  WriteHealthRollup(writer,
                    ComputeHealth(draining_.load(std::memory_order_acquire),
                                  registry_->ModelNames().size(), depth,
                                  in_flight, options_));
  writer.EndObject();
  return writer.TakeString();
}

std::string Server::ReadyzJson() const {
  const size_t models = registry_->ModelNames().size();
  const bool draining = draining_.load(std::memory_order_acquire);
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("ready").Bool(models > 0 && !draining);
  writer.Key("draining").Bool(draining);
  writer.Key("registry_loaded").Bool(models > 0);
  writer.Key("models").Number(static_cast<uint64_t>(models));
  writer.EndObject();
  return writer.TakeString();
}

std::string Server::HealthzJson() const {
  size_t depth = 0;
  size_t in_flight = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = queue_.size();
    in_flight = in_flight_;
  }
  obs::JsonWriter writer;
  WriteHealthRollup(writer,
                    ComputeHealth(draining_.load(std::memory_order_acquire),
                                  registry_->ModelNames().size(), depth,
                                  in_flight, options_));
  return writer.TakeString();
}

void Server::Drain() {
  // Serialized and idempotent: the signal path, explicit callers, and the
  // destructor can all invoke it.
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  draining_.store(true, std::memory_order_release);

  // 1. Stop accepting (the accept loop exits within one poll tick).
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Grace period: let workers finish the admitted backlog.
  bool drained;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drained = drained_cv_.wait_for(
        lock,
        std::chrono::duration<double, std::milli>(options_.drain_deadline_ms),
        [this] { return queue_.empty() && in_flight_ == 0; });
  }

  // 3. Past the drain deadline: cancel in-flight contexts. Evaluation
  // observes the token at its next chunk boundary, so every remaining
  // request still gets a structured (cancelled) response quickly.
  if (!drained) {
    drain_cancel_.Cancel();
    std::unique_lock<std::mutex> lock(queue_mu_);
    drained_cv_.wait_for(lock, std::chrono::seconds(10), [this] {
      return queue_.empty() && in_flight_ == 0;
    });
  }

  // 4. Stop and join the workers (they finish any stragglers first: the
  // exit condition is stop && empty).
  stop_workers_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // 5. Drop every connection and join the readers.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const std::shared_ptr<Connection>& conn : conns_) {
      conn->alive.store(false, std::memory_order_release);
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (std::thread& reader : reader_threads_) {
    if (reader.joinable()) reader.join();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    reader_threads_.clear();
    conns_.clear();
  }

  // 6. Tear down the listener.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
  running_.store(false, std::memory_order_release);
}

}  // namespace udm::serve
