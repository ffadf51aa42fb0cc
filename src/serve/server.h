#ifndef UDM_SERVE_SERVER_H_
#define UDM_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "obs/access_log.h"
#include "obs/tracez.h"
#include "serve/protocol.h"
#include "serve/registry.h"

namespace udm::serve {

/// Tuning for one Server instance. The defaults are sized for the test
/// and smoke fixtures; udm_serve exposes each as a flag.
struct ServerOptions {
  /// Filesystem path of the AF_UNIX stream socket (sockaddr_un limits
  /// this to ~107 bytes; keep it short, e.g. under /tmp).
  std::string socket_path;
  /// Worker threads executing admitted requests.
  size_t workers = 2;
  /// Bound on waiting + in-flight requests; admission sheds past it.
  size_t max_queue = 64;
  /// Fraction of max_queue past which admission turns degraded: the
  /// request is still served, but under a deadline tightened by
  /// degraded_deadline_fraction, so classify truncates its roll-up (or
  /// answers with the class prior) and eval returns a shorter prefix
  /// before the queue reaches the shed limit.
  double degrade_watermark = 0.5;
  double degraded_deadline_fraction = 0.35;
  /// Deadline for requests that do not carry deadline_ms.
  double default_deadline_ms = 250.0;
  /// Cap on client-supplied deadlines.
  double max_deadline_ms = 10000.0;
  /// Grace period for SIGTERM drain before in-flight work is cancelled.
  double drain_deadline_ms = 2000.0;
  /// A connection with a partially-read frame making no progress for this
  /// long is a misbehaving client and is dropped (slow-write defense).
  double read_timeout_ms = 5000.0;
  /// A client not draining its responses for this long is dropped
  /// (slow-read defense).
  double write_timeout_ms = 5000.0;
  /// Concurrent connection bound; excess connects are refused with an
  /// overloaded frame.
  size_t max_connections = 64;
  ProtocolLimits limits;
  /// Default trailing window for the stats/metrics verbs (a request can
  /// override with window_seconds, clamped to the metrics ring).
  double stats_window_seconds = 60.0;
  /// Borrowed per-request access log (nullptr = disabled). Must outlive
  /// the server.
  obs::AccessLog* access_log = nullptr;
};

/// Point-in-time copy of the server's accounting. Every admitted request
/// ends in exactly one of served_ok / served_partial / served_error /
/// cancelled_by_drain (unless its client vanished first, which adds a
/// client_abort instead of a served count), so
///   admitted == served_* + cancelled_by_drain + response_write_failures
/// holds at drain time — the "no leaked requests" invariant the soak test
/// asserts.
struct ServerCounters {
  uint64_t connections_opened = 0;
  uint64_t connections_refused = 0;
  uint64_t frames_received = 0;
  uint64_t protocol_errors = 0;
  uint64_t admitted = 0;
  uint64_t served_ok = 0;
  uint64_t served_partial = 0;
  uint64_t served_error = 0;
  uint64_t shed_overload = 0;
  uint64_t shed_draining = 0;
  uint64_t degraded = 0;
  uint64_t cancelled_by_drain = 0;
  uint64_t client_aborts = 0;
  uint64_t response_write_failures = 0;
};

/// A fault-tolerant JSON-lines density server over a local socket.
///
/// Thread structure: one accept thread, one reader thread per connection,
/// and a fixed pool of worker threads draining a bounded request queue.
/// Readers parse and admit (cheap ops — ping/stats/sheds — are answered
/// inline); workers evaluate under a per-request ExecContext and write the
/// response. See DESIGN.md §4g for the admission/shed/drain state machine
/// and the failure model.
///
/// Width policy: a worker hands each eval batch to the density engine at
/// eval_width() — the shared pool's width — so one request's points spread
/// over the host's cores; the engine's chunking never depends on width, so
/// the densities are bit-identical to a serial evaluation. Classify batches
/// run serially on the worker: their points share one ExecContext budget
/// that the roll-up spends in point order, and fanning them out would make
/// which point gets truncated depend on timing.
///
/// Robustness contract:
///  * every frame (any bytes) gets a structured response or a counted
///    connection drop — never a crash or hang;
///  * the queue is bounded: past max_queue, requests are shed with
///    `overloaded` + retry_after_ms instead of queueing without bound;
///  * a client deadline is honored end-to-end: it starts at frame receipt
///    (queue wait included) and produces a partial prefix, not a drop;
///  * Drain() (SIGTERM) stops accepting, answers everything admitted —
///    force-cancelling past drain_deadline_ms — and leaves no thread or
///    fd behind.
class Server {
 public:
  /// `registry` must outlive the server and be loaded before Start().
  Server(const ModelRegistry* registry, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and starts the accept/worker threads.
  Status Start();

  /// Graceful shutdown: stop accepting, serve or cancel all admitted
  /// work, drop connections, join every thread, remove the socket file.
  /// Idempotent; the destructor calls it if needed.
  void Drain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  ServerCounters Counters() const;

  /// Counters + live queue state + windowed latency/rate block + health
  /// rollup as a JSON object (the `stats` op payload, also embedded in the
  /// final RunReport). `window_seconds` 0 = options().stats_window_seconds.
  std::string StatsJson(double window_seconds = 0.0) const;

  /// `{"ready": bool, ...}` — loaded registry and not draining.
  std::string ReadyzJson() const;

  /// `{"healthy": bool, ...}` — ready, queue below the shed watermark,
  /// and every registered health source passing.
  std::string HealthzJson() const;

  const ServerOptions& options() const { return options_; }

  /// Worker width of every eval batch: ThreadPool::HardwareThreads() (1 on
  /// a single-core host, i.e. serial). Exported as the `serve.eval_width`
  /// gauge and the stats field `eval_width`.
  size_t eval_width() const { return eval_width_; }

 private:
  struct Connection {
    ~Connection();  // closes fd; runs when the last holder lets go
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> alive{true};
  };

  struct WorkItem {
    ServeRequest request;
    std::shared_ptr<const ModelEntry> entry;
    std::shared_ptr<Connection> conn;
    Deadline deadline;
    bool degraded = false;
    std::chrono::steady_clock::time_point arrival;
    /// Live tracez capture for this request (invalid = capture skipped).
    obs::Tracez::Handle trace_handle;
    /// Size of the request frame on the wire (access log).
    uint64_t frame_bytes = 0;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();

  /// Parses and dispatches one frame from `conn` (reader thread).
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   std::string_view frame);
  /// Admission control for eval/classify (reader thread): sheds, degrades,
  /// or enqueues. `frame_bytes` is the wire size of the request frame.
  void Admit(const std::shared_ptr<Connection>& conn, ServeRequest request,
             size_t frame_bytes);
  /// Executes one admitted request under its ExecContext (worker thread);
  /// reports the kernel evaluations spent via `kernel_evals`.
  ServeResponse Execute(const WorkItem& item, uint64_t* kernel_evals);

  /// Serializes and writes `response` + '\n' with the slow-reader timeout;
  /// marks the connection dead (and counts the abort) on failure. Returns
  /// the serialized frame size (for byte accounting) regardless of
  /// delivery.
  size_t WriteResponse(const std::shared_ptr<Connection>& conn,
                       const ServeResponse& response);

  /// Back-off hint for a shed response: expected queue turnaround from the
  /// EWMA service time.
  double EstimateRetryAfterMs(size_t depth) const;
  void RecordServiceSeconds(double seconds);

  void SetQueueDepthGauge(size_t depth) const;

  const ModelRegistry* registry_;
  ServerOptions options_;
  const size_t eval_width_;

  std::mutex drain_mu_;  // serializes Drain callers
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_workers_{false};
  CancellationSource drain_cancel_;

  int listen_fd_ = -1;
  std::thread accept_thread_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> reader_threads_;
  size_t open_connections_ = 0;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;   // workers wait for work
  std::condition_variable drained_cv_;  // Drain waits for empty+idle
  std::deque<WorkItem> queue_;
  size_t in_flight_ = 0;

  std::vector<std::thread> workers_;

  mutable std::mutex ewma_mu_;
  double ewma_service_seconds_ = 0.0;

  // Accounting (see ServerCounters).
  std::atomic<uint64_t> connections_opened_{0};
  std::atomic<uint64_t> connections_refused_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> served_ok_{0};
  std::atomic<uint64_t> served_partial_{0};
  std::atomic<uint64_t> served_error_{0};
  std::atomic<uint64_t> shed_overload_{0};
  std::atomic<uint64_t> shed_draining_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> cancelled_by_drain_{0};
  std::atomic<uint64_t> client_aborts_{0};
  std::atomic<uint64_t> response_write_failures_{0};
};

}  // namespace udm::serve

#endif  // UDM_SERVE_SERVER_H_
