#ifndef UDM_OBS_ACCESS_LOG_H_
#define UDM_OBS_ACCESS_LOG_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace udm::obs {

/// One completed request, as the serving loop saw it. Field order in the
/// emitted JSON matches declaration order here; tools/check_run_report
/// validates the schema.
struct AccessLogEntry {
  std::string trace_id;
  std::string op;        // "eval", "classify", ...
  std::string model;
  std::string outcome;   // "ok", "deadline", "shed", "cancelled", "error"
  bool degraded = false;
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
  uint64_t points = 0;
  uint64_t kernel_evals = 0;
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  /// Seconds since the Unix epoch at completion (wall clock — the one
  /// timestamp meant for correlating with the world outside the process).
  double unix_time = 0.0;
};

/// Options for the structured access log.
struct AccessLogOptions {
  std::string path;
  /// Rotate when the current file exceeds this many bytes (0 = never).
  uint64_t rotate_bytes = 64ull << 20;
};

/// Append-only JSON-lines access log with size-based rotation, keeping two
/// rotated generations: path.1 (newest) and path.2 (oldest). Append()
/// serializes, writes, and flushes one line under a mutex — the log is
/// written once per completed request, far off any hot loop, so contention
/// is irrelevant next to the request it describes. A default-constructed
/// (unopened) log swallows appends, so callers do not guard call sites.
class AccessLog {
 public:
  AccessLog() = default;
  ~AccessLog();

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// Opens (creating or appending to) options.path.
  Status Open(const AccessLogOptions& options);

  /// Writes one JSON line; rotates first if the file is over the cap.
  /// Errors are counted (access_log.write_errors) rather than propagated —
  /// telemetry must never fail the request it describes.
  void Append(const AccessLogEntry& entry);

  void Close();

  bool is_open() const;

  /// The serialized form of one entry (exposed for the schema checker's
  /// tests and udm_cli tooling).
  static std::string ToJson(const AccessLogEntry& entry);

 private:
  void RotateLocked();

  mutable std::mutex mu_;
  AccessLogOptions options_;
  std::FILE* file_ = nullptr;
  uint64_t bytes_written_ = 0;
};

}  // namespace udm::obs

#endif  // UDM_OBS_ACCESS_LOG_H_
