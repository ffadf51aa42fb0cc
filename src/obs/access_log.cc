#include "obs/access_log.h"

#include <sys/stat.h>

#include <cstdio>

#include "obs/json.h"
#include "obs/metrics.h"

namespace udm::obs {
namespace {

/// Rotated generations kept: path.1 (newest) .. path.kMaxRotations (oldest).
constexpr size_t kMaxRotations = 2;

}  // namespace

AccessLog::~AccessLog() { Close(); }

Status AccessLog::Open(const AccessLogOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    return Status::InvalidArgument("AccessLog: already open");
  }
  if (options.path.empty()) {
    return Status::InvalidArgument("AccessLog: empty path");
  }
  std::FILE* file = std::fopen(options.path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IoError("AccessLog: cannot open " + options.path);
  }
  options_ = options;
  file_ = file;
  struct stat st;
  bytes_written_ =
      (stat(options.path.c_str(), &st) == 0) ? static_cast<uint64_t>(st.st_size)
                                             : 0;
  return Status::OK();
}

std::string AccessLog::ToJson(const AccessLogEntry& entry) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("trace_id").String(entry.trace_id);
  writer.Key("op").String(entry.op);
  writer.Key("model").String(entry.model);
  writer.Key("outcome").String(entry.outcome);
  writer.Key("degraded").Bool(entry.degraded);
  writer.Key("queue_seconds").Number(entry.queue_seconds);
  writer.Key("total_seconds").Number(entry.total_seconds);
  writer.Key("points").Number(entry.points);
  writer.Key("kernel_evals").Number(entry.kernel_evals);
  writer.Key("request_bytes").Number(entry.request_bytes);
  writer.Key("response_bytes").Number(entry.response_bytes);
  writer.Key("unix_time").Number(entry.unix_time);
  writer.EndObject();
  return writer.TakeString();
}

void AccessLog::Append(const AccessLogEntry& entry) {
  const std::string line = ToJson(entry);
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  if (options_.rotate_bytes > 0 &&
      bytes_written_ + line.size() + 1 > options_.rotate_bytes &&
      bytes_written_ > 0) {
    RotateLocked();
  }
  if (file_ == nullptr) return;  // rotation failed and closed the log
  const size_t written = std::fwrite(line.data(), 1, line.size(), file_);
  const bool ok = written == line.size() && std::fputc('\n', file_) != EOF &&
                  std::fflush(file_) == 0;
  if (!ok) {
    static Counter& errors =
        MetricsRegistry::Global().GetCounter("access_log.write_errors");
    errors.Increment();
    return;
  }
  bytes_written_ += line.size() + 1;
  static Counter& lines =
      MetricsRegistry::Global().GetCounter("access_log.lines");
  lines.Increment();
}

void AccessLog::RotateLocked() {
  std::fclose(file_);
  file_ = nullptr;
  // Shift generations oldest-first: path.(N-1) -> path.N, ..., path -> path.1.
  for (size_t i = kMaxRotations; i >= 1; --i) {
    const std::string from =
        i == 1 ? options_.path : options_.path + "." + std::to_string(i - 1);
    const std::string to = options_.path + "." + std::to_string(i);
    std::rename(from.c_str(), to.c_str());  // ENOENT for missing gens is fine
  }
  std::FILE* file = std::fopen(options_.path.c_str(), "wb");
  if (file == nullptr) {
    static Counter& errors =
        MetricsRegistry::Global().GetCounter("access_log.write_errors");
    errors.Increment();
    return;
  }
  file_ = file;
  bytes_written_ = 0;
  static Counter& rotations =
      MetricsRegistry::Global().GetCounter("access_log.rotations");
  rotations.Increment();
}

void AccessLog::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool AccessLog::is_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_ != nullptr;
}

}  // namespace udm::obs
