#include "robustness/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/crc32.h"
#include "common/number_text.h"
#include "common/stopwatch.h"
#include "microcluster/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace udm {

namespace {

namespace fs = std::filesystem;

constexpr char kMagic[] = "udm-checkpoint";
constexpr char kCrcKey[] = "crc32";
constexpr char kFileSuffix[] = ".udmck";
/// Files are named `checkpoint-<seq>.udmck`.
constexpr std::string_view kStemPrefix = "checkpoint-";
constexpr size_t kMaxTimeStats = 1u << 22;

bool ReadU64(std::istream& in, uint64_t* out) {
  std::string token;
  if (!(in >> token) || token.empty()) return false;
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (errno == ERANGE || end != token.c_str() + token.size()) return false;
  *out = value;
  return true;
}

bool ReadKeyedU64(std::istream& in, std::string_view key, uint64_t* out) {
  std::string k;
  return (in >> k) && k == key && ReadU64(in, out);
}

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("DeserializeCheckpoint: malformed " + what);
}

/// Writes `payload` to `path` through POSIX I/O and fsyncs the file data
/// before returning. An ofstream flush only pushes bytes to the page
/// cache; without the fsync a post-rename crash can leave a committed
/// file with torn contents — exactly the failure ArmTornWrites simulates.
Status WriteFileDurably(const std::string& path, std::string_view payload) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("CheckpointManager: cannot open '" + path +
                           "' for writing");
  }
  size_t written = 0;
  while (written < payload.size()) {
    const ssize_t n =
        ::write(fd, payload.data() + written, payload.size() - written);
    if (n < 0) {
      ::close(fd);
      return Status::IoError("CheckpointManager: write failed for '" + path +
                             "'");
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IoError("CheckpointManager: fsync failed for '" + path +
                           "'");
  }
  if (::close(fd) != 0) {
    return Status::IoError("CheckpointManager: close failed for '" + path +
                           "'");
  }
  return Status::OK();
}

/// Fsyncs a directory so a just-renamed entry survives a crash. rename(2)
/// updates the directory inode in memory; until that inode is flushed, a
/// power cut can make the new checkpoint vanish even though its data
/// blocks were written — the recovered process would restore a stale
/// generation and silently lose progress.
Status FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("CheckpointManager: cannot open directory '" +
                           dir + "' for fsync");
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("CheckpointManager: directory fsync failed for '" +
                           dir + "'");
  }
  return Status::OK();
}

}  // namespace

std::string SerializeCheckpoint(const StreamSummarizer& summarizer,
                                uint64_t cursor) {
  const StreamSummarizer::State state = summarizer.ExportState();
  // The micro-cluster block rides along in the v2 summary format (with its
  // own CRC footer) as a length-prefixed blob.
  const std::string clusters =
      SerializeMicroClusters(state.clusters, kSerializeVersionLatest);
  const auto u64 = [](uint64_t v) { return std::to_string(v); };
  const IngestStats& s = state.stats;
  std::string text;
  // Each dimension and time-stats line takes at most 46 bytes of text.
  text.reserve(512 + 64 * (state.num_dims + state.time_stats.size()) +
               clusters.size());
  text += std::string(kMagic) + " " + std::to_string(kCheckpointVersion) +
          "\n";
  text += "cursor " + u64(cursor) + "\n";
  text += "dims " + u64(state.num_dims) + "\n";
  text += "options num_clusters " + u64(state.options.num_clusters) +
          " distance " +
          std::to_string(static_cast<int>(state.options.distance)) +
          " enforce_monotonic_time " +
          (state.options.enforce_monotonic_time ? "1" : "0") + " policy " +
          std::to_string(static_cast<int>(state.options.policy)) + "\n";
  text += "last_timestamp " + u64(state.last_timestamp) + "\n";
  text += "stats " + u64(s.records_ok) + " " + u64(s.records_repaired) +
          " " + u64(s.records_quarantined) + " " + u64(s.records_rejected) +
          " " + u64(s.dimension_mismatches) + " " +
          u64(s.out_of_order_timestamps) + " " + u64(s.non_finite_values) +
          " " + u64(s.negative_errors) + "\n";
  // v3: IngestBatch backpressure counters; v4 appends the replay total.
  text += "backpressure " + u64(s.records_deferred) + " " +
          u64(s.batch_deadline_deferrals) + " " + u64(s.records_replayed) +
          "\nrepair-sums";
  for (double v : state.repair_sums) {
    text += ' ';
    AppendDouble(text, v);
  }
  text += "\nrepair-counts";
  for (uint64_t v : state.repair_counts) text += " " + u64(v);
  text += "\ntimestats " + u64(state.time_stats.size()) + "\n";
  for (const StreamSummarizer::TimeStats& ts : state.time_stats) {
    text += u64(ts.first_timestamp) + " " + u64(ts.last_timestamp) + "\n";
  }
  text += "clusters " + u64(clusters.size()) + "\n";
  text += clusters;
  text += std::string(kCrcKey) + " " + Crc32Hex(Crc32(text)) + "\n";
  return text;
}

Result<DecodedCheckpoint> DeserializeCheckpoint(const std::string& text) {
  // Verify the whole-file CRC footer before trusting any field.
  const size_t footer_pos = text.rfind(kCrcKey);
  if (footer_pos == std::string::npos ||
      (footer_pos != 0 && text[footer_pos - 1] != '\n')) {
    return Status::InvalidArgument(
        "DeserializeCheckpoint: missing crc32 footer (truncated file?)");
  }
  {
    std::istringstream footer(text.substr(footer_pos));
    std::string key;
    std::string hex;
    std::string extra;
    uint32_t expected = 0;
    if (!(footer >> key >> hex) || key != kCrcKey || (footer >> extra) ||
        !ParseCrc32Hex(hex, &expected)) {
      return Malformed("crc32 footer");
    }
    const uint32_t actual =
        Crc32(std::string_view(text.data(), footer_pos));
    if (actual != expected) {
      return Status::InvalidArgument(
          "DeserializeCheckpoint: CRC mismatch (stored " + hex +
          ", computed " + Crc32Hex(actual) + ") — checkpoint is corrupt");
    }
  }
  const std::string body = text.substr(0, footer_pos);
  std::istringstream in(body);

  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kMagic) {
    return Malformed("header magic");
  }
  if (version < 2 || version > kCheckpointVersion) {
    return Status::InvalidArgument(
        "DeserializeCheckpoint: unsupported version " +
        std::to_string(version));
  }

  DecodedCheckpoint decoded;
  StreamSummarizer::State& state = decoded.state;
  uint64_t dims = 0;
  if (!ReadKeyedU64(in, "cursor", &decoded.cursor) ||
      !ReadKeyedU64(in, "dims", &dims) || dims == 0) {
    return Malformed("cursor/dims");
  }
  state.num_dims = dims;

  std::string key;
  uint64_t num_clusters = 0;
  uint64_t distance = 0;
  uint64_t monotonic = 0;
  uint64_t policy = 0;
  if (!(in >> key) || key != "options" ||
      !ReadKeyedU64(in, "num_clusters", &num_clusters) || num_clusters == 0 ||
      !ReadKeyedU64(in, "distance", &distance) || distance > 1 ||
      !ReadKeyedU64(in, "enforce_monotonic_time", &monotonic) ||
      monotonic > 1 || !ReadKeyedU64(in, "policy", &policy) || policy > 2) {
    return Malformed("options line");
  }
  state.options.num_clusters = num_clusters;
  state.options.distance = static_cast<AssignmentDistance>(distance);
  state.options.enforce_monotonic_time = monotonic == 1;
  state.options.policy = static_cast<FaultPolicy>(policy);

  if (!ReadKeyedU64(in, "last_timestamp", &state.last_timestamp)) {
    return Malformed("last_timestamp");
  }
  IngestStats& s = state.stats;
  if (!(in >> key) || key != "stats" || !ReadU64(in, &s.records_ok) ||
      !ReadU64(in, &s.records_repaired) ||
      !ReadU64(in, &s.records_quarantined) ||
      !ReadU64(in, &s.records_rejected) ||
      !ReadU64(in, &s.dimension_mismatches) ||
      !ReadU64(in, &s.out_of_order_timestamps) ||
      !ReadU64(in, &s.non_finite_values) || !ReadU64(in, &s.negative_errors)) {
    return Malformed("stats line");
  }
  if (version >= 3) {
    if (!(in >> key) || key != "backpressure" ||
        !ReadU64(in, &s.records_deferred) ||
        !ReadU64(in, &s.batch_deadline_deferrals)) {
      return Malformed("backpressure line");
    }
    if (version >= 4 && !ReadU64(in, &s.records_replayed)) {
      return Malformed("backpressure replay field");
    }
  }
  // v2 predates the backpressure counters; they stay zero (as does the
  // v4 replay total for v3 files).

  if (!(in >> key) || key != "repair-sums") return Malformed("repair-sums");
  state.repair_sums.resize(dims);
  for (double& v : state.repair_sums) {
    if (!ReadDouble(in, &v) || !std::isfinite(v)) {
      return Malformed("repair-sums entry");
    }
  }
  if (!(in >> key) || key != "repair-counts") {
    return Malformed("repair-counts");
  }
  state.repair_counts.resize(dims);
  for (uint64_t& v : state.repair_counts) {
    if (!ReadU64(in, &v)) return Malformed("repair-counts entry");
  }

  uint64_t num_time_stats = 0;
  if (!ReadKeyedU64(in, "timestats", &num_time_stats) ||
      num_time_stats > kMaxTimeStats) {
    return Malformed("timestats count");
  }
  state.time_stats.resize(num_time_stats);
  for (StreamSummarizer::TimeStats& ts : state.time_stats) {
    if (!ReadU64(in, &ts.first_timestamp) ||
        !ReadU64(in, &ts.last_timestamp)) {
      return Malformed("timestats entry");
    }
  }

  uint64_t cluster_bytes = 0;
  if (!ReadKeyedU64(in, "clusters", &cluster_bytes)) {
    return Malformed("clusters length");
  }
  if (in.get() != '\n') return Malformed("clusters separator");
  const size_t blob_start = static_cast<size_t>(in.tellg());
  if (cluster_bytes > body.size() - blob_start) {
    return Malformed("clusters blob (declared length exceeds payload)");
  }
  const std::string blob = body.substr(blob_start, cluster_bytes);
  Result<std::vector<MicroCluster>> clusters = DeserializeMicroClusters(blob);
  if (!clusters.ok()) {
    return clusters.status().WithContext("DeserializeCheckpoint");
  }
  state.clusters = std::move(clusters).value();
  return decoded;
}

Result<CheckpointManager> CheckpointManager::Create(
    const CheckpointOptions& options) {
  if (options.directory.empty()) {
    return Status::InvalidArgument("CheckpointManager: empty directory");
  }
  if (options.max_keep == 0) {
    return Status::InvalidArgument("CheckpointManager: max_keep == 0");
  }
  std::error_code ec;
  fs::create_directories(options.directory, ec);
  if (ec) {
    return Status::IoError("CheckpointManager: cannot create '" +
                           options.directory + "': " + ec.message());
  }
  CheckpointManager manager(options);
  // Continue the sequence past any generation already on disk.
  for (const std::string& path : manager.ListCheckpoints()) {
    const std::string stem = fs::path(path).stem().string();
    const size_t dash = stem.rfind('-');
    if (dash == std::string::npos) continue;
    const uint64_t seq = std::strtoull(stem.c_str() + dash + 1, nullptr, 10);
    manager.next_sequence_ = std::max(manager.next_sequence_, seq + 1);
  }
  return manager;
}

std::vector<std::string> CheckpointManager::ListCheckpoints() const {
  struct Entry {
    uint64_t seq;
    std::string path;
  };
  std::vector<Entry> entries;
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(options_.directory, ec)) {
    if (ec) break;
    const fs::path& p = dirent.path();
    if (p.extension() != kFileSuffix) continue;
    const std::string stem = p.stem().string();
    if (!stem.starts_with(kStemPrefix)) continue;
    const std::string seq_text = stem.substr(kStemPrefix.size());
    if (seq_text.empty() ||
        seq_text.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    entries.push_back({std::strtoull(seq_text.c_str(), nullptr, 10),
                       p.string()});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.seq > b.seq; });
  std::vector<std::string> paths;
  paths.reserve(entries.size());
  for (Entry& e : entries) paths.push_back(std::move(e.path));
  return paths;
}

Status CheckpointManager::Save(const StreamSummarizer& summarizer,
                               uint64_t cursor) {
  UDM_TRACE_SPAN("checkpoint.save");
  Stopwatch watch;
  Status status = RetryWithPolicy(
      options_.retry,
      [this, &summarizer, cursor]() { return SaveOnce(summarizer, cursor); },
      &last_retry_stats_);
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Histogram& latency =
      registry.GetHistogram("checkpoint.save.seconds");
  latency.Record(watch.ElapsedSeconds());
  if (last_retry_stats_.attempts > 1) {
    static obs::Counter& retries =
        registry.GetCounter("checkpoint.save.retries");
    retries.Increment(last_retry_stats_.attempts - 1);
  }
  if (!status.ok()) {
    static obs::Counter& failures =
        registry.GetCounter("checkpoint.save.failures");
    failures.Increment();
  }
  return status;
}

Status CheckpointManager::SaveOnce(const StreamSummarizer& summarizer,
                                   uint64_t cursor) {
  if (options_.io_faults != nullptr && options_.io_faults->ConsumeIoFault()) {
    return Status::IoError(
        "CheckpointManager: injected transient I/O fault (save)");
  }
  std::string payload;
  {
    // Formatting and durable I/O are separate spans so a RunReport splits
    // the save between them.
    UDM_TRACE_SPAN("checkpoint.serialize");
    Stopwatch watch;
    payload = SerializeCheckpoint(summarizer, cursor);
    static obs::Histogram& seconds =
        obs::MetricsRegistry::Global().GetHistogram(
            "checkpoint.serialize.seconds");
    seconds.Record(watch.ElapsedSeconds());
  }
  const fs::path dir(options_.directory);
  const std::string name =
      std::string(kStemPrefix) + std::to_string(next_sequence_);
  const fs::path tmp = dir / (name + ".tmp");
  const fs::path final_path = dir / (name + kFileSuffix);

  // Torn-write injection: commit a truncated generation at the final path
  // — the file a crash-after-rename-before-data-flush leaves behind — and
  // report failure. The sequence still advances (the corrupt file occupies
  // it), so recovery must CRC-reject this generation and fall back.
  if (options_.io_faults != nullptr &&
      options_.io_faults->ConsumeTornWrite()) {
    std::ofstream torn(final_path, std::ios::binary | std::ios::trunc);
    torn << std::string_view(payload).substr(0, payload.size() / 2);
    torn.flush();
    ++next_sequence_;
    return Status::IoError(
        "CheckpointManager: injected torn write (truncated generation "
        "committed at '" + final_path.string() + "')");
  }

  std::error_code ec;
  {
    UDM_TRACE_SPAN("checkpoint.write_durable");
    UDM_RETURN_IF_ERROR(WriteFileDurably(tmp.string(), payload));
    fs::rename(tmp, final_path, ec);
    if (ec) {
      fs::remove(tmp, ec);
      return Status::IoError("CheckpointManager: rename to '" +
                             final_path.string() + "' failed");
    }
    // The rename only exists once the parent directory's inode is on disk;
    // without this a recovered shard can find its newest checkpoint
    // vanished after a simulated crash (tested in checkpoint_test.cc).
    UDM_RETURN_IF_ERROR(FsyncDirectory(options_.directory));
  }
  ++next_sequence_;
  // Prune only after the new generation is durable.
  const std::vector<std::string> existing = ListCheckpoints();
  for (size_t i = options_.max_keep; i < existing.size(); ++i) {
    fs::remove(existing[i], ec);
  }
  return Status::OK();
}

Result<CheckpointManager::Restored> CheckpointManager::RestoreLatest() const {
  UDM_TRACE_SPAN("checkpoint.restore");
  Stopwatch watch;
  Result<Restored> out =
      Status::Internal("CheckpointManager: restore never attempted");
  const Status final_status = RetryWithPolicy(options_.retry, [this, &out]() {
    out = RestoreOnce();
    return out.status();
  });
  (void)final_status;  // identical to out.status() by construction
  static obs::Histogram& latency =
      obs::MetricsRegistry::Global().GetHistogram("checkpoint.restore.seconds");
  latency.Record(watch.ElapsedSeconds());
  return out;
}

Result<CheckpointManager::Restored> CheckpointManager::RestoreOnce() const {
  if (options_.io_faults != nullptr && options_.io_faults->ConsumeIoFault()) {
    return Status::IoError(
        "CheckpointManager: injected transient I/O fault (restore)");
  }
  const std::vector<std::string> candidates = ListCheckpoints();
  if (candidates.empty()) {
    return Status::NotFound("CheckpointManager: no checkpoint in '" +
                            options_.directory + "'");
  }
  Status last_error = Status::OK();
  size_t fallbacks = 0;
  for (const std::string& path : candidates) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      last_error = Status::IoError("cannot open '" + path + "'");
      ++fallbacks;
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    // Short-read injection: this read observed only a prefix of the file.
    // The CRC footer turns that into a detected corruption, so the walk
    // falls back to the next generation instead of restoring garbage.
    if (options_.io_faults != nullptr &&
        options_.io_faults->ConsumeShortRead()) {
      text.resize(text.size() / 2);
    }
    Result<DecodedCheckpoint> decoded = DeserializeCheckpoint(text);
    if (!decoded.ok()) {
      last_error = decoded.status().WithContext(path);
      ++fallbacks;
      continue;
    }
    Result<StreamSummarizer> summarizer =
        StreamSummarizer::FromState(std::move(decoded->state));
    if (!summarizer.ok()) {
      last_error = summarizer.status().WithContext(path);
      ++fallbacks;
      continue;
    }
    return Restored{std::move(summarizer).value(), decoded->cursor, path,
                    fallbacks};
  }
  return last_error.WithContext(
      "CheckpointManager: every checkpoint in the rotation is unusable");
}

}  // namespace udm
