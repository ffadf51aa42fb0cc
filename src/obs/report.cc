#include "obs/report.h"

#include <cctype>
#include <cstdio>
#include <optional>

#include "common/number_text.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace udm::obs {

namespace {

/// The value of `cell` when it parses fully as a JSON-compatible number,
/// so table cells like "0.125" can be emitted unquoted.
std::optional<double> NumericCell(const std::string& cell) {
  const std::optional<double> value = ParseDouble(cell);
  if (!value) return std::nullopt;
  // strtod accepts "inf"/"nan", which JSON numbers cannot express.
  for (char c : cell) {
    if (std::isalpha(static_cast<unsigned char>(c)) && c != 'e' && c != 'E') {
      return std::nullopt;
    }
  }
  return value;
}

}  // namespace

std::string GitDescribe() {
#ifdef UDM_GIT_DESCRIBE
  return UDM_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

RunReport::RunReport(std::string tool)
    : tool_(std::move(tool)),
      created_unix_(std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count()),
      start_wall_(std::chrono::steady_clock::now()),
      start_cpu_(Stopwatch::ProcessCpuSeconds()) {}

void RunReport::SetConfig(std::string_view key, std::string_view value) {
  ConfigEntry entry;
  entry.key = std::string(key);
  entry.string_value = std::string(value);
  config_.push_back(std::move(entry));
}

void RunReport::SetConfig(std::string_view key, double value) {
  ConfigEntry entry;
  entry.key = std::string(key);
  entry.number_value = value;
  entry.is_number = true;
  config_.push_back(std::move(entry));
}

void RunReport::SetConfig(std::string_view key, uint64_t value) {
  SetConfig(key, static_cast<double>(value));
}

void RunReport::SetConfig(std::string_view key, int value) {
  SetConfig(key, static_cast<double>(value));
}

void RunReport::SetConfig(const FlagValues& flags) {
  for (const FlagSpec& spec : flags.specs()) {
    if (spec.kind == FlagKind::kSwitch) {
      SetConfig(spec.name, flags.Has(spec.name) ? "true" : "false");
    } else if (spec.default_text == nullptr && !flags.Has(spec.name)) {
      continue;
    } else if (spec.kind == FlagKind::kText) {
      SetConfig(spec.name, std::string_view(flags.Text(spec.name)));
    } else {
      SetConfig(spec.name, spec.kind == FlagKind::kCount
                               ? static_cast<double>(flags.Size(spec.name))
                               : flags.Real(spec.name));
    }
  }
}

void RunReport::AddCheck(std::string_view name, bool passed,
                         std::string_view detail) {
  ReportCheck check;
  check.name = std::string(name);
  check.passed = passed;
  check.detail = std::string(detail);
  checks_.push_back(std::move(check));
}

void RunReport::AddTable(ReportTable table) {
  tables_.push_back(std::move(table));
}

bool RunReport::AllChecksPassed() const {
  for (const ReportCheck& check : checks_) {
    if (!check.passed) return false;
  }
  return true;
}

std::string RunReport::ToJson() const {
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_wall_)
          .count();
  const double cpu_seconds = Stopwatch::ProcessCpuSeconds() - start_cpu_;

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema_version").Number(uint64_t{1});
  writer.Key("tool").String(tool_);
  writer.Key("git").String(GitDescribe());
  writer.Key("created_unix").Number(created_unix_);
  writer.Key("wall_seconds").Number(wall_seconds);
  writer.Key("cpu_seconds").Number(cpu_seconds);

  writer.Key("config").BeginObject();
  for (const ConfigEntry& entry : config_) {
    if (entry.is_number) {
      writer.Key(entry.key).Number(entry.number_value);
    } else {
      writer.Key(entry.key).String(entry.string_value);
    }
  }
  writer.EndObject();

  writer.Key("checks").BeginArray();
  for (const ReportCheck& check : checks_) {
    writer.BeginObject();
    writer.Key("name").String(check.name);
    writer.Key("passed").Bool(check.passed);
    if (!check.detail.empty()) writer.Key("detail").String(check.detail);
    writer.EndObject();
  }
  writer.EndArray();

  writer.Key("tables").BeginArray();
  for (const ReportTable& table : tables_) {
    writer.BeginObject();
    writer.Key("title").String(table.title);
    writer.Key("columns").BeginArray();
    for (const std::string& column : table.columns) writer.String(column);
    writer.EndArray();
    writer.Key("rows").BeginArray();
    for (const auto& row : table.rows) {
      writer.BeginArray();
      for (const std::string& cell : row) {
        if (const std::optional<double> number = NumericCell(cell)) {
          writer.Number(*number);
        } else {
          writer.String(cell);
        }
      }
      writer.EndArray();
    }
    writer.EndArray();
    writer.EndObject();
  }
  writer.EndArray();

  writer.Key("metrics");
  MetricsRegistry::Global().WriteJson(writer);

  writer.EndObject();
  return writer.TakeString();
}

Status RunReport::Write(const std::string& path) const {
  const std::string json = ToJson();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("RunReport::Write: cannot open " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const int close_rc = std::fclose(file);
  if (written != json.size() || close_rc != 0) {
    return Status::IoError("RunReport::Write: short write to " + path);
  }
  return Status::OK();
}

}  // namespace udm::obs
