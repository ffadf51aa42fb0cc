#ifndef UDM_OBS_REPORT_H_
#define UDM_OBS_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "obs/json.h"

namespace udm::obs {

/// What `git describe` said when the binary was configured ("unknown"
/// outside a git checkout). Stamped by CMake into the udm_obs target.
std::string GitDescribe();

/// One result table, mirroring the ASCII tables the benches print.
struct ReportTable {
  std::string title;
  std::vector<std::string> columns;
  /// Cells are pre-formatted; numeric-looking cells are emitted as JSON
  /// numbers so downstream tooling can plot them without re-parsing.
  std::vector<std::vector<std::string>> rows;
};

/// Outcome of one sanity/shape check a bench ran on its own output.
struct ReportCheck {
  std::string name;
  bool passed = false;
  std::string detail;
};

/// Machine-readable record of one tool/bench run: configuration, build
/// provenance, wall/CPU time, result tables, checks, and a full metrics
/// snapshot. Serialized as a single JSON document (schema v1, DESIGN.md
/// §4d). One RunReport per process; construct early, Write() at exit.
class RunReport {
 public:
  explicit RunReport(std::string tool);

  /// Records a configuration key (flag value, dataset size, ...).
  void SetConfig(std::string_view key, std::string_view value);
  void SetConfig(std::string_view key, double value);
  void SetConfig(std::string_view key, uint64_t value);
  void SetConfig(std::string_view key, int value);
  /// Records every declared flag's effective value under its name: the
  /// given value or the default (switches as "true"/"false"; a flag absent
  /// with no default is left out). A parsed required flag is always given.
  void SetConfig(const FlagValues& flags);

  void AddCheck(std::string_view name, bool passed,
                std::string_view detail = "");
  void AddTable(ReportTable table);

  /// All checks so far passed (vacuously true when none were recorded).
  bool AllChecksPassed() const;

  /// Serializes the report, capturing wall/CPU time since construction and
  /// the current global metrics snapshot.
  std::string ToJson() const;
  Status Write(const std::string& path) const;

 private:
  std::string tool_;
  int64_t created_unix_ = 0;
  std::chrono::steady_clock::time_point start_wall_;
  double start_cpu_ = 0.0;
  struct ConfigEntry {
    std::string key;
    std::string string_value;
    double number_value = 0.0;
    bool is_number = false;
  };
  std::vector<ConfigEntry> config_;
  std::vector<ReportCheck> checks_;
  std::vector<ReportTable> tables_;
};

}  // namespace udm::obs

#endif  // UDM_OBS_REPORT_H_
