#include "dataset/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/number_text.h"

namespace udm {

namespace {

std::vector<std::string> SplitLine(const std::string& line, char delimiter) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == delimiter) {
      fields.push_back(field);
      field.clear();
    } else if (c != '\r') {
      field.push_back(c);
    }
  }
  fields.push_back(field);
  return fields;
}

/// Parses one feature cell. `row` and `column` are 1-based file
/// coordinates (the row count includes the header line, matching what an
/// editor shows), so an error message points at the exact offending cell.
Result<double> ParseCell(const std::string& text, size_t row,
                         size_t column) {
  const std::string where =
      "row " + std::to_string(row) + ", column " + std::to_string(column);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) {
    return Status::InvalidArgument(where + ": not a number: '" + text + "'");
  }
  // Allow trailing whitespace only.
  for (; *end != '\0'; ++end) {
    if (*end != ' ' && *end != '\t') {
      return Status::InvalidArgument(where + ": trailing junk in '" + text +
                                     "'");
    }
  }
  // Reject NaN/Inf literals and out-of-range magnitudes (ERANGE): one
  // non-finite feature silently poisons every distance and density
  // downstream, so the reader is the right place to stop it.
  if (errno == ERANGE || !std::isfinite(value)) {
    return Status::InvalidArgument(where + ": non-finite feature value '" +
                                   text + "'");
  }
  return value;
}

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

Result<Dataset> ReadCsvString(const std::string& content,
                              const CsvOptions& options,
                              std::vector<std::string>* label_names) {
  std::istringstream in(content);
  std::string line;
  size_t line_no = 0;

  std::vector<std::string> header;
  if (options.has_header) {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("empty CSV input");
    }
    ++line_no;
    header = SplitLine(line, options.delimiter);
  }

  std::unordered_map<std::string, int> label_ids;
  std::vector<std::string> names_in_order;

  Dataset* dataset_ptr = nullptr;
  Result<Dataset> dataset_holder = Status::Internal("uninitialized");
  size_t num_columns = 0;
  int label_column = options.label_column;

  std::vector<double> row;
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    const std::vector<std::string> fields = SplitLine(line, options.delimiter);

    if (dataset_ptr == nullptr) {
      num_columns = fields.size();
      if (label_column == -1) label_column = static_cast<int>(num_columns) - 1;
      const bool has_label = label_column != CsvOptions::kNoLabelColumn;
      if (has_label &&
          (label_column < 0 || label_column >= static_cast<int>(num_columns))) {
        return Status::InvalidArgument("label_column out of range");
      }
      const size_t num_dims = num_columns - (has_label ? 1 : 0);
      std::vector<std::string> dim_names;
      if (!header.empty() && header.size() == num_columns) {
        for (size_t j = 0; j < num_columns; ++j) {
          if (has_label && static_cast<int>(j) == label_column) continue;
          dim_names.push_back(Trim(header[j]));
        }
      }
      dataset_holder = Dataset::Create(num_dims, std::move(dim_names));
      UDM_RETURN_IF_ERROR(dataset_holder.status());
      dataset_ptr = &dataset_holder.value();
    }

    if (fields.size() != num_columns) {
      return Status::InvalidArgument(
          "row " + std::to_string(line_no) + ": ragged row — expected " +
          std::to_string(num_columns) + " columns, got " +
          std::to_string(fields.size()));
    }

    row.clear();
    int label = Dataset::kNoLabel;
    for (size_t j = 0; j < num_columns; ++j) {
      if (label_column != CsvOptions::kNoLabelColumn &&
          static_cast<int>(j) == label_column) {
        const std::string text = Trim(fields[j]);
        auto [it, inserted] =
            label_ids.emplace(text, static_cast<int>(label_ids.size()));
        if (inserted) names_in_order.push_back(text);
        label = it->second;
      } else {
        UDM_ASSIGN_OR_RETURN(const double value,
                             ParseCell(fields[j], line_no, j + 1));
        row.push_back(value);
      }
    }
    UDM_RETURN_IF_ERROR(dataset_ptr->AppendRow(row, label));
  }

  if (dataset_ptr == nullptr) {
    return Status::InvalidArgument("CSV contains no data rows");
  }
  if (label_names != nullptr) *label_names = std::move(names_in_order);
  return dataset_holder;
}

Result<Dataset> ReadCsv(const std::string& path, const CsvOptions& options,
                        std::vector<std::string>* label_names) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<Dataset> result =
      ReadCsvString(buffer.str(), options, label_names);
  if (!result.ok()) return result.status().WithContext(path);
  return result;
}

Status WriteCsv(const Dataset& dataset, const std::string& path,
                const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  if (options.has_header) {
    for (size_t j = 0; j < dataset.NumDims(); ++j) {
      out << dataset.dim_names()[j] << options.delimiter;
    }
    out << "label\n";
  }
  std::string line;
  for (size_t i = 0; i < dataset.NumRows(); ++i) {
    line.clear();
    for (double v : dataset.Row(i)) {
      AppendDouble(line, v);
      line += options.delimiter;
    }
    line += std::to_string(dataset.Label(i));
    line += '\n';
    out << line;
  }
  if (!out) return Status::IoError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace udm
