#ifndef UDM_OBS_JSON_H_
#define UDM_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace udm::obs {

/// Append-only JSON document builder: compact output, correct string
/// escaping, automatic comma placement. The writer trusts the caller to
/// produce a structurally valid document (matched Begin/End, one Key per
/// value inside objects); it exists so no observability code ever builds
/// JSON by string concatenation.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  /// Non-finite doubles have no JSON encoding; they are emitted as null.
  JsonWriter& Number(double value);
  JsonWriter& Number(uint64_t value);
  JsonWriter& Number(int64_t value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  /// Emits the separating comma when a sibling value precedes this one.
  void BeforeValue();

  std::string out_;
  std::vector<bool> has_sibling_;  // per open container
  bool pending_key_ = false;
};

/// Escapes `value` for inclusion inside a JSON string literal (quotes not
/// included). Exposed for the trace exporter's streaming writer.
std::string JsonEscape(std::string_view value);

/// Immutable parsed JSON value. The parser is a small recursive-descent
/// implementation (bounded depth, no exceptions) that exists so the CLI
/// `stats` subcommand and the RunReport schema checker can read the
/// documents the writer produces — it is not a general-purpose JSON
/// library (no \u surrogate pairs; numbers parse with strtod semantics
/// through common/number_text.h).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses a complete JSON document (trailing garbage is an error).
  static Result<JsonValue> Parse(std::string_view text);

  /// Value factories (the default-constructed value is null).
  static JsonValue MakeBool(bool value);
  static JsonValue MakeNumber(double value);
  static JsonValue MakeString(std::string value);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(
      std::vector<std::pair<std::string, JsonValue>> members);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool boolean() const { return bool_; }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace udm::obs

#endif  // UDM_OBS_JSON_H_
