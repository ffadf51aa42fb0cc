#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <optional>

#include "common/number_text.h"

namespace udm::obs {

std::string JsonEscape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_sibling_.empty() && has_sibling_.back()) out_ += ',';
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  if (!has_sibling_.empty()) has_sibling_.back() = true;
  out_ += '{';
  has_sibling_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  has_sibling_.pop_back();
  if (!has_sibling_.empty()) has_sibling_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  if (!has_sibling_.empty()) has_sibling_.back() = true;
  out_ += '[';
  has_sibling_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  has_sibling_.pop_back();
  if (!has_sibling_.empty()) has_sibling_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (!has_sibling_.empty() && has_sibling_.back()) out_ += ',';
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  if (!has_sibling_.empty()) has_sibling_.back() = true;
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  if (!std::isfinite(value)) return Null();
  BeforeValue();
  if (!has_sibling_.empty()) has_sibling_.back() = true;
  AppendDouble(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Number(uint64_t value) {
  BeforeValue();
  if (!has_sibling_.empty()) has_sibling_.back() = true;
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Number(int64_t value) {
  BeforeValue();
  if (!has_sibling_.empty()) has_sibling_.back() = true;
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  if (!has_sibling_.empty()) has_sibling_.back() = true;
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  if (!has_sibling_.empty()) has_sibling_.back() = true;
  out_ += "null";
  return *this;
}

namespace {

constexpr int kMaxParseDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    UDM_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("JsonValue::Parse: trailing characters at offset " +
                                     std::to_string(pos_));
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JsonValue::Parse: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Result<JsonValue> ParseValue(int depth);

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected string");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("bad \\u escape digit");
              }
            }
            // ASCII only; anything wider is replaced (the writer never
            // emits \u beyond control characters).
            out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            return Error("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return Error("unterminated string");
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Result<JsonValue> Parser::ParseValue(int depth) {
  if (depth > kMaxParseDepth) return Error("nesting too deep");
  SkipWhitespace();
  if (pos_ >= text_.size()) return Error("unexpected end of input");

  JsonValue value;
  const char c = text_[pos_];
  if (c == '{') {
    ++pos_;
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (!Consume('}')) {
      while (true) {
        SkipWhitespace();
        UDM_ASSIGN_OR_RETURN(std::string key, ParseString());
        SkipWhitespace();
        if (!Consume(':')) return Error("expected ':'");
        UDM_ASSIGN_OR_RETURN(JsonValue member, ParseValue(depth + 1));
        members.emplace_back(std::move(key), std::move(member));
        SkipWhitespace();
        if (Consume(',')) continue;
        if (Consume('}')) break;
        return Error("expected ',' or '}'");
      }
    }
    return JsonValue::MakeObject(std::move(members));
  }
  if (c == '[') {
    ++pos_;
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (!Consume(']')) {
      while (true) {
        UDM_ASSIGN_OR_RETURN(JsonValue item, ParseValue(depth + 1));
        items.push_back(std::move(item));
        SkipWhitespace();
        if (Consume(',')) continue;
        if (Consume(']')) break;
        return Error("expected ',' or ']'");
      }
    }
    return JsonValue::MakeArray(std::move(items));
  }
  if (c == '"') {
    UDM_ASSIGN_OR_RETURN(std::string text, ParseString());
    return JsonValue::MakeString(std::move(text));
  }
  if (ConsumeLiteral("null")) return JsonValue();
  if (ConsumeLiteral("true")) return JsonValue::MakeBool(true);
  if (ConsumeLiteral("false")) return JsonValue::MakeBool(false);

  // Number: strtod semantics over the longest plausible span.
  const size_t start = pos_;
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
          text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
          text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
  }
  if (pos_ == start) return Error("unexpected character");
  const std::optional<double> number =
      ParseDouble(text_.substr(start, pos_ - start));
  if (!number) return Error("bad number");
  return JsonValue::MakeNumber(*number);
}

}  // namespace

JsonValue JsonValue::MakeBool(bool value) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::MakeNumber(double value) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::MakeString(std::string value) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::MakeObject(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.members_ = std::move(members);
  return v;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace udm::obs
