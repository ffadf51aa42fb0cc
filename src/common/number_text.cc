#include "common/number_text.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <istream>

#include "common/logging.h"

namespace udm {

void AppendDouble(std::string& out, double value) {
  // "%.17g" needs at most 24 bytes ("-2.2250738585072014e-308").
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, 17);
  UDM_DCHECK(result.ec == std::errc()) << "AppendDouble: buffer too small";
  out.append(buffer, result.ptr);
}

std::optional<double> ParseDouble(std::string_view token) {
  const char* first = token.data();
  const char* last = first + token.size();
  double value = 0.0;
  const std::from_chars_result fast =
      std::from_chars(first, last, value, std::chars_format::general);
  // Both parsers round correctly, so a finite decimal that from_chars
  // consumes whole has strtod's value.
  if (fast.ec == std::errc() && fast.ptr == last && std::isfinite(value)) {
    return value;
  }
  const std::string text(token);  // strtod needs a terminator
  char* end = nullptr;
  value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || end != text.c_str() + text.size()) {
    return std::nullopt;
  }
  return value;
}

bool ReadDouble(std::istream& in, double* out) {
  const std::istream::sentry sentry(in);  // skips whitespace
  if (!sentry) return false;
  using Traits = std::istream::traits_type;
  std::streambuf& buf = *in.rdbuf();
  std::string token;
  int c = buf.sgetc();
  if (c == '+' || c == '-') {
    token += static_cast<char>(c);
    c = buf.snextc();
  }
  bool mantissa = false;
  bool point = false;
  bool exponent = false;
  while (!Traits::eq_int_type(c, Traits::eof())) {
    if (c >= '0' && c <= '9') {
      mantissa = true;
    } else if (c == '.' && !point && !exponent) {
      point = true;
    } else if ((c == 'e' || c == 'E') && !exponent && mantissa) {
      exponent = true;
      token += static_cast<char>(c);
      c = buf.snextc();
      if (c != '+' && c != '-') continue;
    } else {
      break;
    }
    token += static_cast<char>(c);
    c = buf.snextc();
  }
  if (Traits::eq_int_type(c, Traits::eof())) in.setstate(std::ios::eofbit);
  // The grammar admits no hex, inf or nan, so this is the extractor's own
  // conversion: it fails where strtod stops short of the token's end
  // ("1e", "-") and where the value overflows to ±inf.
  const std::optional<double> value = ParseDouble(token);
  if (!value || std::isinf(*value)) {
    in.setstate(std::ios::failbit);
    return false;
  }
  *out = *value;
  return true;
}

}  // namespace udm
