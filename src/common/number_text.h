#ifndef UDM_COMMON_NUMBER_TEXT_H_
#define UDM_COMMON_NUMBER_TEXT_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace udm {

/// The one number codec of every text format that carries doubles:
/// summaries, checkpoints, CSV, JSON reports and the serve wire protocol.
/// Every double on disk or on the wire is `%.17g` text, which round-trips
/// every finite value exactly.

/// Appends `value` formatted byte-for-byte as `printf("%.17g", value)`
/// (std::to_chars, general format, precision 17).
void AppendDouble(std::string& out, double value);

/// Parses `token` exactly as `strtod` over the whole token: the value when
/// strtod converts and consumes every byte of it, nullopt otherwise (an
/// empty token included). A `from_chars` fast path answers plain finite
/// decimals; every token it refuses (a leading '+', an out-of-range
/// magnitude, hex, inf/nan literals, leading whitespace) goes through
/// strtod, so overflow gives ±inf and underflow gives 0 or a subnormal,
/// as strtod does.
std::optional<double> ParseDouble(std::string_view token);

/// Reads one double from `in` exactly as `in >> value` does in the C
/// locale: skips leading whitespace, then consumes the longest prefix of
/// the stream that fits the extractor's grammar (sign, digits, one '.',
/// one exponent after a digit), so "0-0" reads as 0 and then -0. Sets
/// failbit and returns false where the extractor fails, including on a
/// magnitude that overflows to ±inf.
bool ReadDouble(std::istream& in, double* out);

}  // namespace udm

#endif  // UDM_COMMON_NUMBER_TEXT_H_
