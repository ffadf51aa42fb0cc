#ifndef UDM_COMMON_FLAGS_H_
#define UDM_COMMON_FLAGS_H_

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace udm {

/// The one command-line parser of every tool and bench harness. A tool
/// declares its flags in a table; parsing validates the whole command line
/// against it before any work starts, so a mistyped flag or value fails
/// the launch (exit 2, naming the flag) instead of silently running a
/// different experiment on a default. The only argument form is
/// `--name value`, plus bare switches.

enum class FlagKind {
  kSwitch,  ///< bare `--name`; present or absent
  kText,    ///< any string
  kCount,   ///< a non-negative decimal integer
  kReal,    ///< a finite number
};

/// Default-column marker of a flag the command line must give.
inline constexpr char kRequired[] = "required";

struct FlagSpec {
  const char* name;  ///< without the leading "--"
  FlagKind kind;
  /// Text of the default value, parsed like a given value. `kRequired`
  /// for a flag that must be given; nullptr for an optional flag with no
  /// default (read it after `Has`). Switches take nullptr.
  const char* default_text;
  const char* help;
};

/// The values of one parsed command line, read through the table it was
/// parsed against. Reading a flag the table does not declare, or a typed
/// value of the wrong kind, is a programming error and aborts.
class FlagValues {
 public:
  /// True when the flag was given on the command line.
  bool Has(std::string_view name) const;
  /// The given value, else the default, else "".
  std::string Text(std::string_view name) const;
  /// A count flag's given or default value.
  size_t Size(std::string_view name) const;
  /// A real flag's given or default value.
  double Real(std::string_view name) const;

  /// True when `--help` was given.
  bool help() const { return help_; }
  const std::vector<FlagSpec>& specs() const { return specs_; }

 private:
  friend Result<FlagValues> ParseFlags(std::span<const FlagSpec> specs,
                                       int argc, const char* const* argv,
                                       int first);
  const FlagSpec& Spec(std::string_view name) const;

  std::vector<FlagSpec> specs_;
  std::map<std::string, std::string, std::less<>> given_;
  bool help_ = false;
};

/// Parses argv[first..argc) against `specs`. Fails with InvalidArgument,
/// naming the flag, on an unknown flag, a missing or unparsable value, a
/// flag given twice, or a required flag left out (and on a bare value,
/// such as one given to a switch).
/// `--help` is accepted by every table and sets FlagValues::help().
Result<FlagValues> ParseFlags(std::span<const FlagSpec> specs, int argc,
                              const char* const* argv, int first = 1);

/// The usage text: one line per declared flag with its kind, default and
/// help, under a `usage: <tool> [--flag value ...]` header.
std::string FormatUsage(std::string_view tool,
                        std::span<const FlagSpec> specs);

/// ParseFlags for a tool's main(): `--help` prints the usage to stdout and
/// exits 0; a usage error prints "<tool>: <message>" and the usage to
/// stderr and exits 2.
FlagValues ParseFlagsOrExit(std::string_view tool,
                            std::span<const FlagSpec> specs, int argc,
                            const char* const* argv, int first = 1);

}  // namespace udm

#endif  // UDM_COMMON_FLAGS_H_
