#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "common/logging.h"
#include "common/number_text.h"

namespace udm {

namespace {

/// A non-negative decimal integer spanning the whole token.
std::optional<size_t> ParseCount(std::string_view text) {
  size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// A finite number spanning the whole token.
std::optional<double> ParseReal(std::string_view text) {
  const std::optional<double> value = ParseDouble(text);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

/// "--name <kind>" as the usage text shows it, indexed by FlagKind.
std::string UsageName(const FlagSpec& spec) {
  constexpr const char* kKindSuffix[] = {"", " <text>", " <count>",
                                         " <real>"};
  return "--" + std::string(spec.name) +
         kKindSuffix[static_cast<int>(spec.kind)];
}

}  // namespace

const FlagSpec& FlagValues::Spec(std::string_view name) const {
  const auto spec =
      std::find_if(specs_.begin(), specs_.end(),
                   [name](const FlagSpec& s) { return name == s.name; });
  UDM_CHECK(spec != specs_.end()) << "flag --" << name << " is not declared";
  return *spec;
}

bool FlagValues::Has(std::string_view name) const {
  Spec(name);
  return given_.find(name) != given_.end();
}

std::string FlagValues::Text(std::string_view name) const {
  const FlagSpec& spec = Spec(name);
  const auto it = given_.find(name);
  if (it != given_.end()) return it->second;
  // A parsed required flag is always given.
  return spec.default_text != nullptr ? spec.default_text : "";
}

size_t FlagValues::Size(std::string_view name) const {
  const std::optional<size_t> value = ParseCount(Text(name));
  UDM_CHECK(Spec(name).kind == FlagKind::kCount && value.has_value())
      << "flag --" << name << " has no count value";
  return *value;
}

double FlagValues::Real(std::string_view name) const {
  const std::optional<double> value = ParseReal(Text(name));
  UDM_CHECK(Spec(name).kind == FlagKind::kReal && value.has_value())
      << "flag --" << name << " has no real value";
  return *value;
}

Result<FlagValues> ParseFlags(std::span<const FlagSpec> specs, int argc,
                              const char* const* argv, int first) {
  FlagValues values;
  values.specs_.assign(specs.begin(), specs.end());
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      values.help_ = true;
      return values;
    }
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected --flag, got '" + arg + "'");
    }
    const std::string name = arg.substr(2);
    const auto spec =
        std::find_if(specs.begin(), specs.end(),
                     [&name](const FlagSpec& s) { return name == s.name; });
    if (spec == specs.end()) {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
    if (values.given_.count(name) != 0) {
      return Status::InvalidArgument("flag '" + arg + "' given twice");
    }
    if (spec->kind == FlagKind::kSwitch) {
      values.given_[name] = "true";
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag '" + arg + "' needs a value");
    }
    const std::string value = argv[++i];
    const bool count = spec->kind == FlagKind::kCount;
    if ((count && !ParseCount(value)) ||
        (spec->kind == FlagKind::kReal && !ParseReal(value))) {
      return Status::InvalidArgument(
          "flag '" + arg + "' needs " +
          (count ? "a non-negative integer" : "a finite number") + ", got '" +
          value + "'");
    }
    values.given_[name] = value;
  }
  for (const FlagSpec& spec : specs) {
    if (spec.default_text == kRequired && !values.Has(spec.name)) {
      return Status::InvalidArgument("missing required flag --" +
                                     std::string(spec.name));
    }
  }
  return values;
}

std::string FormatUsage(std::string_view tool,
                        std::span<const FlagSpec> specs) {
  size_t name_width = 0;
  size_t default_width = 1;  // "-" marks a flag without a default
  for (const FlagSpec& spec : specs) {
    name_width = std::max(name_width, UsageName(spec).size());
    if (spec.default_text != nullptr) {
      default_width =
          std::max(default_width, std::string_view(spec.default_text).size());
    }
  }
  std::string out = "usage: " + std::string(tool) + " [--flag value ...]\n";
  for (const FlagSpec& spec : specs) {
    std::string line = "  " + UsageName(spec);
    line.resize(name_width + 4, ' ');
    line += spec.default_text != nullptr ? spec.default_text : "-";
    line.resize(name_width + default_width + 6, ' ');
    out += line + spec.help + "\n";
  }
  return out;
}

FlagValues ParseFlagsOrExit(std::string_view tool,
                            std::span<const FlagSpec> specs, int argc,
                            const char* const* argv, int first) {
  Result<FlagValues> values = ParseFlags(specs, argc, argv, first);
  if (!values.ok()) {
    std::fprintf(stderr, "%s: %s\n%s", std::string(tool).c_str(),
                 values.status().message().c_str(),
                 FormatUsage(tool, specs).c_str());
    std::exit(2);
  }
  if (values->help()) {
    std::fputs(FormatUsage(tool, specs).c_str(), stdout);
    std::exit(0);
  }
  return std::move(values).value();
}

}  // namespace udm
