#include "cli/flags.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace nd::cli {

std::optional<std::uint64_t> parse_decimal(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

namespace {

std::string format_real(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%g", value);
  return text;
}

}  // namespace

std::string Unsigned::store(std::optional<std::string_view> text) {
  const auto parsed = text ? parse_decimal(*text) : std::nullopt;
  if (!parsed || *parsed < min || *parsed > max) {
    return "an integer in " + std::to_string(min) + ".." +
           std::to_string(max);
  }
  number = *parsed;
  return "";
}

std::string Real::store(std::optional<std::string_view> text) {
  const std::string whole(text.value_or(""));
  char* end = nullptr;
  const double parsed = std::strtod(whole.c_str(), &end);
  const bool above_min = min_exclusive ? parsed > min : parsed >= min;
  if (whole.empty() || *end != '\0' || !std::isfinite(parsed) ||
      !above_min || parsed > max) {
    return std::string("a number in ") + (min_exclusive ? "(" : "[") +
           format_real(min) + ", " +
           (max == std::numeric_limits<double>::max() ? "inf)"
                                                      : format_real(max) + "]");
  }
  value = parsed;
  return "";
}

std::string Choice::store(std::optional<std::string_view> text) {
  if (std::find(names.begin(), names.end(), text.value_or("")) ==
      names.end()) {
    std::string expected;
    for (const std::string_view choice : names) {
      expected += (expected.empty() ? "one of " : ", ") +
                  (choice.empty() ? "no value" : std::string(choice));
    }
    return expected;
  }
  value = text.value_or("");
  return "";
}

std::string Text::store(std::optional<std::string_view> text) {
  if (text.value_or("").empty()) return bare_ok ? "" : "a non-empty value";
  if (check != nullptr) {
    if (std::string expected = check(*text); !expected.empty()) {
      return expected;
    }
  }
  value = *text;
  return "";
}

std::optional<ParseError> parse(std::string_view command, const Table& table,
                                std::span<const std::string_view> args) {
  const std::string prefix = std::string(command) + ": --";
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string_view name = args[i];
    if (!name.starts_with("--")) {
      return ParseError{"", "bad flag: " + std::string(name)};
    }
    name.remove_prefix(2);
    // `--name=value`, `--name value`, or bare `--name` when the next
    // word is another flag (or there is none).
    std::optional<std::string_view> value;
    if (const auto eq = name.find('='); eq != std::string_view::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < args.size() && !args[i + 1].starts_with("--")) {
      value = args[++i];
    }
    const std::string flag_name(name);
    Flag* flag = nullptr;
    for (Flag* candidate : table.flags) {
      if (candidate->name == name) flag = candidate;
    }
    if (flag == nullptr) {
      return ParseError{flag_name, std::string(command) +
                                       ": unknown flag --" + flag_name};
    }
    if (flag->given) {
      return ParseError{flag_name,
                        prefix + flag_name + " given more than once"};
    }
    flag->given = true;
    if (const std::string expected = flag->store(value); !expected.empty()) {
      return ParseError{flag_name, "bad value for --" + flag_name + ": '" +
                                       std::string(value.value_or("")) +
                                       "' (expected " + expected + ")"};
    }
  }
  for (const Flag* flag : table.flags) {
    if (flag->given && flag->needs != nullptr && !flag->needs->given) {
      const std::string name(flag->name);
      return ParseError{name, prefix + name + " needs --" +
                                  std::string(flag->needs->name)};
    }
  }
  return std::nullopt;
}

}  // namespace nd::cli
