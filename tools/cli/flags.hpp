// Declarative command-line flags. A subcommand's flag table is a struct
// deriving from Table whose members are its flags: each member's
// declaration gives the flag's name, kind, default and range or choices,
// and the flag it needs alongside, and registers it with the table. One
// parser checks a whole command line against the table before the
// command runs, so a command body reads only typed, checked values.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nd::cli {

/// A plain unsigned decimal: digits only (no sign, space, base prefix or
/// exponent) and no overflow. nullopt for anything else.
[[nodiscard]] std::optional<std::uint64_t> parse_decimal(
    std::string_view text);

class Flag;

/// A subcommand's flags, in declaration order.
struct Table {
  Table() = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  std::vector<Flag*> flags;
};

/// Where a flag registers: its table, its name (without the leading
/// "--") and the flag it needs alongside, if any.
struct Entry {
  Table* table;
  std::string_view name;
  const Flag* needs = nullptr;
};

/// One flag, registered with its table on construction; `given` records
/// whether the command line named it.
class Flag {
 public:
  explicit Flag(Entry entry)
      : name(entry.name), needs(entry.needs) {
    entry.table->flags.push_back(this);
  }
  Flag(const Flag&) = delete;
  Flag& operator=(const Flag&) = delete;
  virtual ~Flag() = default;

  /// Stores a value (nullopt: the flag was given bare); returns what was
  /// expected when the value does not fit, "" once it is stored.
  virtual std::string store(std::optional<std::string_view> text) = 0;

  const std::string_view name;
  const Flag* const needs;
  bool given = false;
};

/// A plain decimal in [min, max]; Count<T> reads it back as T.
class Unsigned : public Flag {
 public:
  Unsigned(Entry entry, std::uint64_t initial, std::uint64_t lo,
           std::uint64_t hi)
      : Flag(entry), min(lo), max(hi), number(initial) {}
  std::string store(std::optional<std::string_view> text) override;

  const std::uint64_t min;
  const std::uint64_t max;
  std::uint64_t number;
};

/// An Unsigned stored as T. T's range caps `max`, so a value never
/// wraps in the cast back; Count<bool> is a 0|1 switch.
template <typename T>
class Count : public Unsigned {
 public:
  Count(Entry entry, T initial, std::uint64_t lo = 0,
        std::uint64_t hi = std::numeric_limits<T>::max())
      : Unsigned(entry, initial, lo,
                 std::min<std::uint64_t>(hi, std::numeric_limits<T>::max())) {}
  [[nodiscard]] T operator*() const { return static_cast<T>(number); }
};

/// A number that parses whole with strtod and is finite, in [min, max]
/// — (min, max] when `min_exclusive`.
class Real : public Flag {
 public:
  Real(Entry entry, double initial,
       double lo = std::numeric_limits<double>::lowest(),
       bool lo_exclusive = false,
       double hi = std::numeric_limits<double>::max())
      : Flag(entry), min(lo), min_exclusive(lo_exclusive), max(hi),
        value(initial) {}
  std::string store(std::optional<std::string_view> text) override;
  [[nodiscard]] double operator*() const { return value; }

  const double min;
  const bool min_exclusive;
  const double max;
  double value;
};

/// One of a fixed set of names; an empty name admits the bare flag.
class Choice : public Flag {
 public:
  Choice(Entry entry, std::string initial,
         std::vector<std::string_view> choices)
      : Flag(entry), names(std::move(choices)), value(std::move(initial)) {}
  std::string store(std::optional<std::string_view> text) override;
  [[nodiscard]] const std::string& operator*() const { return value; }

  const std::vector<std::string_view> names;
  std::string value;
};

/// A non-empty string (a path, say). With `bare_ok`, the bare flag (or
/// an empty value) is given but keeps the default. `check`, when set,
/// vets a value further: it returns what was expected for a value it
/// rejects, "" otherwise.
class Text : public Flag {
 public:
  using Check = std::string (*)(std::string_view);
  Text(Entry entry, std::string initial = "", Check vet = nullptr,
       bool bare = false)
      : Flag(entry), check(vet), bare_ok(bare), value(std::move(initial)) {}
  std::string store(std::optional<std::string_view> text) override;
  [[nodiscard]] const std::string& operator*() const { return value; }
  const std::string* operator->() const { return &value; }

  const Check check;
  const bool bare_ok;
  std::string value;
};

/// A rejected command line: the flag at fault (empty for a word that is
/// no flag at all) and the one-line message to print before exiting 2.
struct ParseError {
  std::string flag;
  std::string message;
};

/// Checks `args` (the words after the subcommand) against `table` and
/// stores every value. Rejects, naming the flag: an unknown or repeated
/// flag, a value that does not fit the flag's kind and range (a bare
/// valued flag included), and a flag given without the flag it needs.
[[nodiscard]] std::optional<ParseError> parse(
    std::string_view command, const Table& table,
    std::span<const std::string_view> args);

}  // namespace nd::cli
