// Walks every entry of every ndtm flag table. Each value the entry's
// kind must refuse (empty, bare, garbage, negative, 2^64, min-1, max+1,
// an unknown choice, 2 for a 0|1 switch), a repeat, and a dependent flag
// given without the flag it needs must fail to parse with an error
// naming exactly that flag; each default must lie in its own range; and
// each range's edges must parse. A flag added to a table is covered
// without touching this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cli/ndtm_flags.hpp"

namespace nd::cli {
namespace {

template <typename Flags>
class FlagTableWalk : public ::testing::Test {};

using Commands = ::testing::Types<SynthesizeFlags, MeasureFlags,
                                  CollectFlags, BoundsFlags, DimensionFlags>;
TYPED_TEST_SUITE(FlagTableWalk, Commands);

/// A flag's value as typed on the command line; nullopt is the bare
/// `--flag`.
using Word = std::optional<std::string>;

std::vector<std::string> words_for(const Flag& flag, const Word& value) {
  const std::string name = "--" + std::string(flag.name);
  return {value ? name + "=" + *value : name};
}

std::optional<ParseError> parse_words(const Table& table,
                                      const std::vector<std::string>& words) {
  const std::vector<std::string_view> args(words.begin(), words.end());
  return parse("ndtm", table, args);
}

std::string format_real(double value) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

bool has_name(const Choice& choice, std::string_view name) {
  return std::find(choice.names.begin(), choice.names.end(), name) !=
         choice.names.end();
}

/// Values the flag must refuse after `=` or as the next word.
std::vector<std::string> malformed_values(const Flag& flag) {
  std::vector<std::string> bad;
  if (const auto* count = dynamic_cast<const Unsigned*>(&flag)) {
    bad = {"", "abc", "-1", "+1", " 1", "1e3", "0x1", "1.5",
           "18446744073709551616"};
    if (count->min > 0) bad.push_back(std::to_string(count->min - 1));
    if (count->max < std::numeric_limits<std::uint64_t>::max()) {
      bad.push_back(std::to_string(count->max + 1));
    }
  } else if (const auto* real = dynamic_cast<const Real*>(&flag)) {
    // No ndtm quantity is negative: every real refuses -1, whatever its
    // declared range.
    bad = {"", "abc", "nan", "inf", "-inf", "1x", "-1"};
    bad.push_back(format_real(real->min_exclusive
                                  ? real->min
                                  : std::nextafter(real->min, -HUGE_VAL)));
    if (real->max < std::numeric_limits<double>::max()) {
      bad.push_back(format_real(std::nextafter(real->max, HUGE_VAL)));
    }
  } else if (const auto* choice = dynamic_cast<const Choice*>(&flag)) {
    bad = {"no-such-choice", std::string(choice->names.back()) + "x"};
    if (!has_name(*choice, "")) bad.emplace_back("");
  } else if (const auto* text = dynamic_cast<const Text*>(&flag)) {
    if (!text->bare_ok) bad.emplace_back("");
    if (text->check != nullptr) bad.emplace_back("garbage");
  } else {
    ADD_FAILURE() << "--" << flag.name << " is of no kind the walk knows";
  }
  return bad;
}

/// Whether the bare `--flag` is a value the flag takes.
bool takes_bare(const Flag& flag) {
  const auto* choice = dynamic_cast<const Choice*>(&flag);
  const auto* text = dynamic_cast<const Text*>(&flag);
  return (choice != nullptr && has_name(*choice, "")) ||
         (text != nullptr && text->bare_ok);
}

/// Values the flag must take: its range's edges, every choice, and its
/// default.
std::vector<Word> valid_values(const Flag& flag) {
  std::vector<Word> good;
  if (takes_bare(flag)) good.emplace_back(std::nullopt);
  if (const auto* count = dynamic_cast<const Unsigned*>(&flag)) {
    for (const std::uint64_t n : {count->min, count->max, count->number}) {
      good.emplace_back(std::to_string(n));
    }
  } else if (const auto* real = dynamic_cast<const Real*>(&flag)) {
    good.emplace_back(format_real(real->value));
    if (!real->min_exclusive) good.emplace_back(format_real(real->min));
    if (real->max < std::numeric_limits<double>::max()) {
      good.emplace_back(format_real(real->max));
    }
  } else if (const auto* choice = dynamic_cast<const Choice*>(&flag)) {
    for (const std::string_view name : choice->names) {
      if (!name.empty()) good.emplace_back(std::string(name));
    }
  } else if (const auto* text = dynamic_cast<const Text*>(&flag)) {
    if (!text->value.empty()) {
      good.emplace_back(text->value);
    } else if (text->check == nullptr) {
      good.emplace_back("x");
    } else if (flag.name == "connect") {  // vetted, with no default
      good.emplace_back("127.0.0.1:9");
    } else if (flag.name == "fault-plan") {
      good.emplace_back("channel.drop:drop:p=0.5");
    }
  }
  if (good.empty()) ADD_FAILURE() << "--" << flag.name << " has no sample";
  return good;
}

/// The words that give `flag`'s chain of needed flags.
std::vector<std::string> parent_words(const Flag& flag) {
  std::vector<std::string> words;
  for (const Flag* parent = flag.needs; parent != nullptr;
       parent = parent->needs) {
    const auto parent_words = words_for(*parent, valid_values(*parent)[0]);
    words.insert(words.end(), parent_words.begin(), parent_words.end());
  }
  return words;
}

/// True when `message` names `--name` as a whole flag (not as the prefix
/// of a longer one).
bool names_flag(const std::string& message, std::string_view name) {
  const std::string needle = "--" + std::string(name);
  for (auto at = message.find(needle); at != std::string::npos;
       at = message.find(needle, at + 1)) {
    const std::size_t end = at + needle.size();
    if (end == message.size() ||
        (message[end] != '-' &&
         !std::isalnum(static_cast<unsigned char>(message[end])))) {
      return true;
    }
  }
  return false;
}

/// The parse failed on `flag`, in one line that names no other flag of
/// the table but the one `flag` needs.
void expect_rejected(const std::optional<ParseError>& error,
                     const Table& table, const Flag& flag,
                     const std::vector<std::string>& words) {
  std::string input;
  for (const std::string& word : words) input += "'" + word + "' ";
  ASSERT_TRUE(error.has_value()) << input << "was accepted";
  EXPECT_EQ(error->flag, flag.name) << input << ": " << error->message;
  EXPECT_TRUE(names_flag(error->message, flag.name))
      << input << ": " << error->message;
  EXPECT_EQ(error->message.find('\n'), std::string::npos) << error->message;
  for (const Flag* other : table.flags) {
    if (other == &flag || other == flag.needs) continue;
    EXPECT_FALSE(names_flag(error->message, other->name))
        << input << ": " << error->message;
  }
}

TYPED_TEST(FlagTableWalk, EntriesAreWellFormed) {
  TypeParam table;
  std::set<std::string_view> names;
  for (const Flag* flag : table.flags) {
    EXPECT_TRUE(names.insert(flag->name).second) << "--" << flag->name;
    ASSERT_FALSE(flag->name.empty());
    EXPECT_EQ(flag->name.find_first_of("= "), std::string_view::npos);
    EXPECT_NE(flag->name.front(), '-');
    if (flag->needs != nullptr) {
      EXPECT_NE(std::find(table.flags.begin(), table.flags.end(),
                          flag->needs),
                table.flags.end())
          << "--" << flag->name << " needs a flag of another table";
    }
  }
}

TYPED_TEST(FlagTableWalk, DefaultsLieInTheirRanges) {
  TypeParam table;
  for (const Flag* flag : table.flags) {
    SCOPED_TRACE("--" + std::string(flag->name));
    EXPECT_FALSE(flag->given);
    if (const auto* count = dynamic_cast<const Unsigned*>(flag)) {
      EXPECT_LE(count->min, count->number);
      EXPECT_LE(count->number, count->max);
    } else if (const auto* real = dynamic_cast<const Real*>(flag)) {
      EXPECT_TRUE(std::isfinite(real->value));
      EXPECT_TRUE(real->min_exclusive ? real->value > real->min
                                      : real->value >= real->min);
      EXPECT_LE(real->value, real->max);
    } else if (const auto* choice = dynamic_cast<const Choice*>(flag)) {
      EXPECT_TRUE(has_name(*choice, choice->value)) << choice->value;
    } else if (const auto* text = dynamic_cast<const Text*>(flag)) {
      if (!text->value.empty() && text->check != nullptr) {
        EXPECT_EQ(text->check(text->value), "");
      }
    }
  }
}

TYPED_TEST(FlagTableWalk, EveryEntryRefusesMalformedValues) {
  TypeParam defaults;
  const auto entries = defaults.flags;
  for (std::size_t entry = 0; entry < entries.size(); ++entry) {
    std::vector<std::vector<std::string>> inputs;
    for (const std::string& value : malformed_values(*entries[entry])) {
      inputs.push_back(words_for(*entries[entry], value));
      inputs.push_back({"--" + std::string(entries[entry]->name), value});
    }
    if (!takes_bare(*entries[entry])) {
      inputs.push_back(words_for(*entries[entry], std::nullopt));
    }
    for (std::vector<std::string> words : inputs) {
      TypeParam table;
      const Flag& flag = *table.flags[entry];
      const std::vector<std::string> parents = parent_words(flag);
      words.insert(words.begin(), parents.begin(), parents.end());
      expect_rejected(parse_words(table, words), table, flag, words);
    }
  }
}

TYPED_TEST(FlagTableWalk, EveryEntryRefusesARepeat) {
  TypeParam defaults;
  for (std::size_t entry = 0; entry < defaults.flags.size(); ++entry) {
    TypeParam table;
    const Flag& flag = *table.flags[entry];
    std::vector<std::string> words = parent_words(flag);
    for (int copy = 0; copy < 2; ++copy) {
      const auto once = words_for(flag, valid_values(flag)[0]);
      words.insert(words.end(), once.begin(), once.end());
    }
    const auto error = parse_words(table, words);
    expect_rejected(error, table, flag, words);
    if (error) {
      EXPECT_NE(error->message.find("more than once"), std::string::npos);
    }
  }
}

TYPED_TEST(FlagTableWalk, DependentFlagsRefuseToStandAlone) {
  TypeParam defaults;
  for (std::size_t entry = 0; entry < defaults.flags.size(); ++entry) {
    TypeParam table;
    const Flag& flag = *table.flags[entry];
    if (flag.needs == nullptr) continue;
    const auto words = words_for(flag, valid_values(flag)[0]);
    const auto error = parse_words(table, words);
    expect_rejected(error, table, flag, words);
    if (error) {
      EXPECT_TRUE(names_flag(error->message, flag.needs->name));
    }
  }
}

TYPED_TEST(FlagTableWalk, RangeEdgesChoicesAndDefaultsParse) {
  TypeParam defaults;
  const auto entries = defaults.flags;
  for (std::size_t entry = 0; entry < entries.size(); ++entry) {
    for (const Word& value : valid_values(*entries[entry])) {
      TypeParam table;
      const Flag& flag = *table.flags[entry];
      std::vector<std::string> words = parent_words(flag);
      const auto own = words_for(flag, value);
      words.insert(words.end(), own.begin(), own.end());
      const auto error = parse_words(table, words);
      EXPECT_FALSE(error.has_value())
          << words.back() << ": " << (error ? error->message : "");
      EXPECT_TRUE(flag.given);
    }
  }
}

TYPED_TEST(FlagTableWalk, UnknownFlagsAndStrayWordsAreRefused) {
  TypeParam table;
  const auto unknown = parse_words(table, {"--no-such-flag", "1"});
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->flag, "no-such-flag");
  EXPECT_TRUE(names_flag(unknown->message, "no-such-flag"));
  TypeParam fresh;
  const auto stray = parse_words(fresh, {"stray"});
  ASSERT_TRUE(stray.has_value());
  EXPECT_EQ(stray->flag, "");
}

TEST(FlagTable, ValuesLandTyped) {
  MeasureFlags flags;
  ASSERT_FALSE(parse_words(flags, {"--shards", "3", "--adaptive=1",
                                   "--flow-def", "netpair:16", "--metrics",
                                   "--hugepages", "explicit", "--connect",
                                   "host:7", "--net-jitter", "0"})
                   .has_value());
  EXPECT_EQ(*flags.shards, 3U);
  EXPECT_TRUE(*flags.adaptive);
  EXPECT_EQ(*flags.flow_def, "netpair:16");
  EXPECT_TRUE(flags.pipeline.metrics.given);
  EXPECT_EQ(*flags.pipeline.metrics, "metrics.jsonl");  // bare: the default
  EXPECT_EQ(*flags.hugepages, "explicit");
  EXPECT_FALSE(*flags.net_jitter);
  EXPECT_FALSE(flags.threshold.given);
  EXPECT_EQ(*flags.threshold, 100'000U);
  const auto endpoint = parse_endpoint(*flags.connect);
  ASSERT_TRUE(endpoint.has_value());
  EXPECT_EQ(endpoint->host, "host");
  EXPECT_EQ(endpoint->port, 7);
}

}  // namespace
}  // namespace nd::cli
