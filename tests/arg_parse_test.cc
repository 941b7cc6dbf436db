#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arg_parse.h"

// Tests for the shared CLI flag parser (tools/arg_parse.h) used by
// qimap_cli, telemetry_check, and bench_report: both --key value and
// --key=value forms, boolean and multi-value flags, ordered occurrence
// tracking, and strict error reporting for every malformed shape.

namespace qimap {
namespace tools {
namespace {

// argv helper: parses `words` (as argv[1..]) against `spec`.
bool Parse(std::vector<std::string> words, const ArgSpec& spec,
           ParsedArgs* out, std::string* error) {
  std::vector<char*> argv;
  std::string program = "test";
  argv.push_back(program.data());
  for (std::string& word : words) argv.push_back(word.data());
  return ParseArgs(static_cast<int>(argv.size()), argv.data(), 1, spec,
                   out, error);
}

ArgSpec BasicSpec() {
  ArgSpec spec;
  spec.value_flags = {"source", "threads"};
  spec.bool_flags = {"verbose"};
  return spec;
}

TEST(ArgParseTest, ParsesValueAndBoolFlagsInBothForms) {
  ParsedArgs args;
  std::string error;
  ASSERT_TRUE(Parse({"--source", "P/2", "--threads=4", "--verbose"},
                    BasicSpec(), &args, &error))
      << error;
  EXPECT_STREQ(args.Get("source"), "P/2");
  EXPECT_STREQ(args.Get("threads"), "4");
  EXPECT_TRUE(args.Has("verbose"));
  EXPECT_FALSE(args.Has("absent"));
  EXPECT_STREQ(args.Get("absent", "fallback"), "fallback");
  ASSERT_EQ(args.occurrences.size(), 3u);
  EXPECT_EQ(args.occurrences[0].flag, "source");
  EXPECT_EQ(args.occurrences[2].flag, "verbose");
  EXPECT_TRUE(args.occurrences[2].values.empty());
}

TEST(ArgParseTest, LastValueWinsButOccurrencesKeepBoth) {
  ParsedArgs args;
  std::string error;
  ASSERT_TRUE(Parse({"--source", "A", "--source", "B"}, BasicSpec(), &args,
                    &error));
  EXPECT_STREQ(args.Get("source"), "B");
  ASSERT_EQ(args.occurrences.size(), 2u);
  EXPECT_EQ(args.occurrences[0].values[0], "A");
  EXPECT_EQ(args.occurrences[1].values[0], "B");
}

TEST(ArgParseTest, UnknownFlagIsAnError) {
  ParsedArgs args;
  std::string error;
  EXPECT_FALSE(Parse({"--nope", "x"}, BasicSpec(), &args, &error));
  EXPECT_EQ(error, "unknown flag '--nope'");
}

TEST(ArgParseTest, MissingValueIsAnError) {
  ParsedArgs args;
  std::string error;
  EXPECT_FALSE(Parse({"--source"}, BasicSpec(), &args, &error));
  EXPECT_EQ(error, "--source requires a value");
}

TEST(ArgParseTest, BoolFlagWithInlineValueIsAnError) {
  ParsedArgs args;
  std::string error;
  EXPECT_FALSE(Parse({"--verbose=1"}, BasicSpec(), &args, &error));
  EXPECT_EQ(error, "--verbose takes no value");
}

TEST(ArgParseTest, StrayPositionalIsAnErrorUnlessAllowed) {
  ParsedArgs args;
  std::string error;
  EXPECT_FALSE(Parse({"stray"}, BasicSpec(), &args, &error));
  EXPECT_EQ(error, "unexpected argument 'stray' (flags start with --)");

  ArgSpec spec = BasicSpec();
  spec.allow_positionals = true;
  ParsedArgs with_positionals;
  ASSERT_TRUE(Parse({"a.json", "--verbose", "b.json"}, spec,
                    &with_positionals, &error));
  ASSERT_EQ(with_positionals.positionals.size(), 2u);
  EXPECT_EQ(with_positionals.positionals[0], "a.json");
  EXPECT_EQ(with_positionals.positionals[1], "b.json");
  EXPECT_TRUE(with_positionals.Has("verbose"));
}

TEST(ArgParseTest, MultiValueFlagConsumesItsArityAndRepeats) {
  ArgSpec spec;
  spec.multi_value_flags["check"] = 1;
  spec.multi_value_flags["compare"] = 2;
  ParsedArgs args;
  std::string error;
  ASSERT_TRUE(Parse({"--check", "a", "--compare", "x", "y", "--check", "b"},
                    spec, &args, &error))
      << error;
  ASSERT_EQ(args.occurrences.size(), 3u);
  EXPECT_EQ(args.occurrences[0].flag, "check");
  EXPECT_EQ(args.occurrences[0].values, std::vector<std::string>{"a"});
  EXPECT_EQ(args.occurrences[1].flag, "compare");
  ASSERT_EQ(args.occurrences[1].values.size(), 2u);
  EXPECT_EQ(args.occurrences[1].values[0], "x");
  EXPECT_EQ(args.occurrences[1].values[1], "y");
  EXPECT_EQ(args.occurrences[2].values, std::vector<std::string>{"b"});

  // Arity violations are errors, not silent truncation.
  ParsedArgs missing;
  EXPECT_FALSE(Parse({"--compare", "only-one"}, spec, &missing, &error));
  EXPECT_EQ(error, "--compare requires 2 values");
  ParsedArgs inline_form;
  EXPECT_FALSE(Parse({"--compare=x"}, spec, &inline_form, &error));
  EXPECT_NE(error.find("does not accept"), std::string::npos);
  // Arity-1 multi flags do accept the inline form.
  ParsedArgs inline_ok;
  ASSERT_TRUE(Parse({"--check=c"}, spec, &inline_ok, &error));
  EXPECT_EQ(inline_ok.occurrences[0].values[0], "c");
}

TEST(ArgParseTest, ParseUint64IsStrict) {
  uint64_t value = 77;
  EXPECT_TRUE(ParseUint64("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseUint64("123456789012345", &value));
  EXPECT_EQ(value, 123456789012345u);
  EXPECT_FALSE(ParseUint64("18446744073709551616", &value));
  EXPECT_FALSE(ParseUint64("", &value));
  EXPECT_FALSE(ParseUint64("12x", &value));
  EXPECT_FALSE(ParseUint64("x12", &value));
  EXPECT_FALSE(ParseUint64("-3", &value));
  EXPECT_FALSE(ParseUint64("+3", &value));
  EXPECT_FALSE(ParseUint64("1.5", &value));
  EXPECT_FALSE(ParseUint64(nullptr, &value));
}

TEST(ArgParseTest, ParseNonNegativeDoubleIsStrict) {
  double value = 1.0;
  EXPECT_TRUE(ParseNonNegativeDouble("0.5", &value));
  EXPECT_DOUBLE_EQ(value, 0.5);
  EXPECT_TRUE(ParseNonNegativeDouble("0", &value));
  EXPECT_DOUBLE_EQ(value, 0.0);
  EXPECT_FALSE(ParseNonNegativeDouble("-0.5", &value));
  EXPECT_FALSE(ParseNonNegativeDouble("abc", &value));
  EXPECT_FALSE(ParseNonNegativeDouble("1.5x", &value));
  EXPECT_FALSE(ParseNonNegativeDouble("", &value));
  EXPECT_FALSE(ParseNonNegativeDouble(nullptr, &value));
}

TEST(ArgParseTest, EmptyInlineValueIsKept) {
  // --key= is an explicit empty value, not a parse error: the tool
  // decides whether empty is meaningful (e.g. clearing a path).
  ParsedArgs args;
  std::string error;
  ASSERT_TRUE(Parse({"--source="}, BasicSpec(), &args, &error));
  EXPECT_STREQ(args.Get("source"), "");
}

}  // namespace
}  // namespace tools
}  // namespace qimap
