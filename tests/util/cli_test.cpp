#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace linkpad::util {
namespace {

ArgParser make_parser() {
  ArgParser p("prog", "test parser");
  p.add_flag("--quick", "fast mode");
  p.add_num("--sigma", 1.5, "a number");
  p.add_int("--count", 42, "an integer");
  p.add_option("--name", "default", "a string");
  return p;
}

bool parse(ArgParser& p, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, DefaultsApplyWithoutArguments) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_FALSE(p.flag("--quick"));
  EXPECT_DOUBLE_EQ(p.num("--sigma"), 1.5);
  EXPECT_EQ(p.integer("--count"), 42);
  EXPECT_EQ(p.str("--name"), "default");
}

TEST(ArgParser, ParsesSpaceSeparatedValues) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--sigma", "2.75", "--name", "abc"}));
  EXPECT_DOUBLE_EQ(p.num("--sigma"), 2.75);
  EXPECT_EQ(p.str("--name"), "abc");
}

TEST(ArgParser, ParsesEqualsSyntax) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--count=7"}));
  EXPECT_EQ(p.integer("--count"), 7);
}

TEST(ArgParser, FlagPresenceSetsTrue) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--quick"}));
  EXPECT_TRUE(p.flag("--quick"));
}

TEST(ArgParser, RejectsUnknownArgument) {
  auto p = make_parser();
  EXPECT_FALSE(parse(p, {"--bogus"}));
}

TEST(ArgParser, RejectsMissingValue) {
  auto p = make_parser();
  EXPECT_FALSE(parse(p, {"--sigma"}));
}

TEST(ArgParser, RejectsValueOnFlag) {
  auto p = make_parser();
  EXPECT_FALSE(parse(p, {"--quick=yes"}));
}

TEST(ArgParser, HelpReturnsFalse) {
  auto p = make_parser();
  EXPECT_FALSE(parse(p, {"--help"}));
}

TEST(ArgParser, NonNumericValueThrowsOnAccess) {
  // A free-form string option is never read as a number, whatever it holds.
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {"--name", "abc"}));
  EXPECT_THROW((void)p.num("--name"), std::invalid_argument);
  EXPECT_THROW((void)p.integer("--name"), std::invalid_argument);
}

TEST(ArgParser, UndeclaredOptionAccessThrows) {
  auto p = make_parser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_THROW((void)p.str("--nope"), std::invalid_argument);
}

TEST(ArgParser, HelpTextMentionsAllOptions) {
  auto p = make_parser();
  const auto text = p.help();
  EXPECT_NE(text.find("--quick"), std::string::npos);
  EXPECT_NE(text.find("--sigma"), std::string::npos);
  EXPECT_NE(text.find("--count"), std::string::npos);
}

ArgParser make_typed_parser() {
  ArgParser p("prog", "typed test parser");
  p.add_int("--count", 42, "an integer");
  p.add_num("--sigma", 1.5, "a number");
  return p;
}

TEST(ArgParserTyped, TypedDefaultsApplyAndParse) {
  auto p = make_typed_parser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.integer("--count"), 42);
  EXPECT_DOUBLE_EQ(p.num("--sigma"), 1.5);
  ASSERT_TRUE(parse(p, {"--count", "-7", "--sigma=2.75"}));
  EXPECT_EQ(p.integer("--count"), -7);
  EXPECT_DOUBLE_EQ(p.num("--sigma"), 2.75);
}

TEST(ArgParserTyped, BadValuesFailAtParseTimeNotOnAccess) {
  // Typed options reject the bad token while argv is being consumed —
  // the run never starts with a typo'd parameter.
  auto p = make_typed_parser();
  EXPECT_FALSE(parse(p, {"--count", "abc"}));
  auto q = make_typed_parser();
  EXPECT_FALSE(parse(q, {"--count", "12x"}));
  auto r = make_typed_parser();
  EXPECT_FALSE(parse(r, {"--sigma=fast"}));
  // A float is not an integer.
  auto s = make_typed_parser();
  EXPECT_FALSE(parse(s, {"--count", "1.5"}));
  // But an integer is a fine number, and scientific notation parses.
  auto t = make_typed_parser();
  EXPECT_TRUE(parse(t, {"--sigma", "3"}));
  EXPECT_DOUBLE_EQ(t.num("--sigma"), 3.0);
  auto u = make_typed_parser();
  EXPECT_TRUE(parse(u, {"--sigma", "1e-3"}));
  EXPECT_DOUBLE_EQ(u.num("--sigma"), 1e-3);
}

TEST(ArgParserTyped, HelpShowsTypedDefaults) {
  const auto text = make_typed_parser().help();
  EXPECT_NE(text.find("<int = 42>"), std::string::npos);
  EXPECT_NE(text.find("<num = 1.5>"), std::string::npos);
}

TEST(ArgParserTyped, AccessorRejectsOptionOfAnotherKind) {
  // Each typed accessor reads only its own kind: there is no string-parsing
  // fallback, so reading an int as a count (or a count as a number) is a
  // programming error even when the text would parse.
  ArgParser p("prog", "typed test parser");
  p.add_int("--offset", -3, "an integer");
  p.add_count("--windows", 8, "a count");
  p.add_num("--sigma", 2.0, "a number");
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.count("--windows"), 8u);
  EXPECT_THROW((void)p.count("--offset"), std::invalid_argument);
  EXPECT_THROW((void)p.num("--windows"), std::invalid_argument);
  EXPECT_THROW((void)p.integer("--sigma"), std::invalid_argument);
  EXPECT_THROW((void)p.count("--nope"), std::invalid_argument);
}

TEST(ArgParserTyped, NegativeCountFailsAtParseTime) {
  auto make = [] {
    ArgParser p("prog", "count parser");
    p.add_count("--flows", 100, "a count");
    return p;
  };
  auto p = make();
  EXPECT_FALSE(parse(p, {"--flows", "-3"}));
  auto q = make();
  EXPECT_FALSE(parse(q, {"--flows=2.5"}));
  auto r = make();
  ASSERT_TRUE(parse(r, {"--flows", "0"}));
  EXPECT_EQ(r.count("--flows"), 0u);
  EXPECT_NE(make().help().find("<count = 100>"), std::string::npos);
}

TEST(ArgParserTyped, ValueOutsideItsDeclaredRangeFailsAtParseTime) {
  auto make = [] {
    ArgParser p("prog", "range parser");
    p.add_count("--windows", 8, "a count", 2);
    p.add_num("--effort", 1.0, "a number", {.lo = 0.0, .open = true});
    p.add_num("--sigma", 0.0, "a number", {.lo = 0.0});
    return p;
  };
  for (const auto& bad : std::vector<std::vector<const char*>>{
           {"--windows", "1"},
           {"--effort", "0"},
           {"--effort", "-1"},
           {"--effort", "nan"},
           {"--sigma", "-1e-9"}}) {
    auto p = make();
    EXPECT_FALSE(parse(p, bad)) << bad[0] << " " << bad[1];
  }
  auto p = make();
  ASSERT_TRUE(parse(p, {"--windows", "2", "--effort", "1e-3", "--sigma", "0"}));
  EXPECT_EQ(p.count("--windows"), 2u);
  EXPECT_DOUBLE_EQ(p.num("--effort"), 1e-3);
  EXPECT_DOUBLE_EQ(p.num("--sigma"), 0.0);
}

TEST(ArgParserTyped, ChoiceOutsideItsListFailsAtParseTime) {
  auto make = [] {
    ArgParser p("prog", "choice parser");
    p.add_choice("--backend", "sim", {"sim", "live"}, "a choice");
    return p;
  };
  auto p = make();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.str("--backend"), "sim");
  auto q = make();
  ASSERT_TRUE(parse(q, {"--backend=live"}));
  EXPECT_EQ(q.str("--backend"), "live");
  auto r = make();
  EXPECT_FALSE(parse(r, {"--backend", "udp"}));
  EXPECT_NE(make().help().find("<sim|live = sim>"), std::string::npos);
}

}  // namespace
}  // namespace linkpad::util
