#include "dedukt/util/cli.hpp"

#include <gtest/gtest.h>

#include "dedukt/util/error.hpp"

namespace dedukt {
namespace {

CliParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliParser(static_cast<int>(argv.size()), argv.data());
}

TEST(CliTest, EqualsForm) {
  auto cli = parse({"--k=17", "--name=ecoli"});
  EXPECT_EQ(cli.get_int("k", 0), 17);
  EXPECT_EQ(cli.get("name"), "ecoli");
}

TEST(CliTest, SpaceSeparatedForm) {
  auto cli = parse({"--k", "21", "--out", "file.txt"});
  EXPECT_EQ(cli.get_int("k", 0), 21);
  EXPECT_EQ(cli.get("out"), "file.txt");
}

TEST(CliTest, BooleanFlagWithoutValue) {
  auto cli = parse({"--verbose", "--k=5"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
}

TEST(CliTest, BooleanExplicitValues) {
  auto cli = parse({"--a=true", "--b=false", "--c=1", "--d=0", "--e=yes",
                    "--f=no"});
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
  EXPECT_TRUE(cli.get_bool("e", false));
  EXPECT_FALSE(cli.get_bool("f", true));
}

TEST(CliTest, FallbacksWhenAbsent) {
  auto cli = parse({});
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("missing", -4), -4);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_TRUE(cli.get_bool("missing", true));
}

TEST(CliTest, PositionalArguments) {
  auto cli = parse({"input.fq", "--k=3", "output.txt"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.fq");
  EXPECT_EQ(cli.positional()[1], "output.txt");
}

TEST(CliTest, MalformedIntegerThrows) {
  auto cli = parse({"--k=abc", "--huge=99999999999999999999"});
  EXPECT_THROW(cli.get_int("k", 0), ParseError);
  // Past 64 bits: strtoll would saturate it to INT64_MAX.
  EXPECT_THROW(cli.get_int("huge", 0), ParseError);
}

TEST(CliTest, MalformedDoubleThrows) {
  auto cli = parse({"--x=1.5z"});
  EXPECT_THROW(cli.get_double("x", 0), ParseError);
}

TEST(CliTest, MalformedBoolThrows) {
  auto cli = parse({"--flag=maybe"});
  EXPECT_THROW(cli.get_bool("flag", false), ParseError);
}

TEST(CliTest, DoubleValues) {
  auto cli = parse({"--coverage=30.5"});
  EXPECT_DOUBLE_EQ(cli.get_double("coverage", 0), 30.5);
}

TEST(CliTest, ProgramName) {
  auto cli = parse({});
  EXPECT_EQ(cli.program(), "prog");
}

TEST(CliTest, NegativeIntegerValue) {
  auto cli = parse({"--offset=-12"});
  EXPECT_EQ(cli.get_int("offset", 0), -12);
  EXPECT_EQ(cli.get_int_as<int>("offset", 0), -12);
}

TEST(CliTest, UnsignedValuesRejectNegativeAndOversized) {
  auto cli = parse({"--rows=25", "--neg=-1", "--big=4294967296",
                    "--max=4294967295", "--bad=1x"});
  EXPECT_EQ(cli.get_uint<std::size_t>("rows", 0), 25u);
  EXPECT_EQ(cli.get_uint<std::uint32_t>("missing", 7u), 7u);
  EXPECT_EQ(cli.get_uint<std::uint32_t>("max", 0u), 4294967295u);
  EXPECT_EQ(cli.get_uint<std::uint64_t>("big", 0), 4294967296u);
  EXPECT_THROW((void)cli.get_uint<std::uint64_t>("neg", 0), ParseError);
  EXPECT_THROW((void)cli.get_uint<std::uint32_t>("big", 0u), ParseError);
  EXPECT_THROW((void)cli.get_uint<std::uint32_t>("bad", 0u), ParseError);
}

TEST(CliTest, UnknownFlagsAreTheOnesOutsideTheKnownSet) {
  auto cli = parse({"--k=17", "--verbose", "--typo=3", "input.fq"});
  EXPECT_EQ(cli.unknown_flags({"k", "verbose", "typo"}),
            std::vector<std::string>{});
  EXPECT_EQ(cli.unknown_flags({"k", "verbose"}),
            std::vector<std::string>{"typo"});
  EXPECT_EQ(cli.unknown_flags({}),
            (std::vector<std::string>{"k", "typo", "verbose"}));
}

}  // namespace
}  // namespace dedukt
