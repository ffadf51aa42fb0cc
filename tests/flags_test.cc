// The declared-flag parser every tool and bench harness shares: what it
// accepts, what it rejects (always naming the flag), and the effective
// values a RunReport records.

#include "common/flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/report.h"

namespace udm {
namespace {

constexpr FlagSpec kSpecs[] = {
    {"dataset", FlagKind::kText, kRequired, "dataset name"},
    {"n", FlagKind::kCount, "5000", "rows"},
    {"f", FlagKind::kReal, "1.2", "error level"},
    {"out", FlagKind::kText, nullptr, "output path"},
    {"smoke", FlagKind::kSwitch, nullptr, "tiny run"},
};

Result<FlagValues> Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  return ParseFlags(kSpecs, static_cast<int>(args.size()), args.data());
}

/// Asserts `args` fail to parse with a message naming `flag`.
void ExpectRejected(std::vector<const char*> args, const std::string& flag) {
  const Result<FlagValues> values = Parse(args);
  ASSERT_FALSE(values.ok()) << "accepted " << flag;
  EXPECT_EQ(values.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(values.status().message().find(flag), std::string::npos)
      << values.status().message();
}

TEST(FlagsTest, DefaultsAndGivenValues) {
  const Result<FlagValues> defaults = Parse({"--dataset", "adult"});
  ASSERT_TRUE(defaults.ok()) << defaults.status().ToString();
  EXPECT_EQ(defaults->Text("dataset"), "adult");
  EXPECT_EQ(defaults->Size("n"), 5000u);
  EXPECT_EQ(defaults->Real("f"), 1.2);
  EXPECT_FALSE(defaults->Has("n"));
  EXPECT_FALSE(defaults->Has("smoke"));
  EXPECT_FALSE(defaults->help());

  const Result<FlagValues> given =
      Parse({"--n", "0", "--dataset", "forest", "--f", "-0.5", "--smoke"});
  ASSERT_TRUE(given.ok()) << given.status().ToString();
  EXPECT_EQ(given->Size("n"), 0u);
  EXPECT_TRUE(given->Has("n"));
  EXPECT_EQ(given->Real("f"), -0.5);
  EXPECT_TRUE(given->Has("smoke"));
}

TEST(FlagsTest, RealAcceptsFixedPointText) {
  // serve_loadgen passes std::to_string(double) values to udm_serve.
  const Result<FlagValues> values =
      Parse({"--dataset", "adult", "--f", "150.000000"});
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  EXPECT_EQ(values->Real("f"), 150.0);
}

TEST(FlagsTest, OptionalFlagAbsentVersusPresent) {
  const Result<FlagValues> absent = Parse({"--dataset", "adult"});
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(absent->Has("out"));
  EXPECT_EQ(absent->Text("out"), "");

  const Result<FlagValues> present =
      Parse({"--dataset", "adult", "--out", "g.csv"});
  ASSERT_TRUE(present.ok());
  EXPECT_TRUE(present->Has("out"));
  EXPECT_EQ(present->Text("out"), "g.csv");
}

TEST(FlagsTest, RejectsUnknownFlag) {
  ExpectRejected({"--dataset", "adult", "--seeed", "3"}, "--seeed");
  // The `--name=value` form is not accepted.
  ExpectRejected({"--dataset", "adult", "--out=g.csv"}, "--out=g.csv");
}

TEST(FlagsTest, RejectsMissingTrailingValue) {
  ExpectRejected({"--dataset", "adult", "--n"}, "--n");
}

TEST(FlagsTest, RejectsValueAfterSwitch) {
  ExpectRejected({"--dataset", "adult", "--smoke", "1"}, "got '1'");
}

TEST(FlagsTest, RejectsBareValue) {
  ExpectRejected({"adult"}, "adult");
}

TEST(FlagsTest, CountRejectsNonCounts) {
  for (const char* bad : {"-1", "1e3", "abc", "", "5000.0", " 5", "+5"}) {
    ExpectRejected({"--dataset", "adult", "--n", bad}, "--n");
  }
}

TEST(FlagsTest, RealRejectsNonFinite) {
  for (const char* bad : {"nan", "inf", "-inf", "1e400", "abc", ""}) {
    ExpectRejected({"--dataset", "adult", "--f", bad}, "--f");
  }
}

TEST(FlagsTest, RejectsMissingRequiredFlag) {
  ExpectRejected({"--n", "10"}, "--dataset");
}

TEST(FlagsTest, RejectsDuplicateFlag) {
  ExpectRejected({"--dataset", "adult", "--n", "1", "--n", "2"}, "--n");
  ExpectRejected({"--dataset", "adult", "--smoke", "--smoke"}, "--smoke");
}

TEST(FlagsTest, HelpSkipsValidation) {
  const Result<FlagValues> values = Parse({"--help"});
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  EXPECT_TRUE(values->help());
}

TEST(FlagsTest, ParsesFromGivenIndex) {
  const char* argv[] = {"udm_cli", "generate", "--dataset", "adult"};
  const Result<FlagValues> values = ParseFlags(kSpecs, 4, argv, 2);
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  EXPECT_EQ(values->Text("dataset"), "adult");
}

TEST(FlagsTest, UsageListsEveryFlag) {
  const std::string usage = FormatUsage("tool", kSpecs);
  EXPECT_EQ(usage,
            "usage: tool [--flag value ...]\n"
            "  --dataset <text>  required  dataset name\n"
            "  --n <count>       5000      rows\n"
            "  --f <real>        1.2       error level\n"
            "  --out <text>      -         output path\n"
            "  --smoke           -         tiny run\n");
}

TEST(FlagsTest, ReportRecordsEffectiveValues) {
  const Result<FlagValues> values = Parse({"--dataset", "adult", "--f", "2"});
  ASSERT_TRUE(values.ok());
  obs::RunReport report("flags_test");
  report.SetConfig(*values);
  const Result<obs::JsonValue> json = obs::JsonValue::Parse(report.ToJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const obs::JsonValue* config = json->Find("config");
  ASSERT_NE(config, nullptr);
  ASSERT_NE(config->Find("dataset"), nullptr);
  EXPECT_EQ(config->Find("dataset")->string(), "adult");
  ASSERT_NE(config->Find("n"), nullptr);  // the default, not given
  EXPECT_EQ(config->Find("n")->number(), 5000.0);
  ASSERT_NE(config->Find("f"), nullptr);
  EXPECT_EQ(config->Find("f")->number(), 2.0);
  ASSERT_NE(config->Find("smoke"), nullptr);
  EXPECT_EQ(config->Find("smoke")->string(), "false");
  EXPECT_EQ(config->Find("out"), nullptr);  // absent, no default
}

}  // namespace
}  // namespace udm
