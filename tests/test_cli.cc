/**
 * @file
 * The declarative argv parser: value forms, switches, positionals,
 * strict numbers, range edges, repeats, aliases and the usage text.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "src/common/cli.hh"

namespace pmill {
namespace {

/** A small table with one row of every target kind. */
struct Fixture {
    bool verbose = false;
    std::string path;
    std::uint32_t cores = 1;
    double freq = 2.3, step = 0.0;
    std::string model;

    CliSpec spec{"prog", {"<in>"}, {
        {"--verbose", "", "talk more", &verbose, "-v"},
        {"--path", "PATH", "where to write", &path},
        {"--cores", "N", "cores", CliFlag::U32{&cores, 1, 64}, "-c"},
        {"--freq", "GHZ", "frequency",
         CliFlag::Double{.out = &freq, .lo = 0, .hi = 10, .lo_open = true}},
        {"--step", "US", "step time", CliFlag::Double{.out = &step, .lo = 0,
                                                      .hi = 1e9}},
        {"--model", "M", "model", CliFlag::Choice{&model, {"copying",
                                                           "xchange"}}},
    }};

    CliResult parse(std::initializer_list<const char *> args)
    {
        std::vector<const char *> argv{"prog"};
        argv.insert(argv.end(), args);
        return cli_parse(spec, static_cast<int>(argv.size()), argv.data());
    }
};

TEST(Cli, BothValueForms)
{
    Fixture f;
    const CliResult r = f.parse({"in.txt", "--cores", "4", "--freq=1.5",
                                 "--path=a=b", "--model", "xchange"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_FALSE(r.help);
    EXPECT_EQ(r.positionals, std::vector<std::string>{"in.txt"});
    EXPECT_EQ(f.cores, 4u);
    EXPECT_EQ(f.freq, 1.5);
    EXPECT_EQ(f.path, "a=b");
    EXPECT_EQ(f.model, "xchange");
}

TEST(Cli, ValueFormsMayBeEmptyOrLookLikeFlags)
{
    Fixture f;
    ASSERT_TRUE(f.parse({"in", "--path", "--cores"}).ok());
    EXPECT_EQ(f.path, "--cores");
    EXPECT_EQ(f.cores, 1u);
    ASSERT_TRUE(f.parse({"in", "--path="}).ok());
    EXPECT_EQ(f.path, "");
}

TEST(Cli, SwitchesTakeNoValue)
{
    Fixture f;
    ASSERT_TRUE(f.parse({"in", "--verbose"}).ok());
    EXPECT_TRUE(f.verbose);
    const CliResult r = f.parse({"in", "--verbose=1"});
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("--verbose takes no value"), std::string::npos)
        << r.error;
    EXPECT_FALSE(f.parse({"in", "-v=yes"}).ok());
}

TEST(Cli, MissingValueAndUnknownFlag)
{
    Fixture f;
    CliResult r = f.parse({"in", "--cores"});
    EXPECT_EQ(r.error, "--cores needs a value (N)");
    r = f.parse({"in", "--corez", "4"});
    EXPECT_EQ(r.error, "unknown flag '--corez'");
    r = f.parse({"in", "--corez=4"});
    EXPECT_EQ(r.error, "unknown flag '--corez'");
    r = f.parse({"in", "-x"});
    EXPECT_EQ(r.error, "unknown flag '-x'");
    r = f.parse({"in", "--"});
    EXPECT_EQ(r.error, "unknown flag '--'");
}

TEST(Cli, PositionalCountMustMatch)
{
    Fixture f;
    EXPECT_EQ(f.parse({}).error, "missing <in>");
    EXPECT_EQ(f.parse({"--cores", "2"}).error, "missing <in>");
    EXPECT_EQ(f.parse({"a", "b"}).error, "unexpected argument 'b'");
    // A lone dash is a positional (stdin), wherever it stands.
    const CliResult r = f.parse({"--cores", "2", "-"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.positionals, std::vector<std::string>{"-"});
}

TEST(Cli, NumbersAreStrict)
{
    for (const char *bad : {"5x", "abc", "", "inf", "-inf", "nan", "1e999",
                            " 2", "2 ", "0x", "--1", "1.5.2"}) {
        Fixture f;
        const CliResult r = f.parse({"in", "--freq", bad});
        EXPECT_FALSE(r.ok()) << "'" << bad << "' accepted";
        EXPECT_EQ(r.error, std::string("--freq expects a number in (0, 10], "
                                       "got '") + bad + "'");
        EXPECT_EQ(f.freq, 2.3);
    }
    for (const char *bad : {"5x", "abc", "", "inf", "nan", "1e999", "2.0",
                            "-1", "-0", " 4", "4294967300"}) {
        Fixture f;
        const CliResult r = f.parse({"in", "--cores", bad});
        EXPECT_FALSE(r.ok()) << "'" << bad << "' accepted";
        EXPECT_EQ(r.error, std::string("--cores expects an integer in "
                                       "[1, 64], got '") + bad + "'");
        EXPECT_EQ(f.cores, 1u);
    }
    Fixture f;
    ASSERT_TRUE(f.parse({"in", "--freq", "1e-1", "--cores", "+8"}).ok());
    EXPECT_EQ(f.freq, 0.1);
    EXPECT_EQ(f.cores, 8u);
}

TEST(Cli, RangeEdges)
{
    Fixture f;
    // Inclusive edges on both sides.
    EXPECT_TRUE(f.parse({"in", "--cores", "1"}).ok());
    EXPECT_TRUE(f.parse({"in", "--cores", "64"}).ok());
    EXPECT_FALSE(f.parse({"in", "--cores", "0"}).ok());
    EXPECT_FALSE(f.parse({"in", "--cores", "65"}).ok());
    EXPECT_TRUE(f.parse({"in", "--step", "0"}).ok());
    EXPECT_TRUE(f.parse({"in", "--step", "1e9"}).ok());
    EXPECT_FALSE(f.parse({"in", "--step", "-0.001"}).ok());
    EXPECT_FALSE(f.parse({"in", "--step", "1000000001"}).ok());
    // Exclusive lower edge, inclusive upper edge.
    EXPECT_FALSE(f.parse({"in", "--freq", "0"}).ok());
    EXPECT_FALSE(f.parse({"in", "--freq", "-0"}).ok());
    EXPECT_TRUE(f.parse({"in", "--freq", "1e-300"}).ok());
    EXPECT_TRUE(f.parse({"in", "--freq", "10"}).ok());
    EXPECT_FALSE(f.parse({"in", "--freq", "10.000001"}).ok());
    EXPECT_EQ(f.freq, 10.0);
}

TEST(Cli, UnboundedRangesStillNeedFiniteNumbers)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double pct = -1;
    const CliSpec spec{"prog", {}, {
        {"--pct", "PCT", "any", CliFlag::Double{.out = &pct, .lo = -kInf,
                                                .hi = kInf}},
    }};
    const char *ok[] = {"prog", "--pct", "-1e300"};
    ASSERT_TRUE(cli_parse(spec, 3, ok).ok());
    EXPECT_EQ(pct, -1e300);
    const char *bad[] = {"prog", "--pct", "inf"};
    EXPECT_EQ(cli_parse(spec, 3, bad).error,
              "--pct expects a finite number, got 'inf'");
}

TEST(Cli, ChoicesAreExact)
{
    Fixture f;
    ASSERT_TRUE(f.parse({"in", "--model=copying"}).ok());
    EXPECT_EQ(f.model, "copying");
    EXPECT_EQ(f.parse({"in", "--model", "Copying"}).error,
              "--model expects one of copying|xchange, got 'Copying'");
    EXPECT_FALSE(f.parse({"in", "--model", ""}).ok());
    EXPECT_EQ(f.model, "copying");
}

TEST(Cli, LastRepeatWins)
{
    Fixture f;
    ASSERT_TRUE(f.parse({"in", "--cores", "2", "--cores=8", "--model",
                         "xchange", "--model", "copying"})
                    .ok());
    EXPECT_EQ(f.cores, 8u);
    EXPECT_EQ(f.model, "copying");
}

TEST(Cli, ShortAliases)
{
    Fixture f;
    ASSERT_TRUE(f.parse({"-v", "in", "-c", "3"}).ok());
    EXPECT_TRUE(f.verbose);
    EXPECT_EQ(f.cores, 3u);
    ASSERT_TRUE(f.parse({"in", "-c=5"}).ok());
    EXPECT_EQ(f.cores, 5u);
    EXPECT_EQ(f.parse({"in", "-c", "99"}).error,
              "--cores expects an integer in [1, 64], got '99'");
}

TEST(Cli, HelpWinsWhereverItStands)
{
    Fixture f;
    for (const CliResult &r :
         {f.parse({"--help"}), f.parse({"-h"}),
          f.parse({"--cores", "abc", "in", "x", "-h"}),
          f.parse({"--bogus", "--help"})}) {
        EXPECT_TRUE(r.help);
        EXPECT_TRUE(r.ok()) << r.error;
    }
    testing::internal::CaptureStdout();
    EXPECT_EQ(cli_report(f.spec, f.parse({"-h"})), 0);
    EXPECT_EQ(testing::internal::GetCapturedStdout(), cli_usage(f.spec));
    EXPECT_FALSE(f.parse({"in", "--help=1"}).help);
    EXPECT_EQ(f.parse({"in", "--help=1"}).error,
              "--help takes no value, got '--help=1'");
    // A value slot swallows the token, as for any other value.
    ASSERT_TRUE(f.parse({"in", "--path", "--help"}).ok());
    EXPECT_EQ(f.path, "--help");
}

TEST(Cli, ReportMapsResultsToExitCodes)
{
    Fixture f;
    EXPECT_EQ(cli_report(f.spec, f.parse({"in"})), -1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(cli_report(f.spec, f.parse({"in", "--cores", "0"})), 2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err, "prog: --cores expects an integer in [1, 64], got '0'\n"
                   "(prog --help lists the options)\n");
}

TEST(Cli, UsageListsEveryRowWithItsDomain)
{
    Fixture f;
    const std::string u = cli_usage(f.spec);
    EXPECT_EQ(u.rfind("usage: prog <in> [options]\n", 0), 0u) << u;
    for (const char *row :
         {"  -h, --help\n      print this help and exit\n",
          "  -v, --verbose\n      talk more\n",
          "  --path PATH\n      where to write\n",
          "  -c, --cores N\n      cores; an integer in [1, 64]\n",
          "  --freq GHZ\n      frequency; a number in (0, 10]\n",
          "  --step US\n      step time; a number in [0, 1e+09]\n",
          "  --model M\n      model; one of copying|xchange\n"})
        EXPECT_NE(u.find(row), std::string::npos) << row << "\n" << u;
}

} // namespace
} // namespace pmill
