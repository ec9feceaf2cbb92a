/**
 * @file
 * Unit tests for src/common: histogram percentiles, ring behaviour,
 * RNG determinism, units formatting, string formatting, and the
 * number grammar and JSON record codec.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "src/common/histogram.hh"
#include "src/common/json.hh"
#include "src/common/log.hh"
#include "src/common/random.hh"
#include "src/common/ring.hh"
#include "src/common/table_printer.hh"
#include "src/common/types.hh"
#include "src/common/units.hh"

namespace pmill {
namespace {

TEST(JsonGrammar, U64IsDigitsThatFit)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parse_u64("0", &v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parse_u64("+8", &v));
    EXPECT_EQ(v, 8u);
    EXPECT_TRUE(parse_u64("18446744073709551615", &v));
    EXPECT_EQ(v, 18446744073709551615ull);
    EXPECT_TRUE(parse_u64("007", &v));
    EXPECT_EQ(v, 7u);
    for (const char *bad :
         {"", "+", "++1", "-1", "-0", " 1", "1 ", "0x10", "1e3", "1.0",
          "nan", "18446744073709551616", "99999999999999999999999"}) {
        EXPECT_FALSE(parse_u64(bad, &v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7u) << "a failed parse must not write";
    }
}

TEST(JsonGrammar, F64IsAFiniteDecimalToken)
{
    double v = 0;
    const std::pair<const char *, double> good[] = {
        {"1.5", 1.5}, {"-4e5", -4e5}, {"+8", 8},  {"1e-1", 0.1},
        {".5", 0.5},  {"5.", 5},      {"0", 0},   {"1E3", 1000}};
    for (const auto &[tok, want] : good) {
        EXPECT_TRUE(parse_f64(tok, &v)) << tok;
        EXPECT_EQ(v, want) << tok;
    }
    v = 7;
    for (const char *bad :
         {"", "nan", "NaN", "inf", "-inf", "infinity", "0x10", "0x1p3",
          "1e999", "-1e999", " 1", "1 ", "5x", "1,5", "--1", "e", ".",
          "1.5.2"}) {
        EXPECT_FALSE(parse_f64(bad, &v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7.0) << "a failed parse must not write";
    }
}

TEST(JsonRecordWriter, WritesFieldsInCallOrder)
{
    EXPECT_EQ(JsonRecord().line(), "{}\n");
    JsonRecord rec;
    rec.str("type", "t")
        .num("x", 1.5)
        .num("inf", 1.0 / 0.0)
        .integer("neg", -1)
        .integer("big", 18446744073709551615ull)
        .boolean("b", false)
        .cell("c1", "12")
        .cell("c2", "nan")
        .strs("cols", {"a\"", "b"})
        .str("k\"ey", "v\n");
    EXPECT_EQ(rec.line(),
              "{\"type\":\"t\",\"x\":1.5,\"inf\":0,\"neg\":-1,"
              "\"big\":18446744073709551615,\"b\":false,\"c1\":12,"
              "\"c2\":\"nan\",\"cols\":[\"a\\\"\",\"b\"],"
              "\"k\\\"ey\":\"v\\n\"}\n");
    std::ostringstream os;
    os << rec;
    EXPECT_EQ(os.str(), rec.line());
}

TEST(JsonReader, ParsesFlatObjectsStrictly)
{
    std::map<std::string, std::string> o;
    std::string err;
    ASSERT_TRUE(parse_json_object_line(
        " {\"a\":\"x\\u0041\\/\\b\",\"n\":-1.5e3,\"t\":true,\"z\":null,"
        "\"arr\":[\"a\", 1],\"e\":[]}\t",
        &o, &err))
        << err;
    EXPECT_EQ(o.at("a"), "xA/\b");
    EXPECT_EQ(o.at("n"), "-1.5e3");
    EXPECT_EQ(o.at("t"), "true");
    EXPECT_EQ(o.at("z"), "null");
    EXPECT_EQ(o.at("arr"), "[\"a\", 1]");
    EXPECT_EQ(o.at("e"), "[]");
    ASSERT_TRUE(parse_json_object_line("{\"u\":\"\\u00e9\"}", &o));
    EXPECT_EQ(o.at("u"), "\xc3\xa9");

    // Bad bare values name their key.
    for (const char *v : {"12abc", "nan", "inf", "0x10", "True", "1 2",
                          "\"\\u12\"", "\"\\u12G4\"", "\"\\q\"",
                          "[1,[2]]", "{\"b\":1}", "[1,]", "\"a\tb\""}) {
        const std::string line = std::string("{\"k\":") + v + "}";
        err.clear();
        EXPECT_FALSE(parse_json_object_line(line, &o, &err)) << line;
        EXPECT_FALSE(err.empty()) << line;
    }
    err.clear();
    EXPECT_FALSE(parse_json_object_line("{\"total\":12abc}", &o, &err));
    EXPECT_EQ(err, "malformed value for 'total'");
    // Text after the closing brace.
    for (const char *line :
         {"{\"a\":1}x", "{\"a\":1}}", "{\"a\":1} {}", "{}\"\"", "{\"a\":1,}",
          "{,}", "{\"a\" 1}", "{a:1}", "\"x\""}) {
        EXPECT_FALSE(parse_json_object_line(line, &o)) << line;
    }
}

TEST(JsonReader, RoundTripsTheWriter)
{
    std::string every;
    for (int c = 1; c < 128; ++c)
        every += static_cast<char>(c);
    every += "\xc3\xa9";
    every.push_back('\0');
    std::map<std::string, std::string> o;
    ASSERT_TRUE(parse_json_object_line(
        JsonRecord().str(every, every).num("n", -0.125).line(), &o));
    EXPECT_EQ(o.at(every), every);
    EXPECT_EQ(o.at("n"), "-0.125");
}

TEST(JsonFields, TypedGettersFlagTheFirstBadKey)
{
    std::map<std::string, std::string> o;
    ASSERT_TRUE(parse_json_object_line(
        "{\"s\":\"x\",\"u\":18446744073709551615,\"f\":2.5,"
        "\"l\":\"1,2,3\",\"a\":[\"p\",\"q\\\"r\"],\"bu\":-1,\"bf\":\"x\","
        "\"bl\":\"1,,2\",\"ba\":[1]}",
        &o));
    JsonFields f(o);
    EXPECT_EQ(f.str("s"), "x");
    EXPECT_EQ(f.u64("u"), 18446744073709551615ull);
    EXPECT_EQ(f.f64("f"), 2.5);
    EXPECT_EQ(f.u64s("l"), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(f.strs("a"), (std::vector<std::string>{"p", "q\"r"}));
    // Missing keys read as zero and are not errors.
    EXPECT_EQ(f.str("nope"), "");
    EXPECT_EQ(f.u64("nope"), 0u);
    EXPECT_EQ(f.f64("nope"), 0.0);
    EXPECT_TRUE(f.u64s("nope").empty());
    EXPECT_TRUE(f.strs("nope").empty());
    EXPECT_EQ(f.bad(), "");

    EXPECT_EQ(f.u64("bu"), 0u);
    EXPECT_EQ(f.bad(), "bu");
    EXPECT_EQ(f.f64("bf"), 0.0);
    EXPECT_TRUE(f.u64s("bl").empty());
    EXPECT_TRUE(f.strs("ba").empty());
    EXPECT_EQ(f.bad(), "bu") << "the first bad key is kept";

    for (const char *key : {"bf", "bl", "ba", "s"}) {
        JsonFields g(o);
        (void)g.u64s(key);
        (void)g.strs(key);
        EXPECT_EQ(g.bad(), key);
    }
}

TEST(Types, RoundUp)
{
    EXPECT_EQ(round_up(0, 64), 0u);
    EXPECT_EQ(round_up(1, 64), 64u);
    EXPECT_EQ(round_up(64, 64), 64u);
    EXPECT_EQ(round_up(65, 64), 128u);
}

TEST(Types, Pow2Helpers)
{
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(4096));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(24));
    EXPECT_EQ(log2_exact(1), 0u);
    EXPECT_EQ(log2_exact(4096), 12u);
}

TEST(Types, LineAndPage)
{
    EXPECT_EQ(line_of(0), 0u);
    EXPECT_EQ(line_of(63), 0u);
    EXPECT_EQ(line_of(64), 1u);
    EXPECT_EQ(page_of(4095), 0u);
    EXPECT_EQ(page_of(4096), 1u);
}

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strprintf("%.2f", 1.234), "1.23");
}

TEST(Histogram, EmptyIsZero)
{
    Histogram h(100.0, 100);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, MedianOfUniform)
{
    Histogram h(1000.0, 1000);
    for (int i = 0; i < 1000; ++i)
        h.record(static_cast<double>(i));
    EXPECT_NEAR(h.percentile(0.5), 500.0, 2.0);
    EXPECT_NEAR(h.percentile(0.99), 990.0, 2.0);
    EXPECT_NEAR(h.mean(), 499.5, 0.01);
    EXPECT_DOUBLE_EQ(h.max(), 999.0);
}

TEST(Histogram, OverflowReportsMax)
{
    Histogram h(10.0, 10);
    h.record(5.0);
    h.record(5000.0);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 5000.0);
}

TEST(Histogram, ClearResets)
{
    Histogram h(10.0, 10);
    h.record(1.0);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Histogram, SingleSamplePercentiles)
{
    Histogram h(100.0, 100);
    h.record(42.0);
    // With one sample, every quantile must land in its bin.
    EXPECT_NEAR(h.percentile(0.5), 42.0, 1.0);
    EXPECT_NEAR(h.percentile(0.99), 42.0, 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 42.0);
}

TEST(Histogram, OverflowOnlyPercentiles)
{
    Histogram h(10.0, 10);
    h.record(100.0);
    h.record(250.0);
    // All mass in the overflow bucket: report the observed max.
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 250.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 250.0);
    EXPECT_EQ(h.count(), 2u);
}

TEST(Histogram, QuantileArgumentIsClamped)
{
    Histogram h(100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.record(static_cast<double>(i));
    // Out-of-range quantiles clamp to [0, 1] instead of misbehaving.
    EXPECT_DOUBLE_EQ(h.percentile(-0.5), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(1.5), h.percentile(1.0));
    EXPECT_LE(h.percentile(0.0), h.percentile(1.0));
}

TEST(Histogram, NegativeSamplesClampToZeroBin)
{
    Histogram h(10.0, 10);
    h.record(-5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_NEAR(h.percentile(0.5), 0.0, 1.0);
}

TEST(Ring, PushPopOrder)
{
    Ring<int> r(8);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(r.push(i));
    EXPECT_TRUE(r.full());
    EXPECT_FALSE(r.push(99));
    for (int i = 0; i < 8; ++i) {
        int v = -1;
        EXPECT_TRUE(r.pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_TRUE(r.empty());
    int v;
    EXPECT_FALSE(r.pop(v));
}

TEST(Ring, WrapsAround)
{
    Ring<int> r(4);
    for (int round = 0; round < 10; ++round) {
        EXPECT_TRUE(r.push(round));
        int v = -1;
        EXPECT_TRUE(r.pop(v));
        EXPECT_EQ(v, round);
    }
    EXPECT_TRUE(r.empty());
}

TEST(Ring, SlotIndices)
{
    Ring<int> r(4);
    EXPECT_EQ(r.next_push_slot(), 0u);
    r.push(1);
    EXPECT_EQ(r.next_push_slot(), 1u);
    EXPECT_EQ(r.next_pop_slot(), 0u);
}

TEST(Random, Deterministic)
{
    Xorshift64 a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, BoundedStaysInRange)
{
    Xorshift64 rng(42);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Random, DoubleInUnitInterval)
{
    Xorshift64 rng(3);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Random, RoughlyUniform)
{
    Xorshift64 rng(11);
    int buckets[10] = {};
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++buckets[rng.next_below(10)];
    for (int b : buckets) {
        EXPECT_GT(b, n / 10 - n / 50);
        EXPECT_LT(b, n / 10 + n / 50);
    }
}

TEST(Units, Formatting)
{
    EXPECT_EQ(format_gbps(100e9), "100.00 Gbps");
    EXPECT_EQ(format_mpps(14.88e6), "14.88 Mpps");
    EXPECT_EQ(format_bytes(64), "64 B");
    EXPECT_EQ(format_bytes(2048), "2 KiB");
    EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3 MiB");
}

TEST(TablePrinter, CountsRows)
{
    TablePrinter t;
    t.header({"a", "b"});
    t.row({"1", "2"});
    t.row({"3", "4"});
    EXPECT_EQ(t.num_rows(), 2u);
}

} // namespace
} // namespace pmill
