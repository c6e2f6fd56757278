/**
 * @file
 * Unit tests for the shared JSON reader: the document model, hostile
 * input (nesting bombs, non-RFC-8259 numbers, broken strings, trailing
 * bytes) and bit-exact round-trips of the numbers the ledger writes.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/random.hh"

namespace geo {
namespace util {
namespace {

bool
parses(const std::string &text)
{
    JsonValue doc;
    return parseJson(text, doc);
}

std::string
nested(size_t depth)
{
    return std::string(depth, '[') + std::string(depth, ']');
}

TEST(Json, DocumentModel)
{
    JsonValue doc;
    ASSERT_TRUE(parseJson(
        " {\"t\":\"candidate\",\"file\":3,\"moved\":true,\"none\":null,"
        "\"scores\":[{\"device\":1,\"predicted\":-2.5e3}],"
        "\"esc\":\"a\\\"b\\\\c\\/d\\n\\u0041\"}\n",
        doc));
    ASSERT_EQ(doc.kind, JsonValue::Object);
    EXPECT_EQ(doc.str("t"), "candidate");
    EXPECT_EQ(doc.num("file"), 3.0);
    EXPECT_TRUE(doc.flag("moved"));
    EXPECT_EQ(doc.get("none")->kind, JsonValue::Null);
    EXPECT_EQ(doc.str("esc"), "a\"b\\c/d\n?");
    const JsonValue *scores = doc.get("scores");
    ASSERT_NE(scores, nullptr);
    ASSERT_EQ(scores->kind, JsonValue::Array);
    ASSERT_EQ(scores->items.size(), 1u);
    EXPECT_EQ(scores->items[0].num("predicted"), -2500.0);
    // Missing keys and kind mismatches fall back.
    EXPECT_EQ(doc.get("absent"), nullptr);
    EXPECT_EQ(doc.num("t", -1.0), -1.0);
    EXPECT_EQ(doc.str("file"), "");
    EXPECT_FALSE(doc.flag("file"));
}

TEST(Json, EmptyContainersAndScalarDocuments)
{
    for (const char *text : {"{}", "[]", "[ ]", "{ }", "0", "-0", "\"\"",
                             "true", "false", "null", "[[],{}]"})
        EXPECT_TRUE(parses(text)) << text;
}

TEST(Json, NestingCapped)
{
    EXPECT_TRUE(parses(nested(kJsonMaxDepth)));
    EXPECT_FALSE(parses(nested(kJsonMaxDepth + 1)));
    EXPECT_FALSE(parses("{\"a\":" + nested(kJsonMaxDepth) + "}"));
    // A nesting bomb fails at the cap instead of exhausting the stack.
    EXPECT_FALSE(parses(std::string(2000000, '[')));
}

TEST(Json, NumbersFollowRfc8259)
{
    for (const char *bad : {"nan", "NaN", "inf", "-inf", "Infinity",
                            "0x10", "+1", ".5", "1.", "1e", "1e+", "-",
                            "01", "1-2", "1.5.2", "--1", "[1,]", "[,1]"})
        EXPECT_FALSE(parses(bad)) << bad;
    JsonValue doc;
    ASSERT_TRUE(parseJson("[0,-0,12,1.5,-2.25e-3,1E+2,6e0]", doc));
    const double want[] = {0.0, -0.0, 12.0, 1.5, -2.25e-3, 100.0, 6.0};
    ASSERT_EQ(doc.items.size(), std::size(want));
    for (size_t i = 0; i < std::size(want); ++i) {
        EXPECT_EQ(doc.items[i].kind, JsonValue::Number);
        EXPECT_EQ(std::bit_cast<uint64_t>(doc.items[i].number),
                  std::bit_cast<uint64_t>(want[i]))
            << i;
    }
}

TEST(Json, BrokenStringsRejected)
{
    for (const char *bad : {"\"abc", "\"abc\\\"", "{\"k:1}", "\"\\x\"",
                            "\"\\u12\"", "\"\\u12g4\"", "\"a\tb\"",
                            "\"\\"})
        EXPECT_FALSE(parses(bad)) << bad;
}

TEST(Json, TrailingBytesRejected)
{
    for (const char *bad : {"{} x", "1 2", "[]]", "{}{}", "null,",
                            "{\"a\":1}}", "\"s\"\""})
        EXPECT_FALSE(parses(bad)) << bad;
    EXPECT_TRUE(parses(" \t{}\r\n"));
}

TEST(Json, MalformedStructureRejected)
{
    for (const char *bad : {"", " ", "{", "[", "{\"a\"}", "{\"a\":}",
                            "{1:2}", "{\"a\":1,}", "[1 2]", "tru",
                            "nul"})
        EXPECT_FALSE(parses(bad)) << bad;
}

TEST(Json, SeventeenDigitNumbersRoundTripBitExact)
{
    // The ledger and metrics writers print doubles with up to 17
    // significant digits; reading them back must give the same bits.
    Rng rng(2024);
    std::string text = "[";
    std::vector<double> values = {
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(),
        -0.0,
        0.1,
        1.0 / 3.0,
    };
    while (values.size() < 2000) {
        uint64_t bits = rng();
        double v = std::bit_cast<double>(bits);
        if (std::isfinite(v))
            values.push_back(v);
    }
    for (size_t i = 0; i < values.size(); ++i) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", values[i]);
        text += (i ? "," : "") + std::string(buf);
    }
    text += "]";
    JsonValue doc;
    ASSERT_TRUE(parseJson(text, doc));
    ASSERT_EQ(doc.items.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i)
        ASSERT_EQ(std::bit_cast<uint64_t>(doc.items[i].number),
                  std::bit_cast<uint64_t>(values[i]))
            << i;
}

TEST(Json, EscapeRoundTrips)
{
    const std::string raw = "say \"hi\" \\ done";
    JsonValue doc;
    ASSERT_TRUE(parseJson("\"" + jsonEscape(raw) + "\"", doc));
    EXPECT_EQ(doc.text, raw);
    EXPECT_EQ(jsonEscape("plain"), "plain");
}

} // namespace
} // namespace util
} // namespace geo
