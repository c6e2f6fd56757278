/**
 * @file
 * Unit tests for CSV reading/writing.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.hh"

namespace geo {
namespace {

TEST(Csv, EscapePlainUnchanged)
{
    EXPECT_EQ(csvEscape("hello"), "hello");
}

TEST(Csv, EscapeCommaQuoted)
{
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
}

TEST(Csv, EscapeQuoteDoubled)
{
    EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WriteRow)
{
    std::ostringstream os;
    CsvWriter writer(os);
    writer.writeRow({"a", "b,c", "d"});
    EXPECT_EQ(os.str(), "a,\"b,c\",d\n");
}

/** The fields of a one-row document. */
std::vector<std::string>
parseRow(const std::string &text)
{
    auto rows = parseCsv(text);
    EXPECT_EQ(rows.size(), 1u) << text;
    return rows.empty() ? std::vector<std::string>{} : rows[0];
}

TEST(Csv, ParseSimpleLine)
{
    EXPECT_EQ(parseRow("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Csv, ParseQuotedComma)
{
    EXPECT_EQ(parseRow("\"a,b\",c"), (std::vector<std::string>{"a,b", "c"}));
}

TEST(Csv, ParseEscapedQuote)
{
    std::vector<std::string> fields = parseRow("\"say \"\"hi\"\"\"");
    ASSERT_EQ(fields.size(), 1u);
    EXPECT_EQ(fields[0], "say \"hi\"");
}

TEST(Csv, ParseEmptyFields)
{
    EXPECT_EQ(parseRow("a,,c,"), (std::vector<std::string>{"a", "", "c", ""}));
}

TEST(Csv, ParseIgnoresCarriageReturn)
{
    EXPECT_EQ(parseRow("a,b\r\n"), (std::vector<std::string>{"a", "b"}));
}

TEST(Csv, ParseDocument)
{
    auto rows = parseCsv("h1,h2\n1,2\n\n3,4\n");
    ASSERT_EQ(rows.size(), 3u); // the blank line is no row
    EXPECT_EQ(rows[0][0], "h1");
    EXPECT_EQ(rows[2][1], "4");
}

TEST(Csv, RoundTripArbitraryContent)
{
    // Quoted fields keep commas, quotes and line breaks of every kind.
    std::vector<std::string> original = {"plain", "with,comma",
                                         "with\"quote", "multi\nline",
                                         "crlf\r\nline", ""};
    std::ostringstream os;
    CsvWriter writer(os);
    writer.writeRow(original);
    writer.writeRow({"next", "row"});
    auto rows = parseCsv(os.str());
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], original);
    EXPECT_EQ(rows[1], (std::vector<std::string>{"next", "row"}));
}

TEST(Csv, UnterminatedQuoteEndsAtEndOfText)
{
    auto rows = parseCsv("a,\"b\nc");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b\nc"}));
}

} // namespace
} // namespace geo
