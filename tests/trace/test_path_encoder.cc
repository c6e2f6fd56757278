/**
 * @file
 * Unit tests for the categorical path encoder.
 */

#include <gtest/gtest.h>

#include <set>

#include "trace/path_encoder.hh"

namespace geo {
namespace trace {
namespace {

TEST(PathEncoder, PaperExample)
{
    // foo/bar/bat.root -> 123 with foo=1, bar=2, bat.root=3 (radix 10).
    PathEncoder encoder(10);
    EXPECT_EQ(encoder.encode("foo/bar/bat.root"), 123u);
}

TEST(PathEncoder, FirstSeenOrderAssignsIndices)
{
    // Shared dictionary: a=1, x=2, b=3 in first-seen order.
    PathEncoder encoder(1000);
    uint64_t first = encoder.encode("a/x");
    uint64_t second = encoder.encode("b/x");
    EXPECT_EQ(first, 1 * 1000 + 2u);
    EXPECT_EQ(second, 3 * 1000 + 2u);
}

TEST(PathEncoder, StableOnRepeat)
{
    PathEncoder encoder;
    uint64_t code = encoder.encode("data/run1/f.root");
    EXPECT_EQ(encoder.encode("data/run1/f.root"), code);
}

TEST(PathEncoder, SharedPrefixCodesAreClose)
{
    // Locality: siblings differ only in the last digit group.
    PathEncoder encoder(1000);
    uint64_t a = encoder.encode("data/run1/a.root");
    uint64_t b = encoder.encode("data/run1/b.root");
    uint64_t far = encoder.encode("other/run9/z.root");
    EXPECT_EQ(a / 1000, b / 1000); // same directory prefix code
    EXPECT_NE(a / 1000, far / 1000);
    EXPECT_LT(b - a, 1000u);
}

TEST(PathEncoder, SlashNormalization)
{
    PathEncoder encoder;
    uint64_t code = encoder.encode("a/b/c");
    EXPECT_EQ(encoder.encode("/a/b/c"), code);
    EXPECT_EQ(encoder.encode("a//b/c/"), code);
}

TEST(PathEncoder, EmptyPathIsZero)
{
    PathEncoder encoder;
    EXPECT_EQ(encoder.encode(""), 0u);
    EXPECT_EQ(encoder.encode("///"), 0u);
}

TEST(PathEncoder, DistinctPathsGiveDistinctCodes)
{
    PathEncoder encoder;
    std::set<uint64_t> codes;
    for (const char *path :
         {"foo/bar/bat.root", "foo/baz/qux.root", "single", "a/b",
          "b/a", "foo/bar", "foo/bar/bat.root/x"})
        EXPECT_TRUE(codes.insert(encoder.encode(path)).second) << path;
}

TEST(PathEncoder, DictionarySharedAcrossLevels)
{
    PathEncoder encoder;
    encoder.encode("a/x");
    encoder.encode("a/y");
    encoder.encode("b/x");
    // Distinct names: a, x, y, b.
    EXPECT_EQ(encoder.dictionarySize(), 4u);
    // Reusing a name at another level reuses its index: "x/a" is the
    // mirror of "a/x".
    uint64_t ax = encoder.encode("a/x");
    uint64_t xa = encoder.encode("x/a");
    uint64_t radix = encoder.radix();
    EXPECT_EQ(ax % radix, xa / radix);
    EXPECT_EQ(ax / radix, xa % radix);
}

TEST(PathEncoder, SplitPath)
{
    EXPECT_EQ(PathEncoder::splitPath("/a//b/c/"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(PathEncoder::splitPath("").empty());
}

TEST(PathEncoderDeathTest, RadixTooSmall)
{
    EXPECT_DEATH(PathEncoder(1), "radix");
}

TEST(PathEncoderDeathTest, RadixOverflow)
{
    PathEncoder encoder(3);
    encoder.encode("a");
    encoder.encode("b");
    EXPECT_DEATH(encoder.encode("c"), "overflow");
}

} // namespace
} // namespace trace
} // namespace geo
