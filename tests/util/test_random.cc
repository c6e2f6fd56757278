/**
 * @file
 * Unit and property tests for the deterministic PRNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/random.hh"
#include "util/stats.hh"

namespace geo {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(123), b(124);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a() == b())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(-5.0, 3.0);
        EXPECT_GE(u, -5.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(3);
    std::set<int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u); // all values hit
}

TEST(Rng, UniformIntSingleValue)
{
    Rng rng(4);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(7, 7), 7);
}

TEST(RngDeathTest, UniformIntBadRange)
{
    Rng rng(5);
    EXPECT_DEATH(rng.uniformInt(3, 2), "lo");
}

TEST(Rng, NormalMoments)
{
    Rng rng(6);
    StatAccumulator acc;
    for (int i = 0; i < 50000; ++i)
        acc.add(rng.normal());
    EXPECT_NEAR(acc.mean(), 0.0, 0.03);
    EXPECT_NEAR(acc.stddev(), 1.0, 0.03);
}

TEST(Rng, NormalScaled)
{
    Rng rng(7);
    StatAccumulator acc;
    for (int i = 0; i < 50000; ++i)
        acc.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(acc.mean(), 10.0, 0.1);
    EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(8);
    StatAccumulator acc;
    for (int i = 0; i < 50000; ++i)
        acc.add(rng.exponential(2.0));
    EXPECT_NEAR(acc.mean(), 0.5, 0.02);
    EXPECT_GE(acc.min(), 0.0);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(10);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(13);
    std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> shuffled = items;
    rng.shuffle(shuffled);
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, items);
}

/** Property sweep: uniformInt stays in bounds for many ranges. */
class RngRangeTest : public testing::TestWithParam<int64_t>
{
};

TEST_P(RngRangeTest, UniformIntBounds)
{
    int64_t hi = GetParam();
    Rng rng(static_cast<uint64_t>(hi) + 99);
    for (int i = 0; i < 500; ++i) {
        int64_t v = rng.uniformInt(0, hi);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, hi);
    }
}

INSTANTIATE_TEST_SUITE_P(Ranges, RngRangeTest,
                         testing::Values<int64_t>(0, 1, 2, 5, 63, 64, 65,
                                                  1000, 1'000'000'000));

} // namespace
} // namespace geo
