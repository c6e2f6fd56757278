/**
 * @file
 * Unit and property tests for the statistics accumulators.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.hh"
#include "util/stats.hh"

namespace geo {
namespace {

TEST(StatAccumulator, EmptyDefaults)
{
    StatAccumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.stddev(), 0.0);
    EXPECT_EQ(acc.min(), 0.0);
    EXPECT_EQ(acc.max(), 0.0);
}

TEST(StatAccumulator, KnownValues)
{
    StatAccumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Pearson, PerfectPositive)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegative)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys = {10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesIsZero)
{
    std::vector<double> xs = {1, 2, 3};
    std::vector<double> ys = {7, 7, 7};
    EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Pearson, IndependentNearZero)
{
    Rng rng(22);
    std::vector<double> xs, ys;
    for (int i = 0; i < 20000; ++i) {
        xs.push_back(rng.normal());
        ys.push_back(rng.normal());
    }
    EXPECT_NEAR(pearson(xs, ys), 0.0, 0.03);
}

TEST(Pearson, InvariantToAffineTransforms)
{
    Rng rng(23);
    std::vector<double> xs, ys, xs2, ys2;
    for (int i = 0; i < 500; ++i) {
        double x = rng.normal();
        double y = 0.5 * x + rng.normal(0.0, 0.3);
        xs.push_back(x);
        ys.push_back(y);
        xs2.push_back(3.0 * x + 10.0);
        ys2.push_back(-2.0 * y + 1.0);
    }
    // Scaling flips sign with negative scale but keeps magnitude.
    EXPECT_NEAR(std::fabs(pearson(xs, ys)),
                std::fabs(pearson(xs2, ys2)), 1e-9);
}

TEST(RelativeError, MeanAbsolute)
{
    std::vector<double> pred = {110.0, 90.0};
    std::vector<double> target = {100.0, 100.0};
    EXPECT_DOUBLE_EQ(meanAbsoluteRelativeError(pred, target), 10.0);
}

TEST(RelativeError, SignedDirection)
{
    std::vector<double> over = {110.0, 120.0};
    std::vector<double> under = {90.0, 80.0};
    std::vector<double> target = {100.0, 100.0};
    EXPECT_GT(meanSignedRelativeError(over, target), 0.0);
    EXPECT_LT(meanSignedRelativeError(under, target), 0.0);
}

TEST(RelativeError, SkipsTinyTargets)
{
    std::vector<double> pred = {5.0, 110.0};
    std::vector<double> target = {0.0, 100.0};
    // The zero target is skipped entirely.
    EXPECT_DOUBLE_EQ(meanAbsoluteRelativeError(pred, target), 10.0);
}

TEST(RelativeError, StddevOfConstantErrorIsZero)
{
    std::vector<double> pred = {110.0, 220.0};
    std::vector<double> target = {100.0, 200.0};
    EXPECT_NEAR(stddevAbsoluteRelativeError(pred, target), 0.0, 1e-12);
}

TEST(MeanAndStddev, Basics)
{
    std::vector<double> xs = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.0);
    EXPECT_NEAR(stddev(xs), std::sqrt(2.0 / 3.0), 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

} // namespace
} // namespace geo
