/**
 * @file
 * Unit and property tests for the smoothing helpers.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "util/smoothing.hh"

namespace geo {
namespace {

TEST(MovingAverage, WindowOneIsIdentity)
{
    std::vector<double> series = {3.0, 1.0, 4.0, 1.0, 5.0};
    EXPECT_EQ(movingAverage(series, 1), series);
}

TEST(MovingAverage, KnownWindow)
{
    std::vector<double> series = {1.0, 2.0, 3.0, 4.0};
    std::vector<double> expected = {1.0, 1.5, 2.5, 3.5};
    std::vector<double> out = movingAverage(series, 2);
    ASSERT_EQ(out.size(), expected.size());
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_DOUBLE_EQ(out[i], expected[i]);
}

TEST(MovingAverage, PreservesLength)
{
    std::vector<double> series(37, 1.0);
    EXPECT_EQ(movingAverage(series, 8).size(), series.size());
}

TEST(MovingAverage, ConstantSeriesUnchanged)
{
    std::vector<double> series(20, 5.5);
    for (double v : movingAverage(series, 7))
        EXPECT_DOUBLE_EQ(v, 5.5);
}

TEST(MovingAverageDeathTest, ZeroWindowPanics)
{
    std::vector<double> series = {1.0};
    EXPECT_DEATH(movingAverage(series, 0), "window");
}

/**
 * Property (paper Section V-E): a moving average keeps short-term
 * dips visible while the cumulative average washes them out.
 */
TEST(Smoothing, MovingAverageKeepsShortTermDips)
{
    // Steady series with a sharp dip near the end.
    std::vector<double> series(1000, 100.0);
    for (size_t i = 950; i < 1000; ++i)
        series[i] = 10.0;
    double ma = movingAverage(series, 10).back();
    // The cumulative average at the last sample: the whole-series mean.
    double ca = std::accumulate(series.begin(), series.end(), 0.0) /
                static_cast<double>(series.size());
    EXPECT_LT(ma, 20.0);  // dip clearly visible
    EXPECT_GT(ca, 90.0);  // dip erased
}

} // namespace
} // namespace geo
