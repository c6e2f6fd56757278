/**
 * @file
 * Unit tests for min-max normalization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "trace/normalizer.hh"
#include "util/random.hh"

namespace geo {
namespace trace {
namespace {

using nn::Matrix;

TEST(MinMaxNormalizer, TransformsToUnitInterval)
{
    Matrix data = Matrix::fromRows({{0.0, -10.0}, {5.0, 0.0},
                                    {10.0, 10.0}});
    MinMaxNormalizer norm;
    norm.fit(data);
    Matrix out = norm.transform(data);
    EXPECT_DOUBLE_EQ(out.at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(out.at(1, 0), 0.5);
    EXPECT_DOUBLE_EQ(out.at(2, 0), 1.0);
    EXPECT_DOUBLE_EQ(out.at(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(out.at(2, 1), 1.0);
}

TEST(MinMaxNormalizer, InverseRoundTrips)
{
    Rng rng(111);
    Matrix data(30, 4);
    data.fillNormal(rng, 50.0);
    MinMaxNormalizer norm;
    norm.fit(data);
    Matrix scaled = norm.transform(data);
    for (size_t r = 0; r < data.rows(); ++r)
        for (size_t c = 0; c < data.cols(); ++c)
            EXPECT_NEAR(norm.inverseValue(scaled.at(r, c), c),
                        data.at(r, c), 1e-9);
}

TEST(MinMaxNormalizer, ConstantColumnMapsToHalf)
{
    Matrix data = Matrix::fromRows({{7.0, 1.0}, {7.0, 2.0}});
    MinMaxNormalizer norm;
    norm.fit(data);
    Matrix out = norm.transform(data);
    EXPECT_DOUBLE_EQ(out.at(0, 0), 0.5);
    EXPECT_DOUBLE_EQ(out.at(1, 0), 0.5);
}

TEST(MinMaxNormalizer, OutOfRangeValuesClamped)
{
    Matrix data = Matrix::fromRows({{0.0}, {10.0}});
    MinMaxNormalizer norm;
    norm.fit(data);
    Matrix probe = Matrix::fromRows({{-5.0}, {15.0}});
    Matrix out = norm.transform(probe);
    EXPECT_DOUBLE_EQ(out.at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(out.at(1, 0), 1.0);
}

TEST(MinMaxNormalizer, UpdateWidensRanges)
{
    Matrix first = Matrix::fromRows({{0.0}, {10.0}});
    Matrix second = Matrix::fromRows({{-10.0}, {20.0}});
    MinMaxNormalizer norm;
    norm.fit(first);
    norm.update(second);
    EXPECT_DOUBLE_EQ(norm.columnMin(0), -10.0);
    EXPECT_DOUBLE_EQ(norm.columnMax(0), 20.0);
}

TEST(MinMaxNormalizer, ScalarHelpers)
{
    Matrix data = Matrix::fromRows({{0.0}, {4.0}});
    MinMaxNormalizer norm;
    norm.fit(data);
    EXPECT_DOUBLE_EQ(norm.value(1.0, 0), 0.25);
    EXPECT_DOUBLE_EQ(norm.inverseValue(0.25, 0), 1.0);
}

// Regression: a single NaN in a batch used to poison the scaler for
// the rest of the run (row 0 seeded the ranges unconditionally, and
// every later min/max fold against NaN stays NaN). Non-finite values
// must be skipped and counted, and the resulting ranges must equal
// the ones fitted on the finite values alone.
TEST(MinMaxNormalizer, PoisonedBatchLeavesScalerStateFinite)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    Matrix poisoned = Matrix::fromRows({{nan, 5.0},
                                        {2.0, inf},
                                        {8.0, -3.0},
                                        {4.0, -inf}});
    MinMaxNormalizer norm;
    norm.fit(poisoned);
    EXPECT_EQ(norm.rejectedNonFinite(), 3u);
    // Exactly the ranges of the finite values, bit for bit.
    EXPECT_DOUBLE_EQ(norm.columnMin(0), 2.0);
    EXPECT_DOUBLE_EQ(norm.columnMax(0), 8.0);
    EXPECT_DOUBLE_EQ(norm.columnMin(1), -3.0);
    EXPECT_DOUBLE_EQ(norm.columnMax(1), 5.0);

    Matrix clean = Matrix::fromRows({{2.0, 5.0}, {8.0, -3.0}});
    MinMaxNormalizer reference;
    reference.fit(clean);
    Matrix probe = Matrix::fromRows({{5.0, 1.0}});
    Matrix a = norm.transform(probe);
    Matrix b = reference.transform(probe);
    EXPECT_DOUBLE_EQ(a.at(0, 0), b.at(0, 0));
    EXPECT_DOUBLE_EQ(a.at(0, 1), b.at(0, 1));
}

TEST(MinMaxNormalizer, NanInRowZeroDoesNotPoisonLaterUpdates)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    MinMaxNormalizer norm;
    norm.fit(Matrix::fromRows({{nan}}));
    EXPECT_EQ(norm.rejectedNonFinite(), 1u);
    // A column that never saw a finite value degrades to the
    // constant-column behavior (everything maps to 0.5)...
    EXPECT_DOUBLE_EQ(norm.value(123.0, 0), 0.5);
    // ...and recovers as soon as finite data arrives.
    norm.update(Matrix::fromRows({{10.0}, {20.0}}));
    EXPECT_DOUBLE_EQ(norm.columnMin(0), 10.0);
    EXPECT_DOUBLE_EQ(norm.columnMax(0), 20.0);
    EXPECT_DOUBLE_EQ(norm.value(15.0, 0), 0.5);
    EXPECT_DOUBLE_EQ(norm.value(10.0, 0), 0.0);
}

TEST(MinMaxNormalizer, AllFiniteDataIsBitIdenticalToOldBehavior)
{
    Rng rng(42);
    Matrix data(64, 6);
    data.fillNormal(rng, 100.0);
    MinMaxNormalizer norm;
    norm.fit(data);
    EXPECT_EQ(norm.rejectedNonFinite(), 0u);
    for (size_t c = 0; c < data.cols(); ++c) {
        double lo = data.at(0, c), hi = data.at(0, c);
        for (size_t r = 1; r < data.rows(); ++r) {
            lo = std::min(lo, data.at(r, c));
            hi = std::max(hi, data.at(r, c));
        }
        EXPECT_DOUBLE_EQ(norm.columnMin(c), lo);
        EXPECT_DOUBLE_EQ(norm.columnMax(c), hi);
    }
}

TEST(MinMaxNormalizerDeathTest, TransformBeforeFit)
{
    MinMaxNormalizer norm;
    Matrix data(1, 1);
    EXPECT_DEATH(norm.transform(data), "before fit");
}

TEST(MinMaxNormalizerDeathTest, ColumnMismatch)
{
    MinMaxNormalizer norm;
    norm.fit(Matrix(2, 3));
    EXPECT_DEATH(norm.transform(Matrix(2, 4)), "columns");
}

TEST(MinMaxNormalizerDeathTest, EmptyData)
{
    MinMaxNormalizer norm;
    EXPECT_DEATH(norm.fit(Matrix(0, 3)), "empty");
}

} // namespace
} // namespace trace
} // namespace geo
