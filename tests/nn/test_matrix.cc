/**
 * @file
 * Unit tests for the Matrix class.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/matrix.hh"
#include "util/random.hh"

namespace geo {
namespace nn {
namespace {

TEST(Matrix, DefaultEmpty)
{
    Matrix m;
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
    EXPECT_TRUE(m.empty());
}

TEST(Matrix, ZeroInitialized)
{
    Matrix m(2, 3);
    for (size_t r = 0; r < 2; ++r)
        for (size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(m.at(r, c), 0.0);
}

TEST(Matrix, FillConstructor)
{
    Matrix m(2, 2, 7.5);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 7.5);
}

TEST(Matrix, FromRows)
{
    Matrix m = Matrix::fromRows({{1, 2}, {3, 4}});
    EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
}

TEST(MatrixDeathTest, FromRowsRagged)
{
    EXPECT_DEATH(Matrix::fromRows({{1, 2}, {3}}), "ragged");
}

#ifdef GEO_CHECK_BOUNDS
TEST(MatrixDeathTest, OutOfBoundsAccess)
{
    Matrix m(2, 2);
    EXPECT_DEATH(m.at(2, 0), "out of");
    EXPECT_DEATH(m.at(0, 2), "out of");
}
#endif

TEST(Matrix, MatmulKnown)
{
    Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    Matrix b = Matrix::fromRows({{5, 6}, {7, 8}});
    Matrix c = a.matmul(b);
    EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(Matrix, MatmulIdentity)
{
    Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    Matrix eye = Matrix::fromRows({{1, 0}, {0, 1}});
    EXPECT_EQ(a.matmul(eye), a);
    EXPECT_EQ(eye.matmul(a), a);
}

TEST(MatrixDeathTest, MatmulShapeMismatch)
{
    Matrix a(2, 3), b(2, 3);
    EXPECT_DEATH(a.matmul(b), "shape mismatch");
}

TEST(Matrix, TransposeInvolution)
{
    Rng rng(41);
    Matrix m(3, 5);
    m.fillNormal(rng, 1.0);
    EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, TransposeMatmulProperty)
{
    // (AB)^T == B^T A^T
    Rng rng(42);
    Matrix a(3, 4), b(4, 2);
    a.fillNormal(rng, 1.0);
    b.fillNormal(rng, 1.0);
    Matrix lhs = a.matmul(b).transposed();
    Matrix rhs = b.transposed().matmul(a.transposed());
    ASSERT_EQ(lhs.rows(), rhs.rows());
    for (size_t i = 0; i < lhs.size(); ++i)
        EXPECT_NEAR(lhs.data()[i], rhs.data()[i], 1e-12);
}

TEST(Matrix, AddSubtract)
{
    Matrix a = Matrix::fromRows({{1, 2}});
    Matrix b = Matrix::fromRows({{10, 20}});
    EXPECT_DOUBLE_EQ((a + b).at(0, 1), 22.0);
    EXPECT_DOUBLE_EQ((b - a).at(0, 0), 9.0);
}

TEST(Matrix, Hadamard)
{
    Matrix a = Matrix::fromRows({{2, 3}});
    Matrix b = Matrix::fromRows({{4, 5}});
    Matrix c = a.hadamard(b);
    EXPECT_DOUBLE_EQ(c.at(0, 0), 8.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 15.0);
}

TEST(Matrix, ScalarMultiply)
{
    Matrix a = Matrix::fromRows({{1, -2}});
    Matrix b = a * 3.0;
    EXPECT_DOUBLE_EQ(b.at(0, 1), -6.0);
}

TEST(Matrix, AddRowBroadcast)
{
    Matrix m = Matrix::fromRows({{1, 2}, {3, 4}});
    Matrix bias = Matrix::fromRows({{10, 20}});
    m.addRowBroadcastInPlace(bias);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 11.0);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 24.0);
}

TEST(Matrix, ColumnSums)
{
    Matrix m = Matrix::fromRows({{1, 2}, {3, 4}});
    Matrix sums = m.columnSums();
    EXPECT_EQ(sums.rows(), 1u);
    EXPECT_DOUBLE_EQ(sums.at(0, 0), 4.0);
    EXPECT_DOUBLE_EQ(sums.at(0, 1), 6.0);
}

TEST(Matrix, RowAndRanges)
{
    Matrix m = Matrix::fromRows({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
    EXPECT_DOUBLE_EQ(m.row(1).at(0, 2), 6.0);
    Matrix rows = m.rowRange(1, 3);
    EXPECT_EQ(rows.rows(), 2u);
    EXPECT_DOUBLE_EQ(rows.at(1, 0), 7.0);
    Matrix cols = m.colRange(1, 3);
    EXPECT_EQ(cols.cols(), 2u);
    EXPECT_DOUBLE_EQ(cols.at(2, 0), 8.0);
}

TEST(Matrix, SetBlockRoundTrip)
{
    Matrix m(4, 4);
    Matrix block = Matrix::fromRows({{1, 2}, {3, 4}});
    m.setBlock(1, 2, block);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 1.0);
    EXPECT_DOUBLE_EQ(m.at(2, 3), 4.0);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
    Matrix back = m.rowRange(1, 3).colRange(2, 4);
    EXPECT_EQ(back, block);
}

TEST(MatrixDeathTest, SetBlockOverflow)
{
    Matrix m(2, 2);
    Matrix block(2, 2);
    EXPECT_DEATH(m.setBlock(1, 1, block), "overflow");
}

TEST(Matrix, MapApplies)
{
    Matrix m = Matrix::fromRows({{-1, 4}});
    Matrix out = m.map([](double v) { return v * v; });
    EXPECT_DOUBLE_EQ(out.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(out.at(0, 1), 16.0);
}

TEST(Matrix, NormFrobenius)
{
    Matrix m = Matrix::fromRows({{3, 4}});
    EXPECT_DOUBLE_EQ(m.norm(), 5.0);
}

TEST(Matrix, HasNonFinite)
{
    Matrix m(1, 2);
    EXPECT_FALSE(m.hasNonFinite());
    m.at(0, 1) = std::nan("");
    EXPECT_TRUE(m.hasNonFinite());
    m.at(0, 1) = INFINITY;
    EXPECT_TRUE(m.hasNonFinite());
}

TEST(Matrix, FillHeNormalStddev)
{
    Rng rng(43);
    Matrix m(100, 100);
    m.fillHeNormal(rng, 50);
    double sum = 0.0, sum2 = 0.0;
    for (double v : m.data()) {
        sum += v;
        sum2 += v * v;
    }
    double n = static_cast<double>(m.size());
    double stddev = std::sqrt(sum2 / n - (sum / n) * (sum / n));
    EXPECT_NEAR(stddev, std::sqrt(2.0 / 50.0), 0.01);
}

TEST(Matrix, FillXavierWithinLimit)
{
    Rng rng(44);
    Matrix m(50, 50);
    m.fillXavierUniform(rng, 50, 50);
    double limit = std::sqrt(6.0 / 100.0);
    for (double v : m.data()) {
        EXPECT_GE(v, -limit);
        EXPECT_LE(v, limit);
    }
}

} // namespace
} // namespace nn
} // namespace geo
