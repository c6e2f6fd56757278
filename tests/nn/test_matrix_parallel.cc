/**
 * @file
 * Bit-identity tests for the blocked/parallel matmul kernels against
 * the naive ikj reference: the optimized paths may regroup independent
 * elements but must visit each (i, j)'s k index in ascending order, so
 * every result is required to be bitwise equal, not just close.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "nn/matrix.hh"
#include "util/random.hh"

namespace geo {
namespace nn {
namespace {

Matrix
randomMatrix(size_t rows, size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    m.fillNormal(rng, 1.0);
    return m;
}

void
expectBitwiseEqual(const Matrix &a, const Matrix &b, const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            ASSERT_EQ(a.at(r, c), b.at(r, c))
                << what << " differs at (" << r << ", " << c << ")";
}

TEST(MatrixParallel, MatmulMatchesNaiveOverRandomShapes)
{
    Rng rng(99);
    // Degenerate and boundary-straddling shapes: single row/column,
    // exact block multiples, one past a block edge.
    const std::vector<std::array<size_t, 3>> shapes = {
        {1, 1, 1},   {1, 17, 1},  {17, 1, 9},  {1, 9, 33},
        {5, 7, 3},   {8, 8, 8},   {13, 64, 5}, {3, 128, 129},
        {2, 129, 257}, {31, 130, 64},
    };
    for (const auto &[m, k, n] : shapes) {
        Matrix a = randomMatrix(m, k, rng);
        Matrix b = randomMatrix(k, n, rng);
        expectBitwiseEqual(a.matmul(b), a.matmulNaive(b), "matmul");
    }
}

TEST(MatrixParallel, MatmulZeroRowsAndCols)
{
    Matrix a(0, 5), b(5, 3);
    Matrix out = a.matmul(b);
    EXPECT_EQ(out.rows(), 0u);
    EXPECT_EQ(out.cols(), 3u);

    Matrix c(4, 5), empty(5, 0);
    Matrix wide = c.matmul(empty);
    EXPECT_EQ(wide.rows(), 4u);
    EXPECT_EQ(wide.cols(), 0u);
}

TEST(MatrixParallel, MatmulZeroEntriesTakeSkipPath)
{
    // The kernels skip lhs zeros; a sparse lhs must still match.
    Rng rng(5);
    Matrix a = randomMatrix(9, 40, rng);
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            if ((r + c) % 3 != 0)
                a.at(r, c) = 0.0;
    Matrix b = randomMatrix(40, 21, rng);
    expectBitwiseEqual(a.matmul(b), a.matmulNaive(b), "sparse matmul");
}

TEST(MatrixParallel, LargeMatmulAboveParallelThreshold)
{
    // 160x200 * 200x180: 2*160*200*180 = 11.5M flops, above the
    // parallel dispatch threshold, and K=200, N=180 straddle the
    // blocked path's panel edges when combined with bigger shapes.
    Rng rng(1234);
    Matrix a = randomMatrix(160, 200, rng);
    Matrix b = randomMatrix(200, 180, rng);
    expectBitwiseEqual(a.matmul(b), a.matmulNaive(b), "large matmul");
}

TEST(MatrixParallel, ReluSparseProductsAboveParallelThreshold)
{
    // A ReLU-sparse lhs (about half exact zeros, in no fixed pattern)
    // at 11.5M flops for every product: the pool splits the output
    // rows, and each worker lists its rows' nonzero depth indices in
    // its own thread-local scratch while the others do the same.
    Rng rng(4321);
    auto relu = [&rng](size_t rows, size_t cols) {
        Matrix m = randomMatrix(rows, cols, rng);
        for (double &v : m.data())
            v = v > 0.0 ? v : 0.0;
        return m;
    };
    Matrix a = relu(160, 200);
    Matrix b = randomMatrix(200, 180, rng);
    expectBitwiseEqual(a.matmul(b), a.matmulNaive(b), "sparse AB");
    Matrix bt = randomMatrix(180, 200, rng); // b transposed: 180 x 200
    expectBitwiseEqual(a.matmulTransposed(bt),
                       a.matmulNaive(bt.transposed()), "sparse ABt");
    Matrix at = relu(200, 160); // a transposed: depth 200 x 160
    expectBitwiseEqual(at.transposedMatmul(b),
                       at.transposed().matmulNaive(b), "sparse AtB");
}

TEST(MatrixParallel, MatmulIntoReusesOutput)
{
    Rng rng(8);
    Matrix a = randomMatrix(6, 10, rng);
    Matrix b = randomMatrix(10, 4, rng);
    Matrix out(31, 2, 7.0); // wrong shape, stale values
    a.matmulInto(b, out);
    expectBitwiseEqual(out, a.matmulNaive(b), "matmulInto");
}

TEST(MatrixParallel, MatmulTransposedMatchesNaive)
{
    Rng rng(77);
    const std::vector<std::array<size_t, 3>> shapes = {
        {1, 1, 1}, {4, 9, 6}, {1, 33, 17}, {25, 130, 3}, {64, 64, 64},
    };
    for (const auto &[m, k, n] : shapes) {
        Matrix a = randomMatrix(m, k, rng);
        Matrix bt = randomMatrix(n, k, rng); // b transposed: n x k
        expectBitwiseEqual(a.matmulTransposed(bt),
                           a.matmulNaive(bt.transposed()),
                           "matmulTransposed");
    }
}

TEST(MatrixParallel, TransposedMatmulMatchesNaive)
{
    Rng rng(31);
    const std::vector<std::array<size_t, 3>> shapes = {
        {1, 1, 1}, {9, 4, 6}, {33, 1, 17}, {130, 25, 3}, {64, 64, 64},
    };
    for (const auto &[k, m, n] : shapes) {
        Matrix at = randomMatrix(k, m, rng); // a transposed: k x m
        Matrix b = randomMatrix(k, n, rng);
        expectBitwiseEqual(at.transposedMatmul(b),
                           at.transposed().matmulNaive(b),
                           "transposedMatmul");
    }
}

TEST(MatrixParallel, RepeatedMatmulIsDeterministic)
{
    // Same operands, many runs: parallel scheduling must never leak
    // into results.
    Rng rng(55);
    Matrix a = randomMatrix(96, 96, rng);
    Matrix b = randomMatrix(96, 96, rng);
    Matrix first = a.matmul(b);
    for (int run = 0; run < 5; ++run)
        expectBitwiseEqual(a.matmul(b), first, "repeated matmul");
}

} // namespace
} // namespace nn
} // namespace geo
