/**
 * @file
 * Bit-identity tests for the packed register-blocked GEMM paths.
 *
 * test_matrix_parallel.cc covers small and boundary shapes; the shapes
 * here have more than one output column, so the Matrix products run
 * the B-panel packing and micro-tile code for all three orientations
 * (only a single output column takes matrix.cc's plain loops, which
 * NonFiniteRhsUnderZeroLhsIsSkipped also covers). Each product is also run
 * through detail::packedGemmInto, the entry point the Matrix products
 * dispatch to, at every lane width this host supports (2, and 4 with
 * AVX2), so the width the host does not pick is checked too. The
 * packed kernels may reorganize memory layout and tile traversal, but
 * every (i, j)'s depth index must still ascend with the naive loop's
 * zero-lhs skip, so results are required to be bitwise equal to
 * matmulNaive — not just close.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/matrix.hh"
#include "nn/packed_gemm.hh"
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

/** at^T * b, through transposedMatmulInto. */
Matrix
transposedProduct(const Matrix &at, const Matrix &b)
{
    Matrix out;
    at.transposedMatmulInto(b, out);
    return out;
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

using detail::GemmOp;

/** Lane widths this host can run: 2 everywhere, 4 with AVX2. */
std::vector<size_t>
laneWidths()
{
    std::vector<size_t> widths{2};
    if (detail::packedLanes() == 4)
        widths.push_back(4);
    return widths;
}

using Compare = void (*)(const Matrix &, const Matrix &, const char *);

/** `reference`'s shape with every element NaN: an element a product
 *  leaves unwritten shows against a finite reference. */
Matrix
nanLike(const Matrix &reference)
{
    return Matrix(reference.rows(), reference.cols(),
                  std::numeric_limits<double>::quiet_NaN());
}

/** op(a, b) on the packed path at every lane width, whole and in three
 *  row ranges (a short product leaves one empty), into an output of
 *  NaN, must match `reference` (bitwise, unless `compare` says
 *  otherwise). */
void
expectPackedWidthsMatch(GemmOp op, const Matrix &a, const Matrix &b,
                        const Matrix &reference, const char *what,
                        Compare compare = expectBitwiseEqual)
{
    const size_t m = reference.rows();
    for (size_t lanes : laneWidths()) {
        SCOPED_TRACE(testing::Message() << lanes << " lanes");
        for (size_t parts : {1u, 3u}) {
            Matrix out = nanLike(reference);
            for (size_t p = 0; p < parts; ++p)
                detail::packedGemmInto(op, a, b, out, lanes, m * p / parts,
                                       m * (p + 1) / parts);
            compare(out, reference, what);
        }
    }
}

/**
 * A Matrix product into outputs that start out NaN, whole (`whole`,
 * which reshapes to the shape the output already has) and in three
 * row ranges (`rows`): both must equal `reference` bitwise, so a path
 * that leaves an element unwritten fails.
 */
template <typename Whole, typename Rows>
void
expectEveryElementWritten(const Matrix &reference, Whole whole, Rows rows,
                          const char *what)
{
    Matrix out = nanLike(reference);
    whole(out);
    expectBitwiseEqual(out, reference, what);
    const size_t m = reference.rows();
    Matrix parts = nanLike(reference);
    for (size_t p = 0; p < 3; ++p)
        rows(parts, m * p / 3, m * (p + 1) / 3);
    expectBitwiseEqual(parts, reference, what);
}

#if defined(__x86_64__)
TEST(PackedKernels, HostWithAvx2RunsFourLanes)
{
    EXPECT_EQ(detail::packedLanes(),
              __builtin_cpu_supports("avx2") ? 4u : 2u);
}
#endif

TEST(PackedKernels, MatmulAboveCrossoverMatchesNaive)
{
    Rng rng(2024);
    // Widths exercise full panels, a narrow tail panel (n % 8 != 0)
    // and row tails (m % 4 != 0).
    const std::vector<std::array<size_t, 3>> shapes = {
        {128, 128, 128}, {130, 128, 121}, {64, 300, 37},
        {17, 256, 260},  {256, 64, 128},  {101, 101, 101},
    };
    for (const auto &[m, k, n] : shapes) {
        Matrix a = randomMatrix(m, k, rng);
        Matrix b = randomMatrix(k, n, rng);
        const Matrix ref = a.matmulNaive(b);
        expectBitwiseEqual(a.matmul(b), ref, "packed matmul");
        expectPackedWidthsMatch(GemmOp::AB, a, b, ref, "packed matmul");
    }
}

TEST(PackedKernels, MatmulTransposedAboveCrossoverMatchesNaive)
{
    Rng rng(2025);
    const std::vector<std::array<size_t, 3>> shapes = {
        {128, 128, 128}, {130, 150, 99}, {64, 400, 41}, {200, 80, 200},
    };
    for (const auto &[m, k, n] : shapes) {
        Matrix a = randomMatrix(m, k, rng);
        Matrix bt = randomMatrix(n, k, rng); // b transposed: n x k
        const Matrix ref = a.matmulNaive(bt.transposed());
        expectBitwiseEqual(a.matmulTransposed(bt), ref,
                           "packed matmulTransposed");
        expectPackedWidthsMatch(GemmOp::ABt, a, bt, ref,
                                "packed matmulTransposed");
    }
}

TEST(PackedKernels, TransposedMatmulAboveCrossoverMatchesNaive)
{
    Rng rng(2026);
    const std::vector<std::array<size_t, 3>> shapes = {
        {128, 128, 128}, {150, 130, 99}, {400, 64, 41}, {80, 200, 200},
    };
    for (const auto &[k, m, n] : shapes) {
        Matrix at = randomMatrix(k, m, rng); // a transposed: k x m
        Matrix b = randomMatrix(k, n, rng);
        const Matrix ref = at.transposed().matmulNaive(b);
        expectBitwiseEqual(transposedProduct(at, b), ref,
                           "packed transposedMatmul");
        expectPackedWidthsMatch(GemmOp::AtB, at, b, ref,
                                "packed transposedMatmul");
    }
}

TEST(PackedKernels, SparseLhsTakesZeroSkipPath)
{
    // ReLU activations hand the backward pass matrices full of exact
    // zeros; the packed kernels must take the same zero-lhs skips as
    // the naive loop (dropping them would change NaN/rounding
    // behaviour, not just speed).
    Rng rng(2027);
    Matrix a = randomMatrix(128, 128, rng);
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            if ((r * 31 + c) % 3 != 0)
                a.at(r, c) = 0.0;
    Matrix b = randomMatrix(128, 128, rng);
    const Matrix ab = a.matmulNaive(b);
    expectBitwiseEqual(a.matmul(b), ab, "sparse packed");
    expectPackedWidthsMatch(GemmOp::AB, a, b, ab, "sparse packed");
    Matrix bt = randomMatrix(128, 128, rng);
    const Matrix abt = a.matmulNaive(bt.transposed());
    expectBitwiseEqual(a.matmulTransposed(bt), abt, "sparse packed ABt");
    expectPackedWidthsMatch(GemmOp::ABt, a, bt, abt, "sparse packed ABt");
    const Matrix atb = a.transposed().matmulNaive(b);
    expectBitwiseEqual(transposedProduct(a, b), atb, "sparse packed AtB");
    expectPackedWidthsMatch(GemmOp::AtB, a, b, atb, "sparse packed AtB");
}

/** Bitwise equal, except that any NaN matches any NaN: when both
 *  addends of a sum are NaN, x86 returns the first operand's payload,
 *  and the compiler is free to order the operands of an add. */
void
expectSameBitsOrBothNan(const Matrix &a, const Matrix &b, const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        const double x = a.data()[i], y = b.data()[i];
        if (std::isnan(x) && std::isnan(y))
            continue;
        ASSERT_EQ(0, std::memcmp(&x, &y, sizeof(x)))
            << what << " differs at flat index " << i << ": " << x
            << " vs " << y;
    }
}

TEST(PackedKernels, NonFiniteRhsUnderZeroLhsIsSkipped)
{
    // The zero-lhs skip is what keeps 0 * inf and 0 * NaN out of a
    // sum. Every depth index in `dead` has an all-zero lhs slice (some
    // entries -0.0) and a rhs slice of +inf, -inf and NaN, so every
    // result is finite exactly when the skip holds. The rest of the lhs
    // is ReLU-sparse, and the widths leave full, partial (> 8) and
    // half (<= 8) panels. The last shape is model 1's output layer: one
    // output column, so every product takes a plain loop (A*B and A*B^T
    // matmulRows, A^T*B the rank-1 loop) and the skip there is pinned
    // too.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double poison[] = {inf, -inf, nan};
    const std::vector<std::array<size_t, 3>> shapes = {
        {37, 40, 29}, {20, 33, 21}, {64, 96, 48}, {64, 24, 1}};
    Rng rng(2028);
    for (const auto &[m, k, n] : shapes) {
        auto dead = [](size_t d) { return d % 5 == 2; };
        // lhs(i, d): ReLU-sparse, and zero on every dead depth index.
        auto lhs = [&](size_t i, size_t d) {
            if (dead(d))
                return (i + d) % 2 ? -0.0 : 0.0;
            const double v = rng.normal(0.0, 1.0);
            return v > 0.0 ? v : 0.0;
        };
        auto rhs = [&](size_t d, size_t j) {
            return dead(d) ? poison[(d + j) % 3] : rng.normal(0.0, 1.0);
        };
        Matrix a(m, k), at(k, m), b(k, n), bt(n, k);
        for (size_t i = 0; i < m; ++i)
            for (size_t d = 0; d < k; ++d)
                a.at(i, d) = at.at(d, i) = lhs(i, d);
        for (size_t d = 0; d < k; ++d)
            for (size_t j = 0; j < n; ++j)
                b.at(d, j) = bt.at(j, d) = rhs(d, j);

        const Matrix ab = a.matmulNaive(b);
        const Matrix abt = a.matmulNaive(bt.transposed());
        const Matrix atb = at.transposed().matmulNaive(b);
        ASSERT_FALSE(ab.hasNonFinite());
        ASSERT_FALSE(abt.hasNonFinite());
        ASSERT_FALSE(atb.hasNonFinite());
        expectBitwiseEqual(a.matmul(b), ab, "AB, poison skipped");
        expectPackedWidthsMatch(GemmOp::AB, a, b, ab, "AB, poison skipped");
        expectBitwiseEqual(a.matmulTransposed(bt), abt, "ABt, poison skipped");
        expectPackedWidthsMatch(GemmOp::ABt, a, bt, abt,
                                "ABt, poison skipped");
        expectBitwiseEqual(transposedProduct(at, b), atb,
                           "AtB, poison skipped");
        expectPackedWidthsMatch(GemmOp::AtB, at, b, atb,
                                "AtB, poison skipped");

        // A nonzero lhs over a poisoned slice must propagate it exactly
        // as the naive loop does.
        a.at(0, 2) = at.at(2, 0) = 1.5;
        a.at(m - 1, 7) = at.at(7, m - 1) = -0.25;
        const Matrix ab2 = a.matmulNaive(b);
        const Matrix abt2 = a.matmulNaive(bt.transposed());
        const Matrix atb2 = at.transposed().matmulNaive(b);
        ASSERT_TRUE(ab2.hasNonFinite());
        expectSameBitsOrBothNan(a.matmul(b), ab2, "AB, poison reached");
        expectPackedWidthsMatch(GemmOp::AB, a, b, ab2, "AB, poison reached",
                                expectSameBitsOrBothNan);
        expectSameBitsOrBothNan(a.matmulTransposed(bt), abt2,
                                "ABt, poison reached");
        expectPackedWidthsMatch(GemmOp::ABt, a, bt, abt2,
                                "ABt, poison reached",
                                expectSameBitsOrBothNan);
        expectSameBitsOrBothNan(transposedProduct(at, b), atb2,
                                "AtB, poison reached");
        expectPackedWidthsMatch(GemmOp::AtB, at, b, atb2,
                                "AtB, poison reached",
                                expectSameBitsOrBothNan);
    }
}

TEST(PackedKernels, RandomizedShapesAllProducts)
{
    // Fuzz over random shapes, then one shape of each class the fuzz
    // rarely or never draws: a single output column (the plain loops,
    // rank-1 for A^T*B) and zero depth. Whichever kernel a shape
    // takes, the result must not change, and every product, whole or
    // by row range, must write each element of an output that starts
    // out NaN.
    Rng rng(424242);
    auto check = [&](size_t m, size_t k, size_t n) {
        SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
        Matrix a = randomMatrix(m, k, rng);
        Matrix b = randomMatrix(k, n, rng);
        const Matrix ab = a.matmulNaive(b);
        expectEveryElementWritten(
            ab, [&](Matrix &out) { a.matmulInto(b, out); },
            [&](Matrix &out, size_t r0, size_t r1) {
                a.matmulInto(b, out, r0, r1);
            },
            "fuzz AB");
        expectPackedWidthsMatch(GemmOp::AB, a, b, ab, "fuzz AB");
        Matrix bt = randomMatrix(n, k, rng);
        const Matrix abt = a.matmulNaive(bt.transposed());
        expectEveryElementWritten(
            abt, [&](Matrix &out) { a.matmulTransposedInto(bt, out); },
            [&](Matrix &out, size_t r0, size_t r1) {
                a.matmulTransposedInto(bt, out, r0, r1);
            },
            "fuzz ABt");
        expectPackedWidthsMatch(GemmOp::ABt, a, bt, abt, "fuzz ABt");
        Matrix b2 = randomMatrix(m, n, rng);
        const Matrix atb = a.transposed().matmulNaive(b2);
        expectEveryElementWritten(
            atb, [&](Matrix &out) { a.transposedMatmulInto(b2, out); },
            [&](Matrix &out, size_t r0, size_t r1) {
                a.transposedMatmulInto(b2, out, r0, r1);
            },
            "fuzz AtB");
        expectPackedWidthsMatch(GemmOp::AtB, a, b2, atb, "fuzz AtB");
    };
    for (int iter = 0; iter < 25; ++iter) {
        const size_t m = static_cast<size_t>(rng.uniformInt(1, 128));
        const size_t k = static_cast<size_t>(rng.uniformInt(1, 128));
        const size_t n = static_cast<size_t>(rng.uniformInt(1, 128));
        check(m, k, n);
    }
    for (const auto &[m, k, n] : std::vector<std::array<size_t, 3>>{
             {64, 24, 1}, {1, 7, 1}, {9, 0, 7}, {9, 0, 1}, {0, 5, 3}})
        check(m, k, n);
}

TEST(PackedKernels, ColumnSumsIntoMatchesColumnSums)
{
    Rng rng(7);
    Matrix a = randomMatrix(33, 21, rng);
    Matrix out(1, 21, 5.0); // stale values
    a.columnSumsInto(out, 0, 8);
    a.columnSumsInto(out, 8, 8);
    a.columnSumsInto(out, 8, 21);
    expectBitwiseEqual(out, a.columnSums(), "columnSumsInto");
}

} // namespace
} // namespace nn
} // namespace geo
