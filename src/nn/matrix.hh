/**
 * @file
 * Dense row-major matrix of doubles.
 *
 * This is the numerical workhorse of the from-scratch neural-network
 * library. It intentionally supports only what the layers need: matmul,
 * transpose, elementwise arithmetic, row/column reductions and random
 * initialization. All shape violations are programming errors and panic.
 *
 * Performance notes: every product with more than one output column
 * (usePackedKernel in matrix.cc, the one routing rule) runs, in all
 * three orientations, a register-blocked micro-kernel over B panels
 * packed into contiguous column strips; a single output column takes
 * a plain loop. Each output row first lists its nonzero lhs depth
 * indices, without a branch on the data, and the kernel walks only
 * those, so the zero-lhs skip costs no mispredicted branches on
 * ReLU-sparse activations. The kernel is 4 lanes wide on hosts with
 * AVX2 (chosen once at run time) and 2 lanes otherwise. Each product
 * also comes in a row-range form that computes some output rows on
 * the calling thread, which is how a training team splits a batch
 * (Sequential); above a flop threshold a whole product splits its
 * rows across the global thread pool. Every
 * transform preserves the per-element ascending-k accumulation order,
 * the zero-lhs skip and the separate multiply and add (no FMA), so
 * results are bit-identical to the naive serial loop (matmulNaive,
 * kept as the test reference) at every width. Element bounds checks
 * are compiled in only when GEO_CHECK_BOUNDS is defined (the default
 * build); GEO_NATIVE release builds drop them from the hot loops.
 *
 * Every acquisition of a fresh element buffer (constructor, copy,
 * growth in reshape/assignment) bumps a process-wide counter,
 * allocationCount(), so tests can assert that steady-state hot loops
 * stop allocating once their scratch arenas are sized.
 */

#ifndef GEO_NN_MATRIX_HH
#define GEO_NN_MATRIX_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace geo {

class Rng;

namespace nn {

/**
 * Row-major matrix of doubles with shape-checked operations.
 */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix, zero-initialized. */
    Matrix(size_t rows, size_t cols);

    /** rows x cols matrix filled with `fill`. */
    Matrix(size_t rows, size_t cols, double fill);

    // Copies count buffer acquisitions (see allocationCount); moves
    // transfer the existing buffer and do not.
    Matrix(const Matrix &other);
    Matrix &operator=(const Matrix &other);
    Matrix(Matrix &&other) noexcept = default;
    Matrix &operator=(Matrix &&other) noexcept = default;

    /** Build from nested initializer data (rows of equal length). */
    static Matrix fromRows(
        const std::vector<std::vector<double>> &rows);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    double &
    at(size_t r, size_t c)
    {
#ifdef GEO_CHECK_BOUNDS
        if (r >= rows_ || c >= cols_)
            panicOutOfRange(r, c);
#endif
        return data_[r * cols_ + c];
    }

    double
    at(size_t r, size_t c) const
    {
#ifdef GEO_CHECK_BOUNDS
        if (r >= rows_ || c >= cols_)
            panicOutOfRange(r, c);
#endif
        return data_[r * cols_ + c];
    }

    double &operator()(size_t r, size_t c) { return at(r, c); }
    double operator()(size_t r, size_t c) const { return at(r, c); }

    const std::vector<double> &data() const { return data_; }
    std::vector<double> &data() { return data_; }

    /** Matrix product this(r,k) * other(k,c) (tiled, pool-parallel). */
    Matrix matmul(const Matrix &other) const;

    /** matmul computed into `out` (reshaped first). */
    void matmulInto(const Matrix &other, Matrix &out) const;

    /**
     * Rows [begin, end) of matmulInto, on the calling thread: `out`
     * must already have the product's shape, and its other rows are
     * left as they are. The two other products have the same form.
     */
    void matmulInto(const Matrix &other, Matrix &out, size_t begin,
                    size_t end) const;

    /**
     * Reference serial ikj product — the oracle the tiled/parallel
     * matmul must match bit-for-bit (used by tests and benchmarks).
     */
    Matrix matmulNaive(const Matrix &other) const;

    /** Product this(r,k) * other(c,k)^T without materializing the
     *  transpose (backward-pass hot path). */
    Matrix matmulTransposed(const Matrix &other) const;
    void matmulTransposedInto(const Matrix &other, Matrix &out) const;
    void matmulTransposedInto(const Matrix &other, Matrix &out,
                              size_t begin, size_t end) const;

    /** Product this(r,k)^T * other(r,c) without materializing the
     *  transpose (weight-gradient hot path). The row-range form
     *  computes output rows [begin, end), i.e. columns of this. */
    void transposedMatmulInto(const Matrix &other, Matrix &out) const;
    void transposedMatmulInto(const Matrix &other, Matrix &out,
                              size_t begin, size_t end) const;

    /** Transposed copy. */
    Matrix transposed() const;

    /** Elementwise sum (shapes must match). */
    Matrix operator+(const Matrix &other) const;
    Matrix &operator+=(const Matrix &other);

    /** Elementwise difference (shapes must match). */
    Matrix operator-(const Matrix &other) const;
    Matrix &operator-=(const Matrix &other);

    /** Elementwise (Hadamard) product. */
    Matrix hadamard(const Matrix &other) const;
    Matrix &hadamardInPlace(const Matrix &other);

    /** Scalar multiply. */
    Matrix operator*(double scalar) const;
    Matrix &operator*=(double scalar);

    /** Add a 1 x cols row vector to every row (bias broadcast). */
    Matrix &addRowBroadcastInPlace(const Matrix &row);

    /** Column-wise sums as a 1 x cols matrix. */
    Matrix columnSums() const;

    /** Columns [begin, end) of columnSums into `out`, which must
     *  already be 1 x cols — the training hot path, one column range
     *  per team member. */
    void columnSumsInto(Matrix &out, size_t begin, size_t end) const;

    /** Copy of row r as a 1 x cols matrix. */
    Matrix row(size_t r) const;

    /** Copy rows [begin, end) as an (end-begin) x cols matrix. */
    Matrix rowRange(size_t begin, size_t end) const;

    /** rowRange computed into `out`, reusing its allocation when
     *  capacity allows. */
    void rowRangeInto(size_t begin, size_t end, Matrix &out) const;

    /** Copy columns [begin, end). */
    Matrix colRange(size_t begin, size_t end) const;

    /** Paste `block` so its top-left lands at (r0, c0). */
    void setBlock(size_t r0, size_t c0, const Matrix &block);

    /** Apply a scalar function to every element (returns copy). */
    Matrix map(const std::function<double(double)> &fn) const;

    /** Set every element to zero. */
    void zero();

    /** Re-shape to rows x cols, reusing the allocation when capacity
     *  allows (scratch-buffer workhorse). The contents are left
     *  unspecified: a caller that needs zeros calls zero(). */
    void reshape(size_t rows, size_t cols);

    /** Fill with N(0, stddev) noise. */
    void fillNormal(Rng &rng, double stddev);

    /** He-normal initialization: N(0, sqrt(2 / fan_in)). */
    void fillHeNormal(Rng &rng, size_t fan_in);

    /** Xavier/Glorot-uniform initialization. */
    void fillXavierUniform(Rng &rng, size_t fan_in, size_t fan_out);

    /** Frobenius norm. */
    double norm() const;

    /** True if any element is NaN or infinite. */
    bool hasNonFinite() const;

    bool operator==(const Matrix &other) const
    {
        return rows_ == other.rows_ && cols_ == other.cols_ &&
               data_ == other.data_;
    }

    /**
     * Process-wide count of element-buffer acquisitions: non-empty
     * construction, copies, and any reshape/assignment that has to
     * grow capacity. Steady-state hot loops that reuse sized scratch
     * buffers leave this flat — tests/nn/test_alloc_regression.cc
     * pins that property for the retrain loop.
     */
    static uint64_t allocationCount()
    {
        return allocCount_.load(std::memory_order_relaxed);
    }

  private:
    [[noreturn]] void panicOutOfRange(size_t r, size_t c) const;

    static void
    countAllocation()
    {
        allocCount_.fetch_add(1, std::memory_order_relaxed);
    }

    static std::atomic<uint64_t> allocCount_;

    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<double> data_;
};

} // namespace nn
} // namespace geo

#endif // GEO_NN_MATRIX_HH
