#include "nn/matrix.hh"

#include <algorithm>
#include <cmath>
#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "nn/packed_gemm.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace geo {
namespace nn {

std::atomic<uint64_t> Matrix::allocCount_{0};

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
    if (!data_.empty())
        countAllocation();
}

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
    if (!data_.empty())
        countAllocation();
}

Matrix::Matrix(const Matrix &other)
    : rows_(other.rows_), cols_(other.cols_), data_(other.data_)
{
    if (!data_.empty())
        countAllocation();
}

Matrix &
Matrix::operator=(const Matrix &other)
{
    if (this == &other)
        return *this;
    // vector copy-assignment reuses the existing buffer when capacity
    // suffices; only a genuine regrow counts as an acquisition.
    if (other.data_.size() > data_.capacity())
        countAllocation();
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = other.data_;
    return *this;
}

Matrix
Matrix::fromRows(const std::vector<std::vector<double>> &rows)
{
    if (rows.empty())
        return Matrix();
    Matrix m(rows.size(), rows.front().size());
    for (size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].size() != m.cols_)
            panic("fromRows: ragged row %zu (%zu vs %zu)", r, rows[r].size(),
                  m.cols_);
        for (size_t c = 0; c < m.cols_; ++c)
            m.at(r, c) = rows[r][c];
    }
    return m;
}

void
Matrix::panicOutOfRange(size_t r, size_t c) const
{
    panic("Matrix::at(%zu, %zu) out of %zux%zu", r, c, rows_, cols_);
}

namespace {

using detail::GemmOp;

/**
 * Micro-tile width: output columns (one packed B panel). The tile is
 * one output row by sixteen columns, its accumulators held in vector
 * registers: four 4-lane ymm registers on AVX2 hosts, eight 2-lane xmm
 * registers otherwise, which leaves room for the broadcast and the
 * panel loads. The tile is one row high because the zero-lhs skip is
 * a per-row list of nonzero depth indices (see packedRows): a taller
 * tile would walk the union of its rows' lists and need the
 * per-element branch back.
 */
constexpr size_t kMicroCols = 16;

/** Row stride of a packed panel holding w live columns: narrow tail
 * panels are zero-padded up to half or full tile width so the
 * register kernels can run on every panel. */
constexpr size_t
panelStride(size_t w)
{
    return w <= 8 ? 8 : kMicroCols;
}

/** Flops (2*m*k*n) below which parallel dispatch is not worth it. */
constexpr double kParallelMinFlops = 8e6;

/**
 * Kernel selection, one rule: a product with a single output column
 * (n == 1) takes a plain loop; every other shape, in all three
 * orientations, takes the packed tile. Routing never changes a
 * result: both kernels are bitwise equal to matmulNaive.
 *
 * Measured on a 4-core AVX2 Xeon, packed time over plain time at both
 * widths: model 1's one-column products (its output layer's forward
 * and weight gradient) take 2-3.5x as long packed, so they stay
 * plain. The per-shape rules this one replaced also kept plain some
 * products the tile runs in 0.24-0.76x the time (fewer than 4 rows,
 * 4..15 rows once B leaves L2, k*n < 64) and some it runs in 0.6-1.6x
 * (A*B^T with n = 2-3, small A^T*B outputs). None of those shapes
 * occurs in the workloads, and each takes a few microseconds, so none
 * earns a rule of its own.
 */
bool
usePackedKernel(size_t n)
{
    return n != 1;
}

/** Doubles needed to hold all packed panels of a K x N operand. */
size_t
packedPanelDoubles(size_t K, size_t N)
{
    const size_t panels = (N + kMicroCols - 1) / kMicroCols;
    return panels * K * kMicroCols;
}

/**
 * Per-thread kernel scratch: two panel buffers (AtB packs both
 * operands) and the current lhs row's nonzero depth indices. Every
 * thread that runs a row range (a pool worker's chunk, a training
 * team's member) packs into its own. Capacity persists across calls,
 * so steady-state training loops never allocate here.
 */
std::vector<double> &
packScratchA()
{
    static thread_local std::vector<double> buf;
    return buf;
}

std::vector<double> &
packScratchB()
{
    static thread_local std::vector<double> buf;
    return buf;
}

std::vector<uint32_t> &
nonzeroScratch()
{
    static thread_local std::vector<uint32_t> buf;
    return buf;
}

/**
 * Pack B (depth x N row-major, row stride ldb) into kMicroCols-wide
 * column panels: panel p holds columns [p*W, p*W+w) as depth
 * contiguous rows of stride panelStride(w). Live columns are copied
 * verbatim — pad lanes are zero and are never stored by the kernels,
 * so results over the packed operand stay bitwise faithful.
 */
void
packColumnPanels(const double *__restrict b, size_t ldb, size_t depth,
                 size_t N, double *__restrict pack)
{
    for (size_t j0 = 0, p = 0; j0 < N; j0 += kMicroCols, ++p) {
        const size_t w = std::min(kMicroCols, N - j0);
        const size_t pw = panelStride(w);
        double *panel = pack + p * depth * kMicroCols;
        for (size_t k = 0; k < depth; ++k) {
            const double *src = b + k * ldb + j0;
            double *dst = panel + k * pw;
            for (size_t j = 0; j < w; ++j)
                dst[j] = src[j];
            for (size_t j = w; j < pw; ++j)
                dst[j] = 0.0;
        }
    }
}

/**
 * Pack B^T into column panels without materializing the transpose:
 * B is N x depth row-major; panel column j of the packed operand is
 * B's row (j0 + j), read contiguously along its depth axis.
 */
void
packTransposedPanels(const double *__restrict b, size_t depth, size_t N,
                     double *__restrict pack)
{
    for (size_t j0 = 0, p = 0; j0 < N; j0 += kMicroCols, ++p) {
        const size_t w = std::min(kMicroCols, N - j0);
        const size_t pw = panelStride(w);
        double *panel = pack + p * depth * kMicroCols;
        if (w < pw)
            std::fill(panel, panel + depth * pw, 0.0);
        for (size_t j = 0; j < w; ++j) {
            const double *src = b + (j0 + j) * depth;
            for (size_t k = 0; k < depth; ++k)
                panel[k * pw + j] = src[k];
        }
    }
}

/** Rows [k_begin, k_end) of the transpose of A (depth x K) into pack
 *  ((k_end - k_begin) x depth, row-major). */
void
packTransposedLhs(const double *__restrict a, size_t depth, size_t K,
                  size_t k_begin, size_t k_end, double *__restrict pack)
{
    for (size_t i = 0; i < depth; ++i) {
        const double *src = a + i * K;
        for (size_t k = k_begin; k < k_end; ++k)
            pack[(k - k_begin) * depth + i] = src[k];
    }
}

/**
 * One output row x Cols tile (Cols = kMicroCols, or 8 over a
 * zero-padded narrow tail panel) with Cols / Lanes vector
 * accumulators, walking the row's nonzero depth indices nz[0, count).
 * Per lane this is matmulNaive's loop exactly: ascending k, zero lhs
 * skipped, a multiply and then a separate add (the build uses
 * -ffp-contract=off, so no width fuses them into an FMA), one store
 * per element from a zeroed accumulator. All Cols lanes are stored:
 * for a partial panel the caller passes a scratch tile and copies the
 * live columns out, so pad lanes (lhs * 0.0) never reach the output.
 * With no data-dependent branch in the loop and an unconditional
 * store, GCC keeps the accumulator array in registers. always_inline:
 * the 4-lane copy has to be compiled inside its AVX2 wrapper.
 */
template <size_t Lanes, size_t Cols>
__attribute__((always_inline)) inline void
microTile(const double *__restrict a, const uint32_t *__restrict nz,
          size_t count, const double *__restrict panel,
          double *__restrict out)
{
    typedef double vec
        __attribute__((vector_size(Lanes * sizeof(double))));
    constexpr size_t kAcc = Cols / Lanes;
    vec acc[kAcc] = {};
    for (size_t t = 0; t < count; ++t) {
        const size_t k = nz[t];
        const double lhs = a[k];
        const double *__restrict bp = panel + k * Cols;
#pragma GCC unroll 8
        for (size_t v = 0; v < kAcc; ++v) {
            vec b;
            __builtin_memcpy(&b, bp + v * Lanes, sizeof(b));
            acc[v] += lhs * b;
        }
    }
#pragma GCC unroll 8
    for (size_t v = 0; v < kAcc; ++v)
        __builtin_memcpy(out + v * Lanes, &acc[v], sizeof(vec));
}

/**
 * Register-blocked product over pre-packed column panels for `rows`
 * output rows. `a` is the (possibly packed-transposed) lhs with row
 * stride K and `out` the first output row; `packed` holds
 * ceil(N / kMicroCols) panels from packColumnPanels /
 * packTransposedPanels; `nz` has room for K indices. Each row first
 * lists its nonzero depth indices, once and without a branch on the
 * data, and every panel of the row then walks that list. A
 * per-element `lhs == 0` branch mispredicts on ReLU activations, which
 * are about half zeros in a new pattern every batch. Each output
 * element still sees the full ascending walk, so the order of rows and
 * panels cannot change any value.
 */
template <size_t Lanes>
__attribute__((always_inline)) inline void
packedRows(const double *__restrict a, const double *__restrict packed,
           double *__restrict out, size_t rows, size_t K, size_t N,
           uint32_t *__restrict nz)
{
    for (size_t i = 0; i < rows; ++i) {
        const double *__restrict row = a + i * K;
        size_t count = 0;
        for (size_t k = 0; k < K; ++k) {
            nz[count] = static_cast<uint32_t>(k);
            count += row[k] != 0.0;
        }
        double *__restrict out_row = out + i * N;
        for (size_t j0 = 0, p = 0; j0 < N; j0 += kMicroCols, ++p) {
            const size_t w = std::min(kMicroCols, N - j0);
            const double *__restrict panel = packed + p * K * kMicroCols;
            // A panel whose live columns fill its stride (16, or 8 for
            // a tail) stores straight into the output; a partial one
            // goes through a scratch tile.
            double tile[kMicroCols];
            double *dst = w == panelStride(w) ? out_row + j0 : tile;
            if (w > 8)
                microTile<Lanes, kMicroCols>(row, nz, count, panel, dst);
            else
                microTile<Lanes, 8>(row, nz, count, panel, dst);
            if (dst == tile)
                std::copy_n(tile, w, out_row + j0);
        }
    }
}

using PackedRowsFn = void (*)(const double *, const double *, double *,
                              size_t, size_t, size_t, uint32_t *);

/** Two lanes: baseline x86-64, the only width on hosts without AVX2. */
// noinline: keeps the __restrict qualification from being discarded
// when inlined into its caller.
__attribute__((noinline)) void
packedRows2(const double *__restrict a, const double *__restrict packed,
            double *__restrict out, size_t rows, size_t K, size_t N,
            uint32_t *__restrict nz)
{
    packedRows<2>(a, packed, out, rows, K, N, nz);
}

#if defined(__x86_64__)
/** Four lanes, compiled for AVX2 only; packedLanes() picks it at run
 *  time on hosts that have it. */
__attribute__((noinline, target("avx2"))) void
packedRows4(const double *__restrict a, const double *__restrict packed,
            double *__restrict out, size_t rows, size_t K, size_t N,
            uint32_t *__restrict nz)
{
    packedRows<4>(a, packed, out, rows, K, N, nz);
}
#endif

/**
 * Plain ikj kernel over output rows [row_begin, row_end), accumulating
 * into them: the single-column path. Identical loop to matmulNaive
 * restricted to a row range.
 */
// noinline: inlining into its caller discards the __restrict
// qualification and the inner-loop bound spills to the stack.
__attribute__((noinline)) void
matmulRows(const double *__restrict a, const double *__restrict b,
           double *__restrict out, size_t row_begin, size_t row_end,
           size_t K, size_t N)
{
    for (size_t i = row_begin; i < row_end; ++i) {
        const double *a_row = a + i * K;
        double *out_row = out + i * N;
        for (size_t k = 0; k < K; ++k) {
            const double lhs = a_row[k];
            if (lhs == 0.0)
                continue;
            const double *b_row = b + k * N;
            for (size_t j = 0; j < N; ++j)
                out_row[j] += lhs * b_row[j];
        }
    }
}

/**
 * Output rows [row_begin, row_end) of a (depth x K)^T * b (depth x N)
 * as rank-1 updates in ascending depth order, accumulating into them:
 * per output element the shared depth index ascends exactly as in
 * transposed().matmulNaive(b).
 */
void
rankOneRows(const double *__restrict a, const double *__restrict b,
            double *__restrict out, size_t row_begin, size_t row_end,
            size_t depth, size_t K, size_t N)
{
    for (size_t i = 0; i < depth; ++i) {
        const double *a_row = a + i * K;
        const double *b_row = b + i * N;
        for (size_t k = row_begin; k < row_end; ++k) {
            const double lhs = a_row[k];
            if (lhs == 0.0)
                continue;
            double *out_row = out + k * N;
            for (size_t j = 0; j < N; ++j)
                out_row[j] += lhs * b_row[j];
        }
    }
}

/**
 * Output rows [begin, end) of op(a, b) into `out`, which has the
 * product's shape, on the calling thread. The plain single-column
 * loops accumulate, so they and a zero-depth product start from
 * zeroed rows; the packed tile overwrites every element of its rows.
 */
void
productRows(GemmOp op, const Matrix &a, const Matrix &b, Matrix &out,
            size_t begin, size_t end)
{
    const size_t K = op == GemmOp::AtB ? a.rows() : a.cols();
    const size_t N = out.cols();
    if (begin == end)
        return;
    if (K > 0 && usePackedKernel(N)) {
        detail::packedGemmInto(op, a, b, out, detail::packedLanes(), begin,
                               end);
        return;
    }
    double *o = out.data().data();
    std::fill(o + begin * N, o + end * N, 0.0);
    if (K == 0)
        return;
    // With one output column, B^T's single row is laid out as the
    // K x 1 column an A*B product reads, so the plain A*B loop serves.
    if (op == GemmOp::AtB)
        rankOneRows(a.data().data(), b.data().data(), o, begin, end,
                    a.rows(), a.cols(), N);
    else
        matmulRows(a.data().data(), b.data().data(), o, begin, end, K, N);
}

/**
 * A whole product: out's rows in one productRows call, or, above
 * kParallelMinFlops, in row chunks across the global pool (each chunk
 * packs its own panels). Rows are independent, so chunking cannot
 * change results.
 */
void
wholeProduct(GemmOp op, const Matrix &a, const Matrix &b, Matrix &out)
{
    const size_t rows = out.rows();
    const size_t K = op == GemmOp::AtB ? a.rows() : a.cols();
    util::ThreadPool &pool = util::ThreadPool::global();
    const double flops = 2.0 * static_cast<double>(rows) *
                         static_cast<double>(K) *
                         static_cast<double>(out.cols());
    if (pool.workerCount() > 1 && flops >= kParallelMinFlops && rows > 1) {
        size_t grain =
            std::max<size_t>(1, rows / (4 * pool.workerCount()));
        pool.parallelFor(rows, grain,
                         [&](size_t, size_t begin, size_t end) {
                             productRows(op, a, b, out, begin, end);
                         });
    } else {
        productRows(op, a, b, out, 0, rows);
    }
}

/** Panic unless `out` has the m x n shape and [begin, end) is in it. */
void
checkRowRange(const char *who, const Matrix &out, size_t m, size_t n,
              size_t begin, size_t end)
{
    if (out.rows() != m || out.cols() != n || begin > end || end > m)
        panic("%s: rows [%zu, %zu) of a %zux%zu product into %zux%zu", who,
              begin, end, m, n, out.rows(), out.cols());
}

} // namespace

namespace detail {

// Reads CPUID and XCR0 itself: __builtin_cpu_supports would link
// libgcc's cpu-model constructor, 4.5 KB of start-up code that the
// linker places ahead of every binary's own code, moving all of its
// loops (perfbench's speed probe among them, ROADMAP item 6).
size_t
packedLanes()
{
#if defined(__x86_64__)
    static const size_t lanes = [] {
        // AVX2 needs the CPU feature and an OS that saves ymm state.
        unsigned eax, ebx, ecx, edx;
        if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) ||
            !(ecx & bit_OSXSAVE) || !(ecx & bit_AVX))
            return size_t{2};
        unsigned xcr0, xcr0_high;
        asm("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
        if ((xcr0 & 0x6) != 0x6) // XMM and YMM state enabled
            return size_t{2};
        if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
            return size_t{2};
        return ebx & bit_AVX2 ? size_t{4} : size_t{2};
    }();
    return lanes;
#else
    return 2;
#endif
}

void
packedGemmInto(GemmOp op, const Matrix &a, const Matrix &b, Matrix &out,
               size_t lanes, size_t row_begin, size_t row_end)
{
    // The product in output orientation: m x K times K x N.
    const bool lhs_transposed = op == GemmOp::AtB;
    const size_t m = lhs_transposed ? a.cols() : a.rows();
    const size_t K = lhs_transposed ? a.rows() : a.cols();
    const size_t N = op == GemmOp::ABt ? b.rows() : b.cols();
    const size_t b_depth = op == GemmOp::ABt ? b.cols() : b.rows();
    if (b_depth != K || out.rows() != m || out.cols() != N ||
        row_begin > row_end || row_end > m)
        panic("packedGemmInto: rows [%zu, %zu) of %zux%zu and %zux%zu into "
              "%zux%zu", row_begin, row_end, a.rows(), a.cols(), b.rows(),
              b.cols(), out.rows(), out.cols());
    PackedRowsFn kernel = nullptr;
    if (lanes == 2)
        kernel = packedRows2;
#if defined(__x86_64__)
    else if (lanes == 4 && packedLanes() == 4)
        kernel = packedRows4;
#endif
    if (!kernel)
        panic("packedGemmInto: no %zu-lane kernel on this host", lanes);
    if (row_begin == row_end || N == 0)
        return;

    const double *lhs = a.data().data() + row_begin * K;
    std::vector<double> &pack = packScratchB();
    pack.resize(packedPanelDoubles(K, N));
    if (op == GemmOp::ABt) {
        // Packing B^T into column panels turns the strided dot-product
        // walk into the same contiguous panel sweep as matmul.
        packTransposedPanels(b.data().data(), K, N, pack.data());
    } else {
        packColumnPanels(b.data().data(), N, K, N, pack.data());
    }
    if (lhs_transposed) {
        // The micro-tile reads lhs rows contiguously, so the range's
        // rows of A^T are packed explicitly; the shared row index
        // still ascends per output element exactly as in
        // transposed().matmulNaive(b).
        std::vector<double> &at = packScratchA();
        at.resize(K * (row_end - row_begin));
        packTransposedLhs(a.data().data(), K, m, row_begin, row_end,
                          at.data());
        lhs = at.data();
    }
    std::vector<uint32_t> &nz = nonzeroScratch();
    if (nz.size() < K)
        nz.resize(K);
    kernel(lhs, pack.data(), out.data().data() + row_begin * N,
           row_end - row_begin, K, N, nz.data());
}

} // namespace detail

Matrix
Matrix::matmul(const Matrix &other) const
{
    Matrix out;
    matmulInto(other, out);
    return out;
}

void
Matrix::matmulInto(const Matrix &other, Matrix &out) const
{
    if (cols_ != other.rows_)
        panic("matmul shape mismatch: %zux%zu * %zux%zu", rows_, cols_,
              other.rows_, other.cols_);
    if (&out == this || &out == &other)
        panic("matmulInto: output must not alias an operand");
    out.reshape(rows_, other.cols_);
    wholeProduct(GemmOp::AB, *this, other, out);
}

void
Matrix::matmulInto(const Matrix &other, Matrix &out, size_t begin,
                   size_t end) const
{
    if (cols_ != other.rows_ || &out == this || &out == &other)
        panic("matmulInto: %zux%zu * %zux%zu", rows_, cols_, other.rows_,
              other.cols_);
    checkRowRange("matmulInto", out, rows_, other.cols_, begin, end);
    productRows(GemmOp::AB, *this, other, out, begin, end);
}

Matrix
Matrix::matmulNaive(const Matrix &other) const
{
    if (cols_ != other.rows_)
        panic("matmul shape mismatch: %zux%zu * %zux%zu", rows_, cols_,
              other.rows_, other.cols_);
    Matrix out(rows_, other.cols_);
    // ikj loop order: the inner loop strides contiguously through both
    // the output row and the rhs row. Pointer arithmetic, not &v[i]:
    // a zero-depth operand has no element to index.
    for (size_t i = 0; i < rows_; ++i) {
        const double *lhs_row = data_.data() + i * cols_;
        double *out_row = out.data_.data() + i * other.cols_;
        for (size_t k = 0; k < cols_; ++k) {
            double lhs = lhs_row[k];
            if (lhs == 0.0)
                continue;
            const double *rhs_row = other.data_.data() + k * other.cols_;
            for (size_t j = 0; j < other.cols_; ++j)
                out_row[j] += lhs * rhs_row[j];
        }
    }
    return out;
}

Matrix
Matrix::matmulTransposed(const Matrix &other) const
{
    Matrix out;
    matmulTransposedInto(other, out);
    return out;
}

void
Matrix::matmulTransposedInto(const Matrix &other, Matrix &out) const
{
    if (cols_ != other.cols_)
        panic("matmulTransposed shape mismatch: %zux%zu * (%zux%zu)^T",
              rows_, cols_, other.rows_, other.cols_);
    if (&out == this || &out == &other)
        panic("matmulTransposedInto: output must not alias an operand");
    out.reshape(rows_, other.rows_);
    wholeProduct(GemmOp::ABt, *this, other, out);
}

void
Matrix::matmulTransposedInto(const Matrix &other, Matrix &out, size_t begin,
                             size_t end) const
{
    if (cols_ != other.cols_ || &out == this || &out == &other)
        panic("matmulTransposedInto: %zux%zu * (%zux%zu)^T", rows_, cols_,
              other.rows_, other.cols_);
    checkRowRange("matmulTransposedInto", out, rows_, other.rows_, begin,
                  end);
    productRows(GemmOp::ABt, *this, other, out, begin, end);
}

void
Matrix::transposedMatmulInto(const Matrix &other, Matrix &out) const
{
    if (rows_ != other.rows_)
        panic("transposedMatmul shape mismatch: (%zux%zu)^T * %zux%zu",
              rows_, cols_, other.rows_, other.cols_);
    if (&out == this || &out == &other)
        panic("transposedMatmulInto: output must not alias an operand");
    out.reshape(cols_, other.cols_);
    wholeProduct(GemmOp::AtB, *this, other, out);
}

void
Matrix::transposedMatmulInto(const Matrix &other, Matrix &out, size_t begin,
                             size_t end) const
{
    if (rows_ != other.rows_ || &out == this || &out == &other)
        panic("transposedMatmulInto: (%zux%zu)^T * %zux%zu", rows_, cols_,
              other.rows_, other.cols_);
    checkRowRange("transposedMatmulInto", out, cols_, other.cols_, begin,
                  end);
    productRows(GemmOp::AtB, *this, other, out, begin, end);
}

Matrix
Matrix::transposed() const
{
    Matrix out(cols_, rows_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            out.data_[c * rows_ + r] = data_[r * cols_ + c];
    return out;
}

Matrix
Matrix::operator+(const Matrix &other) const
{
    Matrix out = *this;
    out += other;
    return out;
}

Matrix &
Matrix::operator+=(const Matrix &other)
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        panic("operator+= shape mismatch: %zux%zu vs %zux%zu", rows_, cols_,
              other.rows_, other.cols_);
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Matrix
Matrix::operator-(const Matrix &other) const
{
    Matrix out = *this;
    out -= other;
    return out;
}

Matrix &
Matrix::operator-=(const Matrix &other)
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        panic("operator-= shape mismatch: %zux%zu vs %zux%zu", rows_, cols_,
              other.rows_, other.cols_);
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] -= other.data_[i];
    return *this;
}

Matrix
Matrix::hadamard(const Matrix &other) const
{
    Matrix out = *this;
    out.hadamardInPlace(other);
    return out;
}

Matrix &
Matrix::hadamardInPlace(const Matrix &other)
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        panic("hadamard shape mismatch: %zux%zu vs %zux%zu", rows_, cols_,
              other.rows_, other.cols_);
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] *= other.data_[i];
    return *this;
}

Matrix
Matrix::operator*(double scalar) const
{
    Matrix out = *this;
    out *= scalar;
    return out;
}

Matrix &
Matrix::operator*=(double scalar)
{
    for (double &v : data_)
        v *= scalar;
    return *this;
}

Matrix &
Matrix::addRowBroadcastInPlace(const Matrix &rowvec)
{
    if (rowvec.rows_ != 1 || rowvec.cols_ != cols_)
        panic("addRowBroadcast: bias is %zux%zu, need 1x%zu", rowvec.rows_,
              rowvec.cols_, cols_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            data_[r * cols_ + c] += rowvec.data_[c];
    return *this;
}

Matrix
Matrix::columnSums() const
{
    Matrix out(1, cols_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            out.data_[c] += data_[r * cols_ + c];
    return out;
}

void
Matrix::columnSumsInto(Matrix &out, size_t begin, size_t end) const
{
    if (&out == this)
        panic("columnSumsInto: output must not alias the source");
    if (out.rows_ != 1 || out.cols_ != cols_ || begin > end || end > cols_)
        panic("columnSumsInto: columns [%zu, %zu) of %zu into %zux%zu",
              begin, end, cols_, out.rows_, out.cols_);
    // Same ascending-row accumulation as columnSums, so the result is
    // bit-identical to the allocating variant.
    double *sums = out.data_.data();
    std::fill(sums + begin, sums + end, 0.0);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = begin; c < end; ++c)
            sums[c] += data_[r * cols_ + c];
}

Matrix
Matrix::row(size_t r) const
{
    return rowRange(r, r + 1);
}

Matrix
Matrix::rowRange(size_t begin, size_t end) const
{
    Matrix out;
    rowRangeInto(begin, end, out);
    return out;
}

void
Matrix::rowRangeInto(size_t begin, size_t end, Matrix &out) const
{
    if (begin > end || end > rows_)
        panic("rowRange [%zu, %zu) out of %zu rows", begin, end, rows_);
    if (&out == this)
        panic("rowRangeInto: output must not alias the source");
    // vector::assign reuses the buffer when capacity suffices; only a
    // genuine regrow counts as an acquisition.
    if ((end - begin) * cols_ > out.data_.capacity())
        countAllocation();
    out.rows_ = end - begin;
    out.cols_ = cols_;
    out.data_.assign(data_.begin() + static_cast<long>(begin * cols_),
                     data_.begin() + static_cast<long>(end * cols_));
}

Matrix
Matrix::colRange(size_t begin, size_t end) const
{
    if (begin > end || end > cols_)
        panic("colRange [%zu, %zu) out of %zu cols", begin, end, cols_);
    Matrix out(rows_, end - begin);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = begin; c < end; ++c)
            out.data_[r * out.cols_ + (c - begin)] = data_[r * cols_ + c];
    return out;
}

void
Matrix::setBlock(size_t r0, size_t c0, const Matrix &block)
{
    if (r0 + block.rows_ > rows_ || c0 + block.cols_ > cols_)
        panic("setBlock %zux%zu at (%zu, %zu) overflows %zux%zu",
              block.rows_, block.cols_, r0, c0, rows_, cols_);
    for (size_t r = 0; r < block.rows_; ++r)
        for (size_t c = 0; c < block.cols_; ++c)
            data_[(r0 + r) * cols_ + (c0 + c)] =
                block.data_[r * block.cols_ + c];
}

Matrix
Matrix::map(const std::function<double(double)> &fn) const
{
    Matrix out = *this;
    for (double &v : out.data_)
        v = fn(v);
    return out;
}

void
Matrix::zero()
{
    std::fill(data_.begin(), data_.end(), 0.0);
}

void
Matrix::reshape(size_t rows, size_t cols)
{
    // vector::resize reuses the buffer when capacity suffices; only a
    // genuine regrow counts as an acquisition.
    if (rows * cols > data_.capacity())
        countAllocation();
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
}

void
Matrix::fillNormal(Rng &rng, double stddev)
{
    for (double &v : data_)
        v = rng.normal(0.0, stddev);
}

void
Matrix::fillHeNormal(Rng &rng, size_t fan_in)
{
    fillNormal(rng, std::sqrt(2.0 / static_cast<double>(fan_in ? fan_in : 1)));
}

void
Matrix::fillXavierUniform(Rng &rng, size_t fan_in, size_t fan_out)
{
    double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
    for (double &v : data_)
        v = rng.uniform(-limit, limit);
}

double
Matrix::norm() const
{
    double total = 0.0;
    for (double v : data_)
        total += v * v;
    return std::sqrt(total);
}

bool
Matrix::hasNonFinite() const
{
    for (double v : data_)
        if (!std::isfinite(v))
            return true;
    return false;
}

} // namespace nn
} // namespace geo
