#include "nn/matrix.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string_view>

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

/**
 * Micro-tile width: output columns (one packed B panel). The tile is
 * one output row by sixteen columns — eight two-lane vector
 * accumulators, which is half the SSE register file and leaves room
 * for the broadcast and panel loads. Taller tiles (4 x 8 doubles =
 * all sixteen xmm registers) spill the accumulators to the stack and
 * every update round-trips through memory — measured ~1.45x slower
 * at the training shapes.
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

/** Which product a kernel plan is being asked about. */
enum class GemmOp
{
    AB,  ///< matmul:            out(m,n) = A(m,k) * B(k,n)
    ABt, ///< matmulTransposed:  out(m,n) = A(m,k) * B(n,k)^T
    AtB, ///< transposedMatmul:  out(m,n) = A(k,m)^T * B(k,n)
};

/**
 * Shape-dependent kernel selection — the single source of truth.
 *
 * The packed register-blocked kernel pays one pass over B (and, for
 * AtB, one over A) to lay panels out contiguously, then writes each
 * output element exactly once from a register accumulator. The plain
 * loops skip that toll but re-walk the output (AB, AtB) or serialize
 * on a dot-product chain (ABt), so they win only while everything
 * fits in cache and the packing pass cannot be amortized.
 *
 * Crossovers measured on the 1-core container (GCC, -O2, best-of-25
 * per shape, packing cost charged to the packed side; speedup =
 * plain_ms / packed_ms). Shapes are m x k x n of the *output-shaped*
 * product, i.e. out is m x n and k is the depth axis. With the
 * register-resident vector tiles the packed kernel wins nearly
 * everywhere; only degenerate shapes still favor the plain loops:
 *
 *   AB   16x16x16  2.70x   48x48x48  3.85x   256x256x256  3.19x
 *        512x64x512  2.76x   64x6x338  3.05x   8x64x64  2.73x
 *        8x8x8  1.26x   64x1x64  2.82x   64x64x6  2.12x
 *        -- losers --
 *        1x64x64  0.65x   1x338x338  0.34x  (single output row
 *        cannot amortize the pack pass over B)
 *        2x338x338  0.61x   2x128x256  0.77x   3x16x4  0.56x
 *        (2-3 rows amortize packing only in a narrow band; routed
 *        plain below 4 rows, and 4..15 rows only while B stays
 *        L2-resident at k*n <= 16K doubles: 3x338x338 is 0.76x)
 *        64x64x1  0.98x   4x4x4  0.53x  (k*n < 64: tile setup
 *        dominates the whole product)
 *   ABt  1x64x64  1.28x   2x8x8  1.36x   2x64x64  2.37x
 *        64x96x4  2.77x   64x96x6  3.72x   64x1x64  5.58x
 *        48x48x48  6.67x   256x256x256  5.70x   64x338x6  3.30x
 *        (even one output row wins: the plain loop serializes on a
 *        dot-product chain per element and strides B)
 *        -- losers --
 *        64x96x1  0.62x   1x338x1  0.37x  (panel padded 1 -> 8
 *        wide, 8x pack bandwidth wasted)
 *        2x2x2  0.33x   4x16x2  0.66x   2x256x2  0.98x
 *        (n = 2-3 pays only when the a-side traffic m*k dominates
 *        the pack: 64x96x2 is 1.27x, 8x338x2 is 1.02x)
 *   AtB  4x64x96  1.72x   6x64x96  1.98x   6x2x96  1.82x
 *        24x64x4  1.47x   48x64x6  2.12x   16x16x16  2.21x
 *        256x256x256  2.78x
 *        -- losers --
 *        1x64x96  0.54x   2x64x4  0.45x   3x4x5  0.43x
 *        16x64x2  0.80x   24x64x1  0.61x   4x338x8  0.99x
 *        2x2x96 (depth 2)  0.94x  (both operands are packed, so
 *        small outputs never amortize the two passes: needs 4+ rows,
 *        4+ cols and m*n >= 64 output elements)
 */
/**
 * Calibration override: GEO_GEMM_FORCE=plain|packed pins every shape
 * to one kernel. This is how the crossover table above is measured —
 * time the same workload under both settings in the shipping binary —
 * and it is a production escape hatch if a host routes a shape badly.
 */
int
forcedKernel()
{
    static const int force = [] {
        const char *env = std::getenv("GEO_GEMM_FORCE");
        if (env == nullptr)
            return 0;
        if (std::string_view(env) == "plain")
            return 1;
        if (std::string_view(env) == "packed")
            return 2;
        return 0;
    }();
    return force;
}

bool
usePackedKernel(GemmOp op, size_t m, size_t k, size_t n)
{
    const int force = forcedKernel();
    if (force == 1)
        return false;
    if (force == 2)
        return true;
    switch (op) {
      case GemmOp::AB:
        // k*n >= 64 keeps tile setup from dominating tiny products;
        // few-row products amortize the B pack only while B stays
        // L2-resident (16K doubles = 128 KiB).
        return n >= 2 && k * n >= 64 &&
               (m >= 16 || (m >= 4 && k * n <= 16384));
      case GemmOp::ABt:
        // The plain loop serializes on one dot-product chain per
        // output element, so even one output row wins; n = 2-3 pays
        // only when the a-side traffic dwarfs the pack pass.
        return n >= 4 || (n >= 2 && m * k >= 2048);
      case GemmOp::AtB:
        // Both operands are packed here, so the output has to be
        // large enough in both directions to amortize two passes.
        return m >= 4 && n >= 4 && m * n >= 64;
    }
    return false;
}

/** Doubles needed to hold all packed panels of a K x N operand. */
size_t
packedPanelDoubles(size_t K, size_t N)
{
    const size_t panels = (N + kMicroCols - 1) / kMicroCols;
    return panels * K * kMicroCols;
}

/**
 * Per-thread panel scratch. Two independent buffers because AtB packs
 * both operands; capacity persists across calls, so steady-state
 * training loops never allocate here.
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

/** Transpose A (rows x K) into pack (K x rows, row-major). */
void
packTransposedLhs(const double *__restrict a, size_t rows, size_t K,
                  double *__restrict pack)
{
    for (size_t i = 0; i < rows; ++i) {
        const double *src = a + i * K;
        for (size_t k = 0; k < K; ++k)
            pack[k * rows + i] = src[k];
    }
}

/**
 * Two-lane vector helpers for the micro-tiles. A scalar accumulator
 * array (`double acc[16]`) does not survive the zero-skip branch: the
 * compiler keeps the array in memory and every update round-trips
 * through the stack. Named vector locals force register allocation.
 * Lane arithmetic is the same IEEE double multiply/add the scalar
 * loop performs, in the same ascending-k order with the same zero-lhs
 * skip, so results stay bit-identical to matmulNaive (which also
 * starts from a zeroed accumulator and stores each element once).
 */
typedef double v2df __attribute__((vector_size(16), may_alias));

inline v2df
loadu2(const double *p)
{
    v2df v;
    __builtin_memcpy(&v, p, sizeof(v));
    return v;
}

inline void
storeu2(double *p, v2df v)
{
    __builtin_memcpy(p, &v, sizeof(v));
}

/** 1 x kMicroCols tile with register-resident accumulators. */
inline void
microTileFull(const double *__restrict a, size_t K,
              const double *__restrict panel, double *__restrict out)
{
    static_assert(kMicroCols == 16, "accumulator count is hand-unrolled");
    v2df c0{}, c1{}, c2{}, c3{}, c4{}, c5{}, c6{}, c7{};
    for (size_t k = 0; k < K; ++k) {
        const double lhs = a[k];
        if (lhs == 0.0)
            continue;
        const v2df l = {lhs, lhs};
        const double *__restrict bp = panel + k * kMicroCols;
        c0 += l * loadu2(bp);
        c1 += l * loadu2(bp + 2);
        c2 += l * loadu2(bp + 4);
        c3 += l * loadu2(bp + 6);
        c4 += l * loadu2(bp + 8);
        c5 += l * loadu2(bp + 10);
        c6 += l * loadu2(bp + 12);
        c7 += l * loadu2(bp + 14);
    }
    storeu2(out, c0);
    storeu2(out + 2, c1);
    storeu2(out + 4, c2);
    storeu2(out + 6, c3);
    storeu2(out + 8, c4);
    storeu2(out + 10, c5);
    storeu2(out + 12, c6);
    storeu2(out + 14, c7);
}

/** 1 x 8 tile over a stride-8 (padded) panel; stores w <= 8 columns.
 * Pad lanes accumulate lhs * 0.0 in their own register lane and are
 * never stored, so live columns are untouched by the padding. */
inline void
microTileHalf(const double *__restrict a, size_t K,
              const double *__restrict panel, double *__restrict out,
              size_t w)
{
    v2df c0{}, c1{}, c2{}, c3{};
    for (size_t k = 0; k < K; ++k) {
        const double lhs = a[k];
        if (lhs == 0.0)
            continue;
        const v2df l = {lhs, lhs};
        const double *__restrict bp = panel + k * 8;
        c0 += l * loadu2(bp);
        c1 += l * loadu2(bp + 2);
        c2 += l * loadu2(bp + 4);
        c3 += l * loadu2(bp + 6);
    }
    if (w == 8) {
        storeu2(out, c0);
        storeu2(out + 2, c1);
        storeu2(out + 4, c2);
        storeu2(out + 6, c3);
        return;
    }
    double t[8];
    storeu2(t, c0);
    storeu2(t + 2, c1);
    storeu2(t + 4, c2);
    storeu2(t + 6, c3);
    for (size_t j = 0; j < w; ++j)
        out[j] = t[j];
}

/** Full-width register tile with a partial store for 8 < w < 16. */
inline void
microTileFullPartial(const double *__restrict a, size_t K,
                     const double *__restrict panel,
                     double *__restrict out, size_t w)
{
    double t[kMicroCols];
    microTileFull(a, K, panel, t);
    for (size_t j = 0; j < w; ++j)
        out[j] = t[j];
}

/**
 * Register-blocked product over pre-packed column panels for output
 * rows [row_begin, row_end). `a` is the (possibly packed-transposed)
 * lhs with row stride K; `packed` holds ceil(N / W) panels from
 * packColumnPanels / packTransposedPanels. Panels are visited
 * left-to-right and rows top-down, but each output element's depth
 * walk is the full ascending 0..K-1, so ordering across tiles cannot
 * change any value.
 */
// noinline: keeps the __restrict qualification from being discarded
// when inlined into the dispatching member functions.
__attribute__((noinline)) void
gemmPackedRows(const double *__restrict a, const double *__restrict packed,
               double *__restrict out, size_t row_begin, size_t row_end,
               size_t K, size_t N)
{
    for (size_t j0 = 0, p = 0; j0 < N; j0 += kMicroCols, ++p) {
        const size_t w = std::min(kMicroCols, N - j0);
        const double *panel = packed + p * K * kMicroCols;
        if (w == kMicroCols) {
            for (size_t i = row_begin; i < row_end; ++i)
                microTileFull(a + i * K, K, panel, out + i * N + j0);
        } else if (w > 8) {
            for (size_t i = row_begin; i < row_end; ++i)
                microTileFullPartial(a + i * K, K, panel,
                                     out + i * N + j0, w);
        } else {
            for (size_t i = row_begin; i < row_end; ++i)
                microTileHalf(a + i * K, K, panel, out + i * N + j0, w);
        }
    }
}

/**
 * Plain ikj kernel over output rows [row_begin, row_end) — the
 * below-crossover path. Identical loop to matmulNaive restricted to a
 * row range.
 */
// noinline: inlining into matmulInto discards the __restrict
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

/** Row-parallel dispatch shared by the packed and plain kernels. */
template <typename RowKernel>
void
dispatchRows(size_t rows, size_t K, size_t N, const RowKernel &kernel)
{
    util::ThreadPool &pool = util::ThreadPool::global();
    const double flops = 2.0 * static_cast<double>(rows) *
                         static_cast<double>(K) * static_cast<double>(N);
    if (pool.workerCount() > 1 && flops >= kParallelMinFlops && rows > 1) {
        // Rows are independent, so chunking cannot change results.
        size_t grain =
            std::max<size_t>(1, rows / (4 * pool.workerCount()));
        pool.parallelFor(rows, grain,
                         [&](size_t, size_t begin, size_t end) {
                             kernel(begin, end);
                         });
    } else {
        kernel(0, rows);
    }
}

} // namespace

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
    if (rows_ == 0 || other.cols_ == 0)
        return;
    const double *a = data_.data();
    const double *b = other.data_.data();
    double *o = out.data_.data();
    const size_t K = cols_, N = other.cols_;

    if (K > 0 && usePackedKernel(GemmOp::AB, rows_, K, N)) {
        // Pack once on the caller thread; row workers share the panels.
        std::vector<double> &pack = packScratchB();
        pack.resize(packedPanelDoubles(K, N));
        packColumnPanels(b, N, K, N, pack.data());
        const double *pk = pack.data();
        dispatchRows(rows_, K, N, [&](size_t begin, size_t end) {
            gemmPackedRows(a, pk, o, begin, end, K, N);
        });
    } else {
        dispatchRows(rows_, K, N, [&](size_t begin, size_t end) {
            matmulRows(a, b, o, begin, end, K, N);
        });
    }
}

Matrix
Matrix::matmulNaive(const Matrix &other) const
{
    if (cols_ != other.rows_)
        panic("matmul shape mismatch: %zux%zu * %zux%zu", rows_, cols_,
              other.rows_, other.cols_);
    Matrix out(rows_, other.cols_);
    // ikj loop order: the inner loop strides contiguously through both
    // the output row and the rhs row.
    for (size_t i = 0; i < rows_; ++i) {
        const double *lhs_row = &data_[i * cols_];
        double *out_row = &out.data_[i * other.cols_];
        for (size_t k = 0; k < cols_; ++k) {
            double lhs = lhs_row[k];
            if (lhs == 0.0)
                continue;
            const double *rhs_row = &other.data_[k * other.cols_];
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
    if (rows_ == 0 || other.rows_ == 0)
        return;
    const size_t K = cols_, N = other.rows_;
    const double *__restrict a = data_.data();
    const double *__restrict b = other.data_.data();
    double *__restrict o = out.data_.data();

    if (K > 0 && usePackedKernel(GemmOp::ABt, rows_, K, N)) {
        // Packing B^T into column panels turns the strided dot-product
        // walk into the same contiguous panel sweep as matmul; the
        // per-element k order (and zero-lhs skip) is unchanged.
        std::vector<double> &pack = packScratchB();
        pack.resize(packedPanelDoubles(K, N));
        packTransposedPanels(b, K, N, pack.data());
        const double *pk = pack.data();
        dispatchRows(rows_, K, N, [&](size_t begin, size_t end) {
            gemmPackedRows(a, pk, o, begin, end, K, N);
        });
        return;
    }
    // Row-by-row dot products: both operands are read contiguously and
    // k ascends per element, matching a.matmulNaive(b.transposed())
    // bit-for-bit (including its zero-lhs skip).
    for (size_t i = 0; i < rows_; ++i) {
        const double *a_row = &a[i * K];
        double *out_row = &o[i * N];
        for (size_t j = 0; j < N; ++j) {
            const double *b_row = &b[j * K];
            double acc = 0.0;
            for (size_t k = 0; k < K; ++k) {
                const double lhs = a_row[k];
                if (lhs == 0.0)
                    continue;
                acc += lhs * b_row[k];
            }
            out_row[j] = acc;
        }
    }
}

Matrix
Matrix::transposedMatmul(const Matrix &other) const
{
    Matrix out;
    transposedMatmulInto(other, out);
    return out;
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
    if (cols_ == 0 || other.cols_ == 0)
        return;
    const size_t K = cols_, N = other.cols_;
    const double *__restrict a = data_.data();
    const double *__restrict b = other.data_.data();
    double *__restrict o = out.data_.data();

    if (rows_ > 0 && usePackedKernel(GemmOp::AtB, cols_, rows_, N)) {
        // Pack A^T explicitly (lhs rows must be contiguous for the
        // micro-kernel) and B into column panels; the shared row index
        // still ascends per output element exactly as in
        // transposed().matmulNaive(other), zero-lhs skip included.
        std::vector<double> &at = packScratchA();
        at.resize(rows_ * cols_);
        packTransposedLhs(a, rows_, cols_, at.data());
        std::vector<double> &pack = packScratchB();
        pack.resize(packedPanelDoubles(rows_, N));
        packColumnPanels(b, N, rows_, N, pack.data());
        const double *atp = at.data();
        const double *pk = pack.data();
        const size_t depth = rows_;
        dispatchRows(cols_, depth, N, [&](size_t begin, size_t end) {
            gemmPackedRows(atp, pk, o, begin, end, depth, N);
        });
        return;
    }
    // Accumulate rank-1 updates in ascending row order: per output
    // element the shared row index ascends exactly as in
    // transposed().matmulNaive(other).
    for (size_t i = 0; i < rows_; ++i) {
        const double *a_row = &a[i * K];
        const double *b_row = &b[i * N];
        for (size_t k = 0; k < K; ++k) {
            const double lhs = a_row[k];
            if (lhs == 0.0)
                continue;
            double *out_row = &o[k * N];
            for (size_t j = 0; j < N; ++j)
                out_row[j] += lhs * b_row[j];
        }
    }
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
Matrix::columnSumsInto(Matrix &out) const
{
    if (&out == this)
        panic("columnSumsInto: output must not alias the source");
    out.reshape(1, cols_);
    // Same ascending-row accumulation as columnSums, so the result is
    // bit-identical to the allocating variant.
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            out.data_[c] += data_[r * cols_ + c];
}

Matrix
Matrix::row(size_t r) const
{
    return rowRange(r, r + 1);
}

Matrix
Matrix::rowRange(size_t begin, size_t end) const
{
    if (begin > end || end > rows_)
        panic("rowRange [%zu, %zu) out of %zu rows", begin, end, rows_);
    Matrix out(end - begin, cols_);
    std::copy(data_.begin() + static_cast<long>(begin * cols_),
              data_.begin() + static_cast<long>(end * cols_),
              out.data_.begin());
    return out;
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
    // vector::assign reuses the buffer when capacity suffices; only a
    // genuine regrow counts as an acquisition.
    if (rows * cols > data_.capacity())
        countAllocation();
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
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
