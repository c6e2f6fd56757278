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
 * Shape-dependent kernel selection — the single source of truth.
 *
 * The packed kernel pays one pass over B (and, for AtB, one over A) to
 * lay panels out contiguously, and one pass per output row to list
 * its nonzero depth indices; then it writes each output element
 * exactly once from a register accumulator. The plain loops skip
 * those tolls but re-walk the output (AB, AtB) or serialize on a
 * dot-product chain (ABt), and branch on every lhs element, so they
 * win only while the packing cannot be amortized. Shapes are
 * m x k x n of the *output-shaped* product: out is m x n and k is the
 * depth axis. What stays plain:
 *
 *   AB   a single output column; fewer than 4 rows; k*n < 64, where
 *        tile setup dominates; and 4..15 rows once B leaves L2
 *        (k*n > 16K doubles).
 *   ABt  n = 1, where the panel is padded 1 -> 8 wide; and n = 2-3
 *        unless the lhs traffic m*k dwarfs the pack pass.
 *   AtB  fewer than 4 output rows or columns, or under 64 output
 *        elements: both operands are packed, so small outputs never
 *        amortize the two passes.
 *
 * These thresholds were fitted to 1-core timings of the earlier
 * branching two-lane tiles, which did not list nonzeros; they have
 * not been re-fitted since. Routing never changes a result: both
 * kernels are bitwise equal to matmulNaive.
 */
bool
usePackedKernel(GemmOp op, size_t m, size_t k, size_t n)
{
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
 * Per-thread kernel scratch: two panel buffers (AtB packs both
 * operands) and the current lhs row's nonzero depth indices, which
 * every pool worker keeps for the rows of its own chunk. Capacity
 * persists across calls, so steady-state training loops never
 * allocate here.
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
 * Register-blocked product over pre-packed column panels for output
 * rows [row_begin, row_end). `a` is the (possibly packed-transposed)
 * lhs with row stride K; `packed` holds ceil(N / kMicroCols) panels
 * from packColumnPanels / packTransposedPanels; `nz` has room for K
 * indices. Each row first lists its nonzero depth indices, once and
 * without a branch on the data, and every panel of the row then walks
 * that list. A per-element `lhs == 0` branch mispredicts on ReLU
 * activations, which are about half zeros in a new pattern every
 * batch. Each output element still sees the full ascending walk, so
 * the order of rows and panels cannot change any value.
 */
template <size_t Lanes>
__attribute__((always_inline)) inline void
packedRows(const double *__restrict a, const double *__restrict packed,
           double *__restrict out, size_t row_begin, size_t row_end,
           size_t K, size_t N, uint32_t *__restrict nz)
{
    for (size_t i = row_begin; i < row_end; ++i) {
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
                              size_t, size_t, size_t, size_t, uint32_t *);

/** Two lanes: baseline x86-64, the only width on hosts without AVX2. */
// noinline: keeps the __restrict qualification from being discarded
// when inlined into the dispatching lambda.
__attribute__((noinline)) void
packedRows2(const double *__restrict a, const double *__restrict packed,
            double *__restrict out, size_t row_begin, size_t row_end,
            size_t K, size_t N, uint32_t *__restrict nz)
{
    packedRows<2>(a, packed, out, row_begin, row_end, K, N, nz);
}

#if defined(__x86_64__)
/** Four lanes, compiled for AVX2 only; packedLanes() picks it at run
 *  time on hosts that have it. */
__attribute__((noinline, target("avx2"))) void
packedRows4(const double *__restrict a, const double *__restrict packed,
            double *__restrict out, size_t row_begin, size_t row_end,
            size_t K, size_t N, uint32_t *__restrict nz)
{
    packedRows<4>(a, packed, out, row_begin, row_end, K, N, nz);
}
#endif

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
               size_t lanes)
{
    // The product in output orientation: m x K times K x N.
    const bool lhs_transposed = op == GemmOp::AtB;
    const size_t m = lhs_transposed ? a.cols() : a.rows();
    const size_t K = lhs_transposed ? a.rows() : a.cols();
    const size_t N = op == GemmOp::ABt ? b.rows() : b.cols();
    const size_t b_depth = op == GemmOp::ABt ? b.cols() : b.rows();
    if (b_depth != K || out.rows() != m || out.cols() != N)
        panic("packedGemmInto: %zux%zu and %zux%zu into %zux%zu", a.rows(),
              a.cols(), b.rows(), b.cols(), out.rows(), out.cols());
    PackedRowsFn kernel = nullptr;
    if (lanes == 2)
        kernel = packedRows2;
#if defined(__x86_64__)
    else if (lanes == 4 && packedLanes() == 4)
        kernel = packedRows4;
#endif
    if (!kernel)
        panic("packedGemmInto: no %zu-lane kernel on this host", lanes);
    if (m == 0 || N == 0)
        return;

    // Pack once on the caller thread; row workers share the panels.
    const double *lhs = a.data().data();
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
        // The micro-tile reads lhs rows contiguously, so A^T is packed
        // explicitly; the shared row index still ascends per output
        // element exactly as in transposed().matmulNaive(b).
        std::vector<double> &at = packScratchA();
        at.resize(K * m);
        packTransposedLhs(lhs, K, m, at.data());
        lhs = at.data();
    }
    const double *pk = pack.data();
    double *o = out.data().data();
    dispatchRows(m, K, N, [&](size_t begin, size_t end) {
        std::vector<uint32_t> &nz = nonzeroScratch();
        if (nz.size() < K)
            nz.resize(K);
        kernel(lhs, pk, o, begin, end, K, N, nz.data());
    });
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
    if (rows_ == 0 || other.cols_ == 0)
        return;
    const size_t K = cols_, N = other.cols_;
    if (K > 0 && usePackedKernel(GemmOp::AB, rows_, K, N)) {
        detail::packedGemmInto(GemmOp::AB, *this, other, out,
                               detail::packedLanes());
        return;
    }
    const double *a = data_.data();
    const double *b = other.data_.data();
    double *o = out.data_.data();
    dispatchRows(rows_, K, N, [&](size_t begin, size_t end) {
        matmulRows(a, b, o, begin, end, K, N);
    });
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
    if (K > 0 && usePackedKernel(GemmOp::ABt, rows_, K, N)) {
        detail::packedGemmInto(GemmOp::ABt, *this, other, out,
                               detail::packedLanes());
        return;
    }
    // Row-by-row dot products: both operands are read contiguously and
    // k ascends per element, matching a.matmulNaive(b.transposed())
    // bit-for-bit (including its zero-lhs skip).
    const double *__restrict a = data_.data();
    const double *__restrict b = other.data_.data();
    double *__restrict o = out.data_.data();
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
    if (rows_ > 0 && usePackedKernel(GemmOp::AtB, cols_, rows_, N)) {
        detail::packedGemmInto(GemmOp::AtB, *this, other, out,
                               detail::packedLanes());
        return;
    }
    // Accumulate rank-1 updates in ascending row order: per output
    // element the shared row index ascends exactly as in
    // transposed().matmulNaive(other).
    const double *__restrict a = data_.data();
    const double *__restrict b = other.data_.data();
    double *__restrict o = out.data_.data();
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
