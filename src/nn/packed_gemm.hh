/**
 * @file
 * Internal: the packed GEMM path behind Matrix's three products.
 *
 * Matrix::matmulInto, matmulTransposedInto and transposedMatmulInto
 * send every product with more than one output column (usePackedKernel
 * in matrix.cc) through packedGemmInto at packedLanes() lanes, one row
 * range per call: a whole product is one range, or one per pool chunk,
 * and each member of a training team asks for its own rows. Library
 * code calls the Matrix products, not this header; tests include it to
 * check every lane width and row split against matmulNaive on one
 * host.
 */

#ifndef GEO_NN_PACKED_GEMM_HH
#define GEO_NN_PACKED_GEMM_HH

#include <cstddef>

#include "nn/matrix.hh"

namespace geo {
namespace nn {
namespace detail {

/** Which product a kernel is being asked for. */
enum class GemmOp
{
    AB,  ///< matmul:            out(m,n) = A(m,k) * B(k,n)
    ABt, ///< matmulTransposed:  out(m,n) = A(m,k) * B(n,k)^T
    AtB, ///< transposedMatmulInto: out(m,n) = A(k,m)^T * B(k,n)
};

/**
 * Vector lanes of the micro-tile this host runs: 4 where the CPU has
 * AVX2 and the OS saves ymm state, else 2 (baseline x86-64). Chosen
 * once, on first use.
 */
size_t packedLanes();

/**
 * Output rows [row_begin, row_end) of out = op(a, b) on the packed
 * path with `lanes`-wide vectors (2, or 4 on a host with AVX2), on the
 * calling thread. Operand shapes must agree and `out` must already
 * have the product's shape; every element of the range is
 * overwritten and no other is touched. B is packed into the calling
 * thread's scratch, and for AtB only the range's rows of A^T. The
 * result is bitwise equal to matmulNaive at every width and split.
 */
void packedGemmInto(GemmOp op, const Matrix &a, const Matrix &b,
                    Matrix &out, size_t lanes, size_t row_begin,
                    size_t row_end);

} // namespace detail
} // namespace nn
} // namespace geo

#endif // GEO_NN_PACKED_GEMM_HH
