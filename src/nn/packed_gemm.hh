/**
 * @file
 * Internal: the packed GEMM path behind Matrix's three products.
 *
 * Matrix::matmulInto, matmulTransposedInto and transposedMatmulInto
 * send every product with more than one output column (usePackedKernel
 * in matrix.cc) through packedGemmInto at packedLanes() lanes. Library
 * code calls the Matrix products, not this header; tests include it to
 * check every lane width against matmulNaive on one host.
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
 * out = op(a, b) on the packed path with `lanes`-wide vectors (2, or
 * 4 on a host with AVX2). Operand shapes must agree and `out` must
 * already have the product's shape (every element is overwritten).
 * The result is bitwise equal to matmulNaive at every width.
 */
void packedGemmInto(GemmOp op, const Matrix &a, const Matrix &b,
                    Matrix &out, size_t lanes);

} // namespace detail
} // namespace nn
} // namespace geo

#endif // GEO_NN_PACKED_GEMM_HH
