// Dense matrix multiplication kernels (OpenMP parallel).
//
// Three orientations are enough for GNN training:
//   matmul    : C = A  * B    (forward projections)
//   matmul_tn : C = A' * B    (weight gradients  dW = X' dZ)
//   matmul_nt : C = A  * B'   (input gradients   dX = dZ W')
//
// Order contract: every output element starts at +0 and adds its products
// in ascending reduction index (matmul_tn: per fixed partial, see below), so
// results are bit-identical across thread counts and vector widths, and a
// change to a kernel must keep them so: trained weights depend on it.
// matmul and matmul_acc skip zero A entries (a zero product adds nothing to
// a finite sum); matmul_nt adds every product, so NaN and Inf propagate.
#pragma once

#include "tensor/matrix.hpp"

namespace gv {

/// C = A[m,k] * B[k,n].
Matrix matmul(const Matrix& a, const Matrix& b);

/// The transposed products (matmul_tn, spmm_tn) reduce over the rows of A.
/// They split those rows into this many fixed ranges, sum each range in row
/// order (the ranges in parallel) and add the partial sums in index order,
/// so their result depends on neither the thread count nor scheduling.
inline constexpr std::size_t kReductionPartials = 4;

/// C = A'[k,m]' * B[k,n]  i.e. result is [m,n] with A stored [k,m].
Matrix matmul_tn(const Matrix& a, const Matrix& b);

/// C = A[m,k] * B'[n,k]'  i.e. result is [m,n] with B stored [n,k].
/// With `first_b_row`, only B's rows from there on take part: the result is
/// [m, n - first_b_row], the columns from `first_b_row` on of the full
/// product (a layer's input gradient for the input columns a caller keeps).
Matrix matmul_nt(const Matrix& a, const Matrix& b, std::size_t first_b_row = 0);

/// C += A * B (accumulating variant used by optimizers/fused layers).
void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c);

}  // namespace gv
