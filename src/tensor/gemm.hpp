// Dense matrix multiplication kernels (OpenMP parallel).
//
// Three orientations are enough for GNN training:
//   matmul    : C = A  * B    (forward projections)
//   matmul_tn : C = A' * B    (weight gradients  dW = X' dZ)
//   matmul_nt : C = A  * B'   (input gradients   dX = dZ W')
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
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// C += A * B (accumulating variant used by optimizers/fused layers).
void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c);

}  // namespace gv
