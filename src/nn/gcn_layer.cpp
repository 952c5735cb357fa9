#include "nn/gcn_layer.hpp"

#include "common/error.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace gv {

GcnLayer::GcnLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng) {
  w_.init_glorot(in_dim, out_dim, rng);
  b_.init_zero(out_dim);
}

Matrix GcnLayer::forward(const CsrMatrix& adj, const Matrix& x, bool training) {
  GV_CHECK(x.cols() == in_dim(), "GcnLayer dense input dim mismatch");
  GV_CHECK(adj.rows() == adj.cols() && adj.rows() == x.rows(),
           "GcnLayer adjacency shape mismatch");
  if (training) {
    cached_dense_input_ = x;
    cached_sparse_input_ = nullptr;
    cached_sparse_ = false;
  } else {
    release_training_cache();
  }
  Matrix xw = matmul(x, w_.value);
  Matrix y = spmm(adj, xw);
  add_bias_rows(y, b_.value);
  return y;
}

Matrix GcnLayer::forward(const CsrMatrix& adj, const CsrMatrix& x, bool training) {
  GV_CHECK(x.cols() == in_dim(), "GcnLayer sparse input dim mismatch");
  GV_CHECK(adj.rows() == adj.cols() && adj.rows() == x.rows(),
           "GcnLayer adjacency shape mismatch");
  if (training) {
    cached_sparse_input_ = &x;
    cached_sparse_ = true;
    cached_dense_input_ = Matrix();
  } else {
    release_training_cache();
  }
  Matrix xw = spmm(x, w_.value);
  Matrix y = spmm(adj, xw);
  add_bias_rows(y, b_.value);
  return y;
}

Matrix GcnLayer::forward_subgraph(const CsrMatrix& sub_adj, const Matrix& x) const {
  GV_CHECK(x.cols() == in_dim(), "GcnLayer dense input dim mismatch");
  GV_CHECK(sub_adj.cols() == x.rows(), "GcnLayer sub-adjacency shape mismatch");
  // Empty output frontier (a shard touched only as a halo provider): skip
  // the x·W GEMM entirely instead of multiplying rows nobody aggregates.
  if (sub_adj.rows() == 0) return Matrix(0, out_dim());
  Matrix xw = matmul(x, w_.value);
  Matrix y = spmm(sub_adj, xw);
  add_bias_rows(y, b_.value);
  return y;
}

Matrix GcnLayer::backward(const CsrMatrix& adj, const Matrix& dy,
                          std::size_t first_input_col) {
  GV_CHECK(!cached_sparse_, "backward() called after sparse-input forward");
  GV_CHECK(!cached_dense_input_.empty(),
           "backward() requires a training-mode forward first");
  GV_CHECK(first_input_col <= in_dim(), "backward() first input column out of range");
  // y = Â (x W) + b ; Â is symmetric, so d(xW) = Â' dy = Â dy.
  Matrix dxw = spmm(adj, dy);
  // dW = x' dxw ; db = colsum(dy) ; dx[:, first:] = dxw W[first:, :]'.
  w_.grad += matmul_tn(cached_dense_input_, dxw);
  const auto db = col_sums(dy);
  for (std::size_t i = 0; i < db.size(); ++i) b_.grad[i] += db[i];
  return matmul_nt(dxw, w_.value, first_input_col);
}

void GcnLayer::backward_sparse_input(const CsrMatrix& adj, const Matrix& dy) {
  GV_CHECK(cached_sparse_ && cached_sparse_input_ != nullptr,
           "backward_sparse_input() requires a sparse training forward first");
  Matrix dxw = spmm(adj, dy);
  w_.grad += spmm_tn(*cached_sparse_input_, dxw);
  const auto db = col_sums(dy);
  for (std::size_t i = 0; i < db.size(); ++i) b_.grad[i] += db[i];
}

void GcnLayer::release_training_cache() {
  cached_dense_input_ = Matrix();
  cached_sparse_input_ = nullptr;
  cached_sparse_ = false;
}

void GcnLayer::collect_parameters(ParamRefs& refs) {
  refs.matrices.push_back(&w_);
  refs.vectors.push_back(&b_);
}

}  // namespace gv
