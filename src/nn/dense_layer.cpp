#include "nn/dense_layer.hpp"

#include "common/error.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace gv {

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng) {
  w_.init_glorot(in_dim, out_dim, rng);
  b_.init_zero(out_dim);
}

Matrix DenseLayer::forward(const Matrix& x, bool training) {
  GV_CHECK(x.cols() == in_dim(), "DenseLayer input dim mismatch");
  if (training) {
    cached_dense_input_ = x;
    cached_sparse_input_ = nullptr;
    cached_sparse_ = false;
  } else {
    release_training_cache();
  }
  Matrix y = matmul(x, w_.value);
  add_bias_rows(y, b_.value);
  return y;
}

Matrix DenseLayer::forward(const CsrMatrix& x, bool training) {
  GV_CHECK(x.cols() == in_dim(), "DenseLayer sparse input dim mismatch");
  if (training) {
    cached_sparse_input_ = &x;
    cached_sparse_ = true;
    cached_dense_input_ = Matrix();
  } else {
    release_training_cache();
  }
  Matrix y = spmm(x, w_.value);
  add_bias_rows(y, b_.value);
  return y;
}

Matrix DenseLayer::backward(const Matrix& dy) {
  GV_CHECK(!cached_sparse_, "backward() called after sparse-input forward");
  GV_CHECK(!cached_dense_input_.empty(),
           "backward() requires a training-mode forward first");
  w_.grad += matmul_tn(cached_dense_input_, dy);
  const auto db = col_sums(dy);
  for (std::size_t i = 0; i < db.size(); ++i) b_.grad[i] += db[i];
  return matmul_nt(dy, w_.value);
}

void DenseLayer::backward_sparse_input(const Matrix& dy) {
  GV_CHECK(cached_sparse_ && cached_sparse_input_ != nullptr,
           "backward_sparse_input() requires a sparse training forward first");
  w_.grad += spmm_tn(*cached_sparse_input_, dy);
  const auto db = col_sums(dy);
  for (std::size_t i = 0; i < db.size(); ++i) b_.grad[i] += db[i];
}

void DenseLayer::release_training_cache() {
  cached_dense_input_ = Matrix();
  cached_sparse_input_ = nullptr;
  cached_sparse_ = false;
}

void DenseLayer::collect_parameters(ParamRefs& refs) {
  refs.matrices.push_back(&w_);
  refs.vectors.push_back(&b_);
}

}  // namespace gv
