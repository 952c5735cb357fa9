// Fully-connected layer: y = x W + b.
// Used by the DNN (MLP) backbone baseline of Table III and by the
// link-stealing attack's baseline model M_base.
#pragma once

#include "nn/param.hpp"
#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"

namespace gv {

class DenseLayer {
 public:
  DenseLayer() = default;
  DenseLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  std::size_t in_dim() const { return w_.value.rows(); }
  std::size_t out_dim() const { return w_.value.cols(); }
  std::size_t parameter_count() const { return w_.count() + b_.count(); }

  /// A training forward caches what backward() needs; an inference
  /// forward releases it (a backward() after it throws).
  Matrix forward(const Matrix& x, bool training);
  Matrix forward(const CsrMatrix& x, bool training);

  /// Accumulates dW/db; returns dL/dx for the dense-input variant.
  Matrix backward(const Matrix& dy);
  void backward_sparse_input(const Matrix& dy);

  Parameter& weight() { return w_; }
  VectorParameter& bias() { return b_; }
  void collect_parameters(ParamRefs& refs);

 private:
  void release_training_cache();

  Parameter w_;
  VectorParameter b_;
  Matrix cached_dense_input_;
  const CsrMatrix* cached_sparse_input_ = nullptr;
  bool cached_sparse_ = false;
};

}  // namespace gv
