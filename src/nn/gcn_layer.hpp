// One graph-convolution layer implementing the paper's Eq. 1:
//     H^(k) = Â · H^(k-1) · W^(k) + b^(k)
// (the nonlinearity is applied by the owning model so that layers can be
// freely composed into backbones and rectifiers).
//
// The layer supports a dense input (hidden layers, rectifier layers) or a
// sparse CSR input (the raw bag-of-words features at the first layer),
// which keeps first-layer training cheap on 1k+-dimensional features.
#pragma once

#include <cstdint>

#include "nn/param.hpp"
#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"

namespace gv {

class GcnLayer {
 public:
  GcnLayer() = default;

  /// in/out channel sizes; weights Glorot-initialized.
  GcnLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  std::size_t in_dim() const { return w_.value.rows(); }
  std::size_t out_dim() const { return w_.value.cols(); }
  std::size_t parameter_count() const { return w_.count() + b_.count(); }

  /// Forward with dense input; `adj` is the normalized adjacency Â.
  /// Caches what backward() needs when `training` is true; an inference
  /// forward releases that cache, so a trained layer serving labels holds
  /// no copy of its last training input and a backward() after it throws.
  Matrix forward(const CsrMatrix& adj, const Matrix& x, bool training);

  /// Forward with sparse input (first layer over raw features).
  Matrix forward(const CsrMatrix& adj, const CsrMatrix& x, bool training);

  /// Inference-only forward against a rectangular sub-adjacency whose rows
  /// are an output frontier and whose columns index the rows of `x` (the
  /// input frontier). Used by batched node-subset serving; never caches.
  Matrix forward_subgraph(const CsrMatrix& sub_adj, const Matrix& x) const;

  /// Backward: given dL/d(output), accumulates dW, db and returns dL/d(input)
  /// for the input columns from `first_input_col` on, the part the caller
  /// keeps: [n, in_dim() - first_input_col], equal to those columns of the
  /// full gradient. Pass in_dim() when the caller keeps none (an input that
  /// is not trained, e.g. frozen backbone embeddings); the input-gradient
  /// GEMM is then skipped. dW and db do not depend on `first_input_col`.
  /// For the sparse-input variant the input gradient is not needed (features
  /// are not trainable), so `backward_sparse_input` skips computing it.
  Matrix backward(const CsrMatrix& adj, const Matrix& dy,
                  std::size_t first_input_col = 0);
  void backward_sparse_input(const CsrMatrix& adj, const Matrix& dy);

  Parameter& weight() { return w_; }
  const Parameter& weight() const { return w_; }
  VectorParameter& bias() { return b_; }
  const VectorParameter& bias() const { return b_; }

  void collect_parameters(ParamRefs& refs);

 private:
  void release_training_cache();

  Parameter w_;
  VectorParameter b_;
  // Cached forward state (training mode only).
  Matrix cached_dense_input_;
  const CsrMatrix* cached_sparse_input_ = nullptr;
  bool cached_sparse_ = false;
};

}  // namespace gv
