// Graph attention layer (Velickovic et al. 2018), single head:
//     z_i  = W' x_i
//     e_ij = LeakyReLU(a_src . z_i + a_dst . z_j)   for j in N(i) u {i}
//     α_ij = softmax_j(e_ij)
//     y_i  = Σ_j α_ij z_j + b
// The second architecture from the paper's future work (Sec. VI). The
// neighbor structure is the binary adjacency WITH self-loops; attention
// replaces the fixed GCN normalization.
#pragma once

#include <memory>

#include "nn/param.hpp"
#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"

namespace gv {

class GatLayer {
 public:
  GatLayer() = default;
  GatLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng,
           float leaky_slope = 0.2f);

  std::size_t in_dim() const { return w_.value.rows(); }
  std::size_t out_dim() const { return w_.value.cols(); }
  std::size_t parameter_count() const {
    return w_.count() + a_src_.count() + a_dst_.count() + b_.count();
  }

  /// `adj` must be the binary adjacency with self-loops (values ignored).
  /// A training forward caches what backward() needs; an inference forward
  /// releases it.
  Matrix forward(const CsrMatrix& adj, const Matrix& x, bool training);

  /// Accumulates gradients; returns dL/dx for the input columns from
  /// `first_input_col` on (the part the caller keeps), equal to those columns
  /// of the full gradient. Pass in_dim() when the caller keeps none (a first
  /// layer over raw features); the input-gradient GEMM is then skipped. The
  /// parameter gradients do not depend on `first_input_col`.
  Matrix backward(const CsrMatrix& adj, const Matrix& dy,
                  std::size_t first_input_col = 0);

  Parameter& weight() { return w_; }
  VectorParameter& attention_src() { return a_src_; }
  VectorParameter& attention_dst() { return a_dst_; }
  VectorParameter& bias() { return b_; }
  void collect_parameters(ParamRefs& refs);

 private:
  Parameter w_;
  VectorParameter a_src_;  // length out_dim
  VectorParameter a_dst_;
  VectorParameter b_;
  float leaky_slope_ = 0.2f;

  // Cached forward state (training mode).
  Matrix cached_input_;
  Matrix cached_z_;
  std::vector<float> cached_alpha_;   // per stored edge, aligned with adj CSR
  std::vector<float> cached_pre_;     // pre-LeakyReLU scores per edge
};

}  // namespace gv
