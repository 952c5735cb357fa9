// GraphSAGE layer with the mean aggregator (Hamilton et al. 2017):
//     H' = H W_self + (D^{-1} A H) W_neigh + b
// i.e. the "concat then project" formulation with the projection split
// into a self part and a neighbor part.  This is the first of the two
// additional GNN architectures the paper lists as future work (Sec. VI).
//
// Unlike the symmetric GCN propagation, the row-stochastic P = D^{-1}A is
// NOT symmetric, so the backward pass needs P's transpose; the layer
// takes both (built once per graph by sage_propagation()).
#pragma once

#include <memory>

#include "nn/param.hpp"
#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"

namespace gv {

/// Row-stochastic neighbor-mean propagation pair (P, P^T) for a graph
/// adjacency WITHOUT self loops (the self contribution has its own weight).
struct SagePropagation {
  std::shared_ptr<const CsrMatrix> p;   // D^{-1} A
  std::shared_ptr<const CsrMatrix> pt;  // (D^{-1} A)^T
};

class SageLayer {
 public:
  SageLayer() = default;
  SageLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  std::size_t in_dim() const { return w_self_.value.rows(); }
  std::size_t out_dim() const { return w_self_.value.cols(); }
  std::size_t parameter_count() const {
    return w_self_.count() + w_neigh_.count() + b_.count();
  }

  /// A training forward caches what backward() needs; an inference
  /// forward releases it (a backward() after it throws).
  Matrix forward(const SagePropagation& prop, const Matrix& x, bool training);
  Matrix forward(const SagePropagation& prop, const CsrMatrix& x, bool training);

  /// Accumulates gradients; returns dL/dx (dense-input variant only).
  Matrix backward(const SagePropagation& prop, const Matrix& dy);
  void backward_sparse_input(const SagePropagation& prop, const Matrix& dy);

  Parameter& weight_self() { return w_self_; }
  Parameter& weight_neigh() { return w_neigh_; }
  VectorParameter& bias() { return b_; }
  void collect_parameters(ParamRefs& refs);

 private:
  void release_training_cache();

  Parameter w_self_;
  Parameter w_neigh_;
  VectorParameter b_;
  Matrix cached_dense_input_;
  Matrix cached_aggregated_;            // P x (cached for both variants)
  const CsrMatrix* cached_sparse_input_ = nullptr;
  bool cached_sparse_ = false;
};

}  // namespace gv
