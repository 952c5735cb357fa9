#include "nn/arch_models.hpp"

#include "common/error.hpp"
#include "graph/normalize.hpp"

namespace gv {

SagePropagation make_sage_propagation(const Graph& g) {
  SagePropagation prop;
  auto p = row_normalize(g.adjacency_csr(/*add_self_loops=*/false));
  prop.pt = std::make_shared<const CsrMatrix>(p.transposed());
  prop.p = std::make_shared<const CsrMatrix>(std::move(p));
  return prop;
}

SageModel::SageModel(Config cfg, SagePropagation prop, Rng& rng)
    : cfg_(std::move(cfg)), prop_(std::move(prop)), dropout_rng_(rng.split()) {
  GV_CHECK(cfg_.input_dim > 0, "SageModel requires input_dim > 0");
  GV_CHECK(!cfg_.channels.empty(), "SageModel requires at least one layer");
  std::size_t in = cfg_.input_dim;
  layers_.reserve(cfg_.channels.size());
  for (const std::size_t out : cfg_.channels) {
    layers_.emplace_back(in, out, rng);
    in = out;
  }
}

Matrix SageModel::forward(const CsrMatrix& features, bool training) {
  outputs_.clear();
  pre_activations_.clear();
  masks_.clear();
  trained_forward_ = training;
  Matrix h;
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    const bool last = (k + 1 == layers_.size());
    Matrix z = (k == 0) ? layers_[k].forward(prop_, features, training)
                        : layers_[k].forward(prop_, h, training);
    if (!last) {
      h = relu(z);
      if (training && cfg_.dropout > 0.0f) {
        masks_.push_back(dropout_forward(h, cfg_.dropout, dropout_rng_));
      }
      // Kept for relu_backward; the output layer has no activation.
      if (training) pre_activations_.push_back(std::move(z));
    } else {
      h = std::move(z);
    }
    outputs_.push_back(h);
  }
  return outputs_.back();
}

void SageModel::backward(const Matrix& dlogits) {
  GV_CHECK(trained_forward_, "backward() requires a training-mode forward");
  Matrix d = dlogits;
  for (std::size_t k = layers_.size(); k-- > 0;) {
    const bool last = (k + 1 == layers_.size());
    if (!last) {
      if (cfg_.dropout > 0.0f) dropout_backward(d, masks_[k]);
      relu_backward(d, pre_activations_[k]);
    }
    if (k == 0) {
      layers_[k].backward_sparse_input(prop_, d);
    } else {
      d = layers_[k].backward(prop_, d);
    }
  }
}

void SageModel::collect_parameters(ParamRefs& refs) {
  for (auto& l : layers_) l.collect_parameters(refs);
}

GatModel::GatModel(Config cfg, std::shared_ptr<const CsrMatrix> adjacency, Rng& rng)
    : cfg_(std::move(cfg)), adj_(std::move(adjacency)), dropout_rng_(rng.split()) {
  GV_CHECK(cfg_.input_dim > 0, "GatModel requires input_dim > 0");
  GV_CHECK(!cfg_.channels.empty(), "GatModel requires at least one layer");
  GV_CHECK(adj_ != nullptr, "GatModel requires an adjacency (with self-loops)");
  std::size_t in = cfg_.input_dim;
  layers_.reserve(cfg_.channels.size());
  for (const std::size_t out : cfg_.channels) {
    layers_.emplace_back(in, out, rng, cfg_.leaky_slope);
    in = out;
  }
}

Matrix GatModel::forward(const CsrMatrix& features, bool training) {
  outputs_.clear();
  pre_activations_.clear();
  masks_.clear();
  trained_forward_ = training;
  // GAT's attention needs dense z rows; densify the input once per call.
  dense_features_ = features.to_dense();
  Matrix h;
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    const bool last = (k + 1 == layers_.size());
    Matrix z = layers_[k].forward(*adj_, k == 0 ? dense_features_ : h, training);
    if (!last) {
      h = relu(z);
      if (training && cfg_.dropout > 0.0f) {
        masks_.push_back(dropout_forward(h, cfg_.dropout, dropout_rng_));
      }
      // Kept for relu_backward; the output layer has no activation.
      if (training) pre_activations_.push_back(std::move(z));
    } else {
      h = std::move(z);
    }
    outputs_.push_back(h);
  }
  return outputs_.back();
}

void GatModel::backward(const Matrix& dlogits) {
  GV_CHECK(trained_forward_, "backward() requires a training-mode forward");
  Matrix d = dlogits;
  for (std::size_t k = layers_.size(); k-- > 0;) {
    const bool last = (k + 1 == layers_.size());
    if (!last) {
      if (cfg_.dropout > 0.0f) dropout_backward(d, masks_[k]);
      relu_backward(d, pre_activations_[k]);
    }
    // Layer 0's input is the raw features: keep none of its gradient.
    d = layers_[k].backward(*adj_, d, k == 0 ? layers_[k].in_dim() : 0);
  }
}

void GatModel::collect_parameters(ParamRefs& refs) {
  for (auto& l : layers_) l.collect_parameters(refs);
}

}  // namespace gv
