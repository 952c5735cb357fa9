#include "nn/model.hpp"

#include "common/error.hpp"

namespace gv {

std::size_t NodeModel::parameter_count() {
  ParamRefs refs;
  collect_parameters(refs);
  return refs.total_count();
}

GcnModel::GcnModel(GcnConfig cfg, std::shared_ptr<const CsrMatrix> adjacency,
                   Rng& rng)
    : cfg_(std::move(cfg)), adj_(std::move(adjacency)), dropout_rng_(rng.split()) {
  GV_CHECK(cfg_.input_dim > 0, "GcnModel requires input_dim > 0");
  GV_CHECK(!cfg_.channels.empty(), "GcnModel requires at least one layer");
  GV_CHECK(adj_ != nullptr, "GcnModel requires an adjacency");
  std::size_t in = cfg_.input_dim;
  layers_.reserve(cfg_.channels.size());
  for (const std::size_t out : cfg_.channels) {
    layers_.emplace_back(in, out, rng);
    in = out;
  }
}

void GcnModel::set_adjacency(std::shared_ptr<const CsrMatrix> adjacency) {
  GV_CHECK(adjacency != nullptr, "adjacency must not be null");
  adj_ = std::move(adjacency);
}

Matrix GcnModel::forward(const CsrMatrix& features, bool training) {
  outputs_.clear();
  pre_activations_.clear();
  masks_.clear();
  trained_forward_ = training;

  Matrix h;
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    const bool last = (k + 1 == layers_.size());
    Matrix z = (k == 0) ? layers_[k].forward(*adj_, features, training)
                        : layers_[k].forward(*adj_, h, training);
    if (!last) {
      h = relu(z);
      if (training && cfg_.dropout > 0.0f) {
        masks_.push_back(dropout_forward(h, cfg_.dropout, dropout_rng_));
      }
      // Kept for relu_backward; the output layer has no activation.
      if (training) pre_activations_.push_back(std::move(z));
    } else {
      h = std::move(z);  // logits
    }
    outputs_.push_back(h);
  }
  return outputs_.back();
}

void GcnModel::backward(const Matrix& dlogits) {
  GV_CHECK(trained_forward_, "backward() requires a training-mode forward");
  Matrix d = dlogits;
  for (std::size_t k = layers_.size(); k-- > 0;) {
    const bool last = (k + 1 == layers_.size());
    if (!last) {
      // d arrived w.r.t. the post-dropout activation; undo dropout, then ReLU.
      if (cfg_.dropout > 0.0f) dropout_backward(d, masks_[k]);
      relu_backward(d, pre_activations_[k]);
    }
    if (k == 0) {
      layers_[k].backward_sparse_input(*adj_, d);
    } else {
      d = layers_[k].backward(*adj_, d);
    }
  }
}

void GcnModel::collect_parameters(ParamRefs& refs) {
  for (auto& l : layers_) l.collect_parameters(refs);
}

std::vector<std::size_t> GcnModel::layer_dims() const { return cfg_.channels; }

MlpModel::MlpModel(MlpConfig cfg, Rng& rng)
    : cfg_(std::move(cfg)), dropout_rng_(rng.split()) {
  GV_CHECK(cfg_.input_dim > 0, "MlpModel requires input_dim > 0");
  GV_CHECK(!cfg_.channels.empty(), "MlpModel requires at least one layer");
  std::size_t in = cfg_.input_dim;
  layers_.reserve(cfg_.channels.size());
  for (const std::size_t out : cfg_.channels) {
    layers_.emplace_back(in, out, rng);
    in = out;
  }
}

Matrix MlpModel::forward(const CsrMatrix& features, bool training) {
  outputs_.clear();
  pre_activations_.clear();
  masks_.clear();
  trained_forward_ = training;

  Matrix h;
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    const bool last = (k + 1 == layers_.size());
    Matrix z = (k == 0) ? layers_[k].forward(features, training)
                        : layers_[k].forward(h, training);
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

void MlpModel::backward(const Matrix& dlogits) {
  GV_CHECK(trained_forward_, "backward() requires a training-mode forward");
  Matrix d = dlogits;
  for (std::size_t k = layers_.size(); k-- > 0;) {
    const bool last = (k + 1 == layers_.size());
    if (!last) {
      if (cfg_.dropout > 0.0f) dropout_backward(d, masks_[k]);
      relu_backward(d, pre_activations_[k]);
    }
    if (k == 0) {
      layers_[k].backward_sparse_input(d);
    } else {
      d = layers_[k].backward(d);
    }
  }
}

void MlpModel::collect_parameters(ParamRefs& refs) {
  for (auto& l : layers_) l.collect_parameters(refs);
}

std::vector<std::size_t> MlpModel::layer_dims() const { return cfg_.channels; }

}  // namespace gv
