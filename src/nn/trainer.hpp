// Full-batch semi-supervised trainer (paper Sec. V-A recipe: Adam, 20
// labeled nodes per class, cross-entropy on the labeled set).
#pragma once

#include <vector>

#include "nn/model.hpp"
#include "nn/param.hpp"

namespace gv {

struct TrainConfig {
  int epochs = 150;
  Adam::Config adam;       // lr 0.01, weight decay 5e-4 by default
  bool verbose = false;    // log loss every 25 epochs
};

struct TrainResult {
  std::vector<double> loss_history;
  double final_loss = 0.0;
  double train_accuracy = 0.0;
  /// Label of every node from the closing inference-mode forward of the
  /// trained model; a NodeModel's layer_outputs() still hold that forward.
  std::vector<std::uint32_t> predictions;
};

/// Train `model` to classify nodes; labels are read only at `train_mask`
/// rows. Returns the loss trajectory and final train accuracy.
TrainResult train_node_classifier(NodeModel& model, const CsrMatrix& features,
                                  const std::vector<std::uint32_t>& labels,
                                  const std::vector<std::uint32_t>& train_mask,
                                  const TrainConfig& cfg = {});

/// Inference-mode class predictions for every node.
std::vector<std::uint32_t> predict(NodeModel& model, const CsrMatrix& features);

/// Inference-mode accuracy over `node_set`.
double evaluate_accuracy(NodeModel& model, const CsrMatrix& features,
                         const std::vector<std::uint32_t>& labels,
                         const std::vector<std::uint32_t>& node_set);

}  // namespace gv
