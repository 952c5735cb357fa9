#include "nn/trainer.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "data/dataset.hpp"

namespace gv {

TrainResult train_node_classifier(NodeModel& model, const CsrMatrix& features,
                                  const std::vector<std::uint32_t>& labels,
                                  const std::vector<std::uint32_t>& train_mask,
                                  const TrainConfig& cfg) {
  GV_CHECK(!train_mask.empty(), "empty training mask");
  GV_CHECK(cfg.epochs > 0, "epochs must be positive");

  ParamRefs params;
  model.collect_parameters(params);
  Adam opt(cfg.adam);

  TrainResult result;
  result.loss_history.reserve(cfg.epochs);
  Matrix dlogp;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    params.zero_grad();
    const Matrix logits = model.forward(features, /*training=*/true);
    const Matrix logp = log_softmax_rows(logits);
    const double loss = nll_loss_masked(logp, labels, train_mask, dlogp);
    const Matrix dlogits = log_softmax_backward(dlogp, logp);
    model.backward(dlogits);
    opt.step(params);
    result.loss_history.push_back(loss);
    if (cfg.verbose && (epoch % 25 == 0 || epoch + 1 == cfg.epochs)) {
      GV_LOG_INFO << "epoch " << epoch << " loss " << loss;
    }
  }
  result.final_loss = result.loss_history.back();
  result.predictions = predict(model, features);
  result.train_accuracy = accuracy_on(result.predictions, labels, train_mask);
  return result;
}

std::vector<std::uint32_t> predict(NodeModel& model, const CsrMatrix& features) {
  const Matrix logits = model.forward(features, /*training=*/false);
  return argmax_rows(logits);
}

double evaluate_accuracy(NodeModel& model, const CsrMatrix& features,
                         const std::vector<std::uint32_t>& labels,
                         const std::vector<std::uint32_t>& node_set) {
  const auto preds = predict(model, features);
  return accuracy_on(preds, labels, node_set);
}

}  // namespace gv
