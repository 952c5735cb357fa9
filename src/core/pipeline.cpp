#include "core/pipeline.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "graph/substitute.hpp"
#include "tensor/ops.hpp"

namespace gv {

std::string backbone_kind_name(BackboneKind kind) {
  switch (kind) {
    case BackboneKind::kDnn: return "DNN";
    case BackboneKind::kRandom: return "random";
    case BackboneKind::kCosine: return "cosine";
    case BackboneKind::kKnn: return "KNN";
  }
  throw Error("unknown backbone kind");
}

NodeModel& TrainedVault::backbone() {
  if (backbone_gcn) return *backbone_gcn;
  GV_CHECK(backbone_mlp != nullptr, "TrainedVault has no backbone");
  return *backbone_mlp;
}

const NodeModel& TrainedVault::backbone() const {
  return const_cast<TrainedVault*>(this)->backbone();
}

std::vector<Matrix> TrainedVault::backbone_outputs(const CsrMatrix& features) const {
  NodeModel& bb = const_cast<TrainedVault*>(this)->backbone();
  bb.forward(features, /*training=*/false);
  return bb.layer_outputs();
}

std::vector<std::uint32_t> TrainedVault::predict_rectified(
    const CsrMatrix& features) const {
  const auto outputs = backbone_outputs(features);
  const Matrix logits = rectifier->forward(outputs, /*training=*/false);
  return argmax_rows(logits);
}

std::vector<std::uint32_t> TrainedVault::predict_rectified_subset(
    const CsrMatrix& features, std::span<const std::uint32_t> nodes) const {
  const auto outputs = backbone_outputs(features);
  const Matrix logits = rectifier->forward_subset(outputs, nodes);
  return argmax_rows(logits);
}

Graph build_substitute_graph(const Dataset& ds, const VaultTrainConfig& cfg, Rng& rng) {
  switch (cfg.backbone) {
    case BackboneKind::kKnn:
      return build_knn_graph(ds.features, cfg.knn_k);
    case BackboneKind::kCosine:
      // Paper: sample the cosine graph's density down to the real graph's.
      return build_cosine_graph(ds.features, cfg.cosine_tau, ds.graph.num_edges(), rng);
    case BackboneKind::kRandom: {
      const auto target = static_cast<std::size_t>(
          static_cast<double>(ds.graph.num_edges()) * cfg.random_edge_fraction);
      return build_random_graph(ds.num_nodes(), std::max<std::size_t>(1, target), rng);
    }
    case BackboneKind::kDnn:
      return Graph(ds.num_nodes());  // unused
  }
  throw Error("unknown backbone kind");
}

TrainResult train_rectifier(Rectifier& rectifier,
                            const std::vector<Matrix>& backbone_outputs,
                            const std::vector<std::uint32_t>& labels,
                            const std::vector<std::uint32_t>& train_mask,
                            const TrainConfig& cfg) {
  GV_CHECK(!train_mask.empty(), "empty training mask");
  GV_CHECK(cfg.epochs > 0, "epochs must be positive");
  ParamRefs params;
  rectifier.collect_parameters(params);
  Adam opt(cfg.adam);

  TrainResult result;
  result.loss_history.reserve(cfg.epochs);
  Matrix dlogp;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    params.zero_grad();
    const Matrix logits = rectifier.forward(backbone_outputs, /*training=*/true);
    const Matrix logp = log_softmax_rows(logits);
    const double loss = nll_loss_masked(logp, labels, train_mask, dlogp);
    const Matrix dlogits = log_softmax_backward(dlogp, logp);
    rectifier.backward(dlogits);
    opt.step(params);
    result.loss_history.push_back(loss);
    if (cfg.verbose && (epoch % 25 == 0 || epoch + 1 == cfg.epochs)) {
      GV_LOG_INFO << "rectifier epoch " << epoch << " loss " << loss;
    }
  }
  result.final_loss = result.loss_history.back();
  result.predictions =
      argmax_rows(rectifier.forward(backbone_outputs, /*training=*/false));
  result.train_accuracy = accuracy_on(result.predictions, labels, train_mask);
  return result;
}

TrainedVault train_vault(const Dataset& ds, const VaultTrainConfig& cfg) {
  Rng rng(cfg.seed);
  TrainedVault tv;

  // --- Step 1: substitute graph (public features only). -----------------
  tv.substitute_graph = build_substitute_graph(ds, cfg, rng);
  tv.real_adj = std::make_shared<const CsrMatrix>(ds.graph.gcn_normalized());

  const auto backbone_channels = cfg.spec.backbone_channels(ds.num_classes);
  const auto rectifier_channels = cfg.spec.rectifier_channels(ds.num_classes);

  // --- Step 2: train the public backbone. -------------------------------
  if (cfg.backbone == BackboneKind::kDnn) {
    MlpConfig mc;
    mc.input_dim = ds.feature_dim();
    mc.channels = backbone_channels;
    mc.dropout = cfg.spec.dropout;
    tv.backbone_mlp = std::make_shared<MlpModel>(mc, rng);
  } else {
    tv.substitute_adj =
        std::make_shared<const CsrMatrix>(tv.substitute_graph.gcn_normalized());
    GcnConfig gc;
    gc.input_dim = ds.feature_dim();
    gc.channels = backbone_channels;
    gc.dropout = cfg.spec.dropout;
    tv.backbone_gcn = std::make_shared<GcnModel>(gc, tv.substitute_adj, rng);
  }
  NodeModel& bb = tv.backbone();
  const TrainResult bb_fit = train_node_classifier(bb, ds.features, ds.labels,
                                                   ds.split.train, cfg.backbone_train);
  tv.backbone_parameters = bb.parameter_count();
  tv.backbone_test_accuracy = accuracy_on(bb_fit.predictions, ds.labels, ds.split.test);

  // --- Step 3: freeze the backbone, train the rectifier on the REAL
  // adjacency from the backbone's (inference-mode) embeddings, which the
  // closing forward of its training left in layer_outputs(). -------------
  const std::vector<Matrix>& outputs = bb.layer_outputs();
  RectifierConfig rc;
  rc.kind = cfg.rectifier;
  rc.channels = rectifier_channels;
  rc.dropout = cfg.spec.dropout;
  tv.rectifier = std::make_shared<Rectifier>(rc, bb.layer_dims(), tv.real_adj, rng);
  const TrainResult rect_fit = train_rectifier(*tv.rectifier, outputs, ds.labels,
                                               ds.split.train, cfg.rectifier_train);
  tv.rectifier_parameters = tv.rectifier->parameter_count();
  // The closing forward is predict_rectified's computation on these inputs.
  tv.rectifier_test_accuracy =
      accuracy_on(rect_fit.predictions, ds.labels, ds.split.test);
  return tv;
}

std::shared_ptr<GcnModel> train_original_gnn(const Dataset& ds, const ModelSpec& spec,
                                             const TrainConfig& tc, std::uint64_t seed,
                                             double* test_accuracy) {
  Rng rng(seed ^ 0x0123456789abcdefull);
  GcnConfig gc;
  gc.input_dim = ds.feature_dim();
  gc.channels = spec.backbone_channels(ds.num_classes);
  gc.dropout = spec.dropout;
  auto adj = std::make_shared<const CsrMatrix>(ds.graph.gcn_normalized());
  auto model = std::make_shared<GcnModel>(gc, adj, rng);
  train_node_classifier(*model, ds.features, ds.labels, ds.split.train, tc);
  if (test_accuracy != nullptr) {
    *test_accuracy = evaluate_accuracy(*model, ds.features, ds.labels, ds.split.test);
  }
  return model;
}

}  // namespace gv
