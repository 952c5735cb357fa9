#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "data/synthetic.hpp"

// libgomp is not TSan-instrumented, so a multi-threaded OpenMP run under
// TSan reports races inside the runtime.
#if defined(__SANITIZE_THREAD__)
#define GV_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GV_TEST_UNDER_TSAN 1
#endif
#endif

namespace gv {
namespace {

/// A dataset where edges carry information features lack: moderate feature
/// signal, strong homophily (the regime GNNVault targets).
Dataset vault_dataset(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.num_nodes = 400;
  spec.num_classes = 4;
  spec.num_undirected_edges = 1400;
  spec.feature_dim = 160;
  spec.homophily = 0.85;
  spec.feature_signal = 0.42;
  spec.features_per_node = 14;
  return generate_synthetic(spec, seed);
}

VaultTrainConfig fast_config() {
  VaultTrainConfig cfg;
  cfg.spec = ModelSpec{"T", {32, 16}, {32, 16}, 0.4f};
  cfg.backbone_train.epochs = 80;
  cfg.rectifier_train.epochs = 80;
  cfg.seed = 7;
  return cfg;
}

TEST(Pipeline, KnnVaultRectifierBeatsBackbone) {
  const Dataset ds = vault_dataset(1);
  auto cfg = fast_config();
  const TrainedVault tv = train_vault(ds, cfg);
  // The protection gap Δp = p_rec - p_bb must be positive: the rectifier
  // (with the real adjacency) recovers accuracy the backbone lacks.
  EXPECT_GT(tv.rectifier_test_accuracy, tv.backbone_test_accuracy + 0.02);
  EXPECT_GT(tv.rectifier_test_accuracy, 0.5);
}

TEST(Pipeline, RectifierIsSmallerThanBackbone) {
  const Dataset ds = vault_dataset(2);
  const TrainedVault tv = train_vault(ds, fast_config());
  EXPECT_LT(tv.rectifier_parameters, tv.backbone_parameters);
}

TEST(Pipeline, SubstituteGraphNeverEqualsRealGraph) {
  const Dataset ds = vault_dataset(3);
  const TrainedVault tv = train_vault(ds, fast_config());
  EXPECT_NE(tv.substitute_graph.edges(), ds.graph.edges());
}

TEST(Pipeline, AllRectifierKindsTrain) {
  const Dataset ds = vault_dataset(4);
  for (const auto kind :
       {RectifierKind::kParallel, RectifierKind::kCascaded, RectifierKind::kSeries}) {
    auto cfg = fast_config();
    cfg.rectifier = kind;
    const TrainedVault tv = train_vault(ds, cfg);
    EXPECT_GT(tv.rectifier_test_accuracy, tv.backbone_test_accuracy)
        << rectifier_kind_name(kind);
  }
}

TEST(Pipeline, DnnBackboneHasNoSubstituteGraph) {
  const Dataset ds = vault_dataset(5);
  auto cfg = fast_config();
  cfg.backbone = BackboneKind::kDnn;
  const TrainedVault tv = train_vault(ds, cfg);
  EXPECT_EQ(tv.backbone_gcn, nullptr);
  EXPECT_NE(tv.backbone_mlp, nullptr);
  EXPECT_EQ(tv.substitute_adj, nullptr);
  EXPECT_EQ(tv.substitute_graph.num_edges(), 0u);
  EXPECT_GT(tv.rectifier_test_accuracy, tv.backbone_test_accuracy);
}

TEST(Pipeline, RandomBackboneWorseThanKnn) {
  const Dataset ds = vault_dataset(6);
  auto knn_cfg = fast_config();
  const TrainedVault knn = train_vault(ds, knn_cfg);
  auto rand_cfg = fast_config();
  rand_cfg.backbone = BackboneKind::kRandom;
  const TrainedVault rnd = train_vault(ds, rand_cfg);
  // Table III ordering: the random substitute graph injects structural
  // noise, hurting both the backbone and the rectified accuracy.
  EXPECT_LT(rnd.backbone_test_accuracy, knn.backbone_test_accuracy);
  EXPECT_LT(rnd.rectifier_test_accuracy, knn.rectifier_test_accuracy);
}

TEST(Pipeline, OriginalGnnIsStrong) {
  const Dataset ds = vault_dataset(7);
  const auto cfg = fast_config();
  double porg = 0.0;
  TrainConfig tc;
  tc.epochs = 80;
  train_original_gnn(ds, cfg.spec, tc, 7, &porg);
  const TrainedVault tv = train_vault(ds, cfg);
  // p_org > p_bb by a clear margin (the model IP worth protecting), and the
  // rectifier lands within a few points of p_org.
  EXPECT_GT(porg, tv.backbone_test_accuracy + 0.03);
  EXPECT_GT(tv.rectifier_test_accuracy, porg - 0.10);
}

TEST(Pipeline, DeterministicGivenSeed) {
  const Dataset ds = vault_dataset(8);
  const TrainedVault a = train_vault(ds, fast_config());
  const TrainedVault b = train_vault(ds, fast_config());
  EXPECT_DOUBLE_EQ(a.backbone_test_accuracy, b.backbone_test_accuracy);
  EXPECT_DOUBLE_EQ(a.rectifier_test_accuracy, b.rectifier_test_accuracy);
}

/// Every trained weight as raw bytes: backbone matrices, backbone biases,
/// then the rectifier's serialized weights.
std::vector<std::uint8_t> weight_bytes(TrainedVault& tv) {
  ParamRefs refs;
  tv.backbone().collect_parameters(refs);
  std::vector<std::uint8_t> out;
  const auto put = [&](const float* p, std::size_t count) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(p);
    out.insert(out.end(), bytes, bytes + count * sizeof(float));
  };
  for (const Parameter* w : refs.matrices) put(w->value.data(), w->value.size());
  for (const VectorParameter* b : refs.vectors) put(b->value.data(), b->value.size());
  const auto rect = tv.rectifier->serialize_weights();
  out.insert(out.end(), rect.begin(), rect.end());
  return out;
}

TEST(Pipeline, TrainedWeightsIndependentOfThreadCount) {
#if !defined(_OPENMP)
  GTEST_SKIP() << "built without OpenMP: training always runs on one thread";
#elif defined(GV_TEST_UNDER_TSAN)
  GTEST_SKIP() << "multi-threaded OpenMP is not checkable under TSan";
#else
  const Dataset ds = vault_dataset(11);
  const int threads_before = omp_get_max_threads();
  omp_set_num_threads(1);
  TrainedVault one = train_vault(ds, fast_config());
  omp_set_num_threads(4);
  TrainedVault four = train_vault(ds, fast_config());
  omp_set_num_threads(threads_before);
  const auto one_bytes = weight_bytes(one);
  EXPECT_FALSE(one_bytes.empty());
  EXPECT_TRUE(one_bytes == weight_bytes(four))
      << "weights trained on 1 and 4 OpenMP threads differ";
#endif
}

TEST(Pipeline, PredictRectifiedMatchesReportedAccuracy) {
  const Dataset ds = vault_dataset(9);
  const TrainedVault tv = train_vault(ds, fast_config());
  const auto preds = tv.predict_rectified(ds.features);
  EXPECT_DOUBLE_EQ(accuracy_on(preds, ds.labels, ds.split.test),
                   tv.rectifier_test_accuracy);
}

TEST(Pipeline, TrainRectifierRejectsZeroEpochs) {
  const Dataset ds = vault_dataset(12);
  Rng rng(13);
  const std::vector<Matrix> outputs = {Matrix(ds.num_nodes(), 6, 0.5f),
                                       Matrix(ds.num_nodes(), 4, 0.5f)};
  RectifierConfig rc;
  rc.channels = {5, 4};
  Rectifier r(rc, {6, 4}, std::make_shared<const CsrMatrix>(ds.graph.gcn_normalized()),
              rng);
  TrainConfig tc;
  tc.epochs = 0;
  EXPECT_THROW(train_rectifier(r, outputs, ds.labels, ds.split.train, tc), Error);
}

TEST(Pipeline, CosineBackboneMatchesRealDensity) {
  const Dataset ds = vault_dataset(10);
  auto cfg = fast_config();
  cfg.backbone = BackboneKind::kCosine;
  cfg.cosine_tau = 0.15f;
  Rng rng(3);
  const Graph sub = build_substitute_graph(ds, cfg, rng);
  EXPECT_LE(sub.num_edges(), ds.graph.num_edges());
}

}  // namespace
}  // namespace gv
