// GraphSAGE / GAT layer and model tests, including numerical gradient
// checks through the mean-aggregator and the attention softmax.
#include "nn/arch_models.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"

namespace gv {
namespace {

struct Problem {
  Graph graph;
  CsrMatrix features;
  std::vector<std::uint32_t> labels;
  std::vector<std::uint32_t> mask;
};

Problem make_problem(std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.graph = Graph(10);
  for (std::uint32_t v = 0; v + 1 < 10; ++v) p.graph.add_edge(v, v + 1);
  p.graph.add_edge(0, 4);
  p.graph.add_edge(2, 7);
  std::vector<CooEntry> fe;
  for (std::uint32_t r = 0; r < 10; ++r) {
    for (std::uint32_t c = 0; c < 5; ++c) {
      if (rng.bernoulli(0.5)) {
        fe.push_back({r, c, static_cast<float>(rng.uniform(-1.0, 1.0))});
      }
    }
    fe.push_back({r, r % 5u, 1.0f});
  }
  p.features = CsrMatrix::from_coo(10, 5, std::move(fe));
  for (std::uint32_t v = 0; v < 10; ++v) p.labels.push_back(v % 3);
  p.mask = {0, 2, 4, 6, 8};
  return p;
}

double model_loss(NodeModel& m, const Problem& p) {
  Matrix dlp;
  return nll_loss_masked(log_softmax_rows(m.forward(p.features, true)), p.labels,
                         p.mask, dlp);
}

void gradcheck(NodeModel& m, const Problem& p, double tol) {
  ParamRefs refs;
  m.collect_parameters(refs);
  refs.zero_grad();
  {
    const Matrix logits = m.forward(p.features, true);
    const Matrix logp = log_softmax_rows(logits);
    Matrix dlp;
    nll_loss_masked(logp, p.labels, p.mask, dlp);
    m.backward(log_softmax_backward(dlp, logp));
  }
  const float eps = 1e-3f;
  for (auto* param : refs.matrices) {
    const std::size_t stride = std::max<std::size_t>(1, param->value.size() / 6);
    for (std::size_t i = 0; i < param->value.size(); i += stride) {
      const float orig = param->value.data()[i];
      param->value.data()[i] = orig + eps;
      const double lp = model_loss(m, p);
      param->value.data()[i] = orig - eps;
      const double lm = model_loss(m, p);
      param->value.data()[i] = orig;
      EXPECT_NEAR(param->grad.data()[i], (lp - lm) / (2.0 * eps), tol);
    }
  }
  for (auto* param : refs.vectors) {
    const std::size_t stride = std::max<std::size_t>(1, param->value.size() / 4);
    for (std::size_t i = 0; i < param->value.size(); i += stride) {
      const float orig = param->value[i];
      param->value[i] = orig + eps;
      const double lp = model_loss(m, p);
      param->value[i] = orig - eps;
      const double lm = model_loss(m, p);
      param->value[i] = orig;
      EXPECT_NEAR(param->grad[i], (lp - lm) / (2.0 * eps), tol);
    }
  }
}

TEST(SagePropagationBuilder, RowStochasticAndTransposed) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  const auto prop = make_sage_propagation(g);
  const Matrix p = prop.p->to_dense();
  for (std::size_t r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 4; ++c) sum += p(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-5);  // every node here has >= 1 neighbor
  }
  EXPECT_TRUE(prop.pt->to_dense().allclose(p.transposed(), 1e-6f));
}

TEST(SageModel, ForwardShapesAndDeterminism) {
  const Problem p = make_problem(1);
  Rng rng(10);
  SageModel m({5, {8, 3}, 0.0f}, make_sage_propagation(p.graph), rng);
  const Matrix a = m.forward(p.features, false);
  EXPECT_EQ(a.rows(), 10u);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_TRUE(a.allclose(m.forward(p.features, false), 0.0f));
}

TEST(SageModel, GradCheckTwoLayers) {
  const Problem p = make_problem(2);
  Rng rng(11);
  SageModel m({5, {6, 3}, 0.0f}, make_sage_propagation(p.graph), rng);
  gradcheck(m, p, 2e-3);
}

TEST(SageModel, SelfAndNeighborWeightsAreSeparate) {
  const Problem p = make_problem(3);
  Rng rng(12);
  SageModel m({5, {3}, 0.0f}, make_sage_propagation(p.graph), rng);
  ParamRefs refs;
  m.collect_parameters(refs);
  EXPECT_EQ(refs.matrices.size(), 2u);  // W_self and W_neigh for one layer
}

TEST(SageLayer, BackwardWithoutTrainingForwardThrows) {
  const Problem p = make_problem(18);
  const auto prop = make_sage_propagation(p.graph);
  Rng rng(19);
  SageLayer layer(5, 3, rng);
  Matrix dy(10, 3, 1.0f);
  EXPECT_THROW(layer.backward(prop, dy), Error);
  // forward(train), then forward(eval): the eval forward released the
  // training cache.
  const Matrix x = p.features.to_dense();
  layer.forward(prop, x, /*training=*/true);
  layer.forward(prop, x, /*training=*/false);
  EXPECT_THROW(layer.backward(prop, dy), Error);
  layer.forward(prop, p.features, /*training=*/true);
  layer.forward(prop, p.features, /*training=*/false);
  EXPECT_THROW(layer.backward_sparse_input(prop, dy), Error);
}

TEST(GatLayer, BackwardWithoutTrainingForwardThrows) {
  const Problem p = make_problem(20);
  const auto adj = p.graph.adjacency_csr(true);
  Rng rng(21);
  GatLayer layer(5, 3, rng);
  Matrix dy(10, 3, 1.0f);
  EXPECT_THROW(layer.backward(adj, dy), Error);
  // forward(train), then forward(eval): the eval forward released the
  // cached input, projections and attention weights.
  const Matrix x = p.features.to_dense();
  layer.forward(adj, x, /*training=*/true);
  layer.forward(adj, x, /*training=*/false);
  EXPECT_THROW(layer.backward(adj, dy), Error);
}

TEST(GatLayer, AttentionRowsSumToOneEffect) {
  // With identical z rows, attention is uniform; output = z (plus bias 0).
  Rng rng(13);
  GatLayer layer(2, 2, rng);
  layer.weight().value = Matrix::identity(2);
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto adj = g.adjacency_csr(true);
  Matrix x(3, 2, 1.0f);  // identical rows
  const Matrix y = layer.forward(adj, x, false);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(y(r, 0), 1.0f, 1e-5);
    EXPECT_NEAR(y(r, 1), 1.0f, 1e-5);
  }
}

TEST(GatLayer, SkippedInputGradientKeepsParameterGradients) {
  // GatModel's first layer reads raw features and asks for no input
  // gradient; its parameter gradients must equal the full backward's bit
  // for bit, and kept columns must equal those of the full input gradient.
  const Problem p = make_problem(16);
  Rng rng(17);
  GatLayer layer(5, 4, rng);
  const auto adj = p.graph.adjacency_csr(true);
  const Matrix x = p.features.to_dense();
  Matrix dy(10, 4);
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dy.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  layer.forward(adj, x, /*training=*/true);
  ParamRefs refs;
  layer.collect_parameters(refs);
  const auto grads = [&refs] {
    std::vector<float> out;
    for (const Parameter* w : refs.matrices) {
      out.insert(out.end(), w->grad.data(), w->grad.data() + w->grad.size());
    }
    for (const VectorParameter* v : refs.vectors) {
      out.insert(out.end(), v->grad.begin(), v->grad.end());
    }
    return out;
  };
  refs.zero_grad();
  const Matrix full = layer.backward(adj, dy);
  const std::vector<float> full_grads = grads();
  for (const std::size_t first : {std::size_t{2}, std::size_t{5}}) {
    refs.zero_grad();
    const Matrix kept = layer.backward(adj, dy, first);
    ASSERT_EQ(kept.cols(), 5u - first);
    for (std::size_t r = 0; !kept.empty() && r < kept.rows(); ++r) {
      EXPECT_EQ(std::memcmp(kept.data() + r * kept.cols(),
                            full.data() + r * full.cols() + first,
                            kept.cols() * sizeof(float)),
                0);
    }
    const std::vector<float> kept_grads = grads();
    ASSERT_EQ(kept_grads.size(), full_grads.size());
    EXPECT_EQ(std::memcmp(kept_grads.data(), full_grads.data(),
                          full_grads.size() * sizeof(float)),
              0)
        << "first " << first;
  }
}

TEST(GatModel, GradCheckTwoLayers) {
  const Problem p = make_problem(4);
  Rng rng(14);
  auto adj = std::make_shared<const CsrMatrix>(p.graph.adjacency_csr(true));
  GatModel m({5, {6, 3}, 0.0f, 0.2f}, adj, rng);
  gradcheck(m, p, 3e-3);
}

TEST(GatModel, ForwardDeterministicInEval) {
  const Problem p = make_problem(5);
  Rng rng(15);
  auto adj = std::make_shared<const CsrMatrix>(p.graph.adjacency_csr(true));
  GatModel m({5, {8, 3}, 0.5f, 0.2f}, adj, rng);
  const Matrix a = m.forward(p.features, false);
  EXPECT_TRUE(a.allclose(m.forward(p.features, false), 0.0f));
}

TEST(ArchModels, BothTrainAboveChanceOnSyntheticGraph) {
  SyntheticSpec spec;
  spec.num_nodes = 250;
  spec.num_classes = 3;
  spec.num_undirected_edges = 800;
  spec.feature_dim = 80;
  spec.homophily = 0.85;
  spec.feature_signal = 0.5;
  const Dataset ds = generate_synthetic(spec, 77);
  TrainConfig tc;
  tc.epochs = 60;

  Rng rng1(20);
  SageModel sage({ds.feature_dim(), {16, ds.num_classes}, 0.3f},
                 make_sage_propagation(ds.graph), rng1);
  train_node_classifier(sage, ds.features, ds.labels, ds.split.train, tc);
  EXPECT_GT(evaluate_accuracy(sage, ds.features, ds.labels, ds.split.test), 0.55);

  Rng rng2(21);
  auto adj = std::make_shared<const CsrMatrix>(ds.graph.adjacency_csr(true));
  GatModel gat({ds.feature_dim(), {16, ds.num_classes}, 0.3f, 0.2f}, adj, rng2);
  train_node_classifier(gat, ds.features, ds.labels, ds.split.train, tc);
  EXPECT_GT(evaluate_accuracy(gat, ds.features, ds.labels, ds.split.test), 0.55);
}

}  // namespace
}  // namespace gv
