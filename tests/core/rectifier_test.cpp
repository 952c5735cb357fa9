#include "core/rectifier.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/error.hpp"
#include "graph/graph.hpp"
#include "tensor/ops.hpp"

namespace gv {
namespace {

std::shared_ptr<const CsrMatrix> line_adj(std::size_t n) {
  Graph g(static_cast<std::uint32_t>(n));
  for (std::uint32_t v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return std::make_shared<const CsrMatrix>(g.gcn_normalized());
}

/// Fake backbone outputs: dims {8, 6, 3} over n nodes.
std::vector<Matrix> fake_backbone(std::size_t n, Rng& rng) {
  std::vector<Matrix> outs;
  for (const std::size_t d : {8, 6, 3}) {
    Matrix m(n, d);
    for (std::size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    outs.push_back(std::move(m));
  }
  return outs;
}

RectifierConfig config(RectifierKind kind) {
  RectifierConfig rc;
  rc.kind = kind;
  rc.channels = {5, 4, 3};
  rc.dropout = 0.0f;
  return rc;
}

TEST(Rectifier, ParallelInputDims) {
  Rng rng(1);
  Rectifier r(config(RectifierKind::kParallel), {8, 6, 3}, line_adj(10), rng);
  EXPECT_EQ(r.layer_input_dim(0), 8u);
  EXPECT_EQ(r.layer_input_dim(1), 6u + 5u);
  EXPECT_EQ(r.layer_input_dim(2), 3u + 4u);
}

TEST(Rectifier, CascadedInputDims) {
  Rng rng(2);
  Rectifier r(config(RectifierKind::kCascaded), {8, 6, 3}, line_adj(10), rng);
  EXPECT_EQ(r.layer_input_dim(0), 8u + 6u + 3u);
  EXPECT_EQ(r.layer_input_dim(1), 5u);
  EXPECT_EQ(r.layer_input_dim(2), 4u);
}

TEST(Rectifier, SeriesInputDimIsPenultimate) {
  Rng rng(3);
  Rectifier r(config(RectifierKind::kSeries), {8, 6, 3}, line_adj(10), rng);
  EXPECT_EQ(r.layer_input_dim(0), 6u);
}

TEST(Rectifier, RequiredBackboneLayersPerKind) {
  Rng rng(4);
  Rectifier par(config(RectifierKind::kParallel), {8, 6, 3}, line_adj(10), rng);
  EXPECT_EQ(par.required_backbone_layers(), (std::vector<std::size_t>{0, 1, 2}));
  Rectifier cas(config(RectifierKind::kCascaded), {8, 6, 3}, line_adj(10), rng);
  EXPECT_EQ(cas.required_backbone_layers(), (std::vector<std::size_t>{0, 1, 2}));
  Rectifier ser(config(RectifierKind::kSeries), {8, 6, 3}, line_adj(10), rng);
  EXPECT_EQ(ser.required_backbone_layers(), (std::vector<std::size_t>{1}));
}

TEST(Rectifier, SeriesSmallestParallelAlignedParamCounts) {
  // With equal channel configs the series design reads the smallest input,
  // so it must have the fewest parameters (the Table II ordering).
  Rng rng(5);
  Rectifier par(config(RectifierKind::kParallel), {8, 6, 3}, line_adj(10), rng);
  Rectifier cas(config(RectifierKind::kCascaded), {8, 6, 3}, line_adj(10), rng);
  Rectifier ser(config(RectifierKind::kSeries), {8, 6, 3}, line_adj(10), rng);
  EXPECT_LT(ser.parameter_count(), par.parameter_count());
  EXPECT_LT(ser.parameter_count(), cas.parameter_count());
}

TEST(Rectifier, ParallelDeeperThanBackboneThrows) {
  Rng rng(6);
  RectifierConfig rc = config(RectifierKind::kParallel);
  rc.channels = {5, 4, 3, 2};
  EXPECT_THROW(Rectifier(rc, {8, 6, 3}, line_adj(10), rng), Error);
}

TEST(Rectifier, ForwardShapesPerKind) {
  Rng rng(7);
  Rng data_rng(8);
  const auto outs = fake_backbone(10, data_rng);
  for (const auto kind :
       {RectifierKind::kParallel, RectifierKind::kCascaded, RectifierKind::kSeries}) {
    Rectifier r(config(kind), {8, 6, 3}, line_adj(10), rng);
    const Matrix logits = r.forward(outs, false);
    EXPECT_EQ(logits.rows(), 10u) << rectifier_kind_name(kind);
    EXPECT_EQ(logits.cols(), 3u) << rectifier_kind_name(kind);
  }
}

TEST(Rectifier, SeriesIgnoresOtherBackboneLayers) {
  Rng rng(9);
  Rng data_rng(10);
  auto outs = fake_backbone(10, data_rng);
  Rectifier r(config(RectifierKind::kSeries), {8, 6, 3}, line_adj(10), rng);
  const Matrix a = r.forward(outs, false);
  outs[0].fill(99.0f);  // layer 0 not required by series
  outs[2].fill(-3.0f);  // logits layer not required either
  const Matrix b = r.forward(outs, false);
  EXPECT_TRUE(a.allclose(b, 0.0f));
}

TEST(Rectifier, MissingRequiredInputThrows) {
  Rng rng(11);
  Rng data_rng(12);
  auto outs = fake_backbone(10, data_rng);
  outs[1] = Matrix();  // required by series
  Rectifier r(config(RectifierKind::kSeries), {8, 6, 3}, line_adj(10), rng);
  EXPECT_THROW(r.forward(outs, false), Error);
}

/// Numerical gradient check of every weight matrix through `kind`'s
/// backward (the concat-and-split path for the parallel kind).
void grad_check(RectifierKind kind, std::uint64_t seed) {
  Rng rng(seed);
  Rng data_rng(seed + 1);
  const std::size_t n = 10;
  const auto outs = fake_backbone(n, data_rng);
  Rectifier r(config(kind), {8, 6, 3}, line_adj(n), rng);

  std::vector<std::uint32_t> labels(n);
  for (std::uint32_t v = 0; v < n; ++v) labels[v] = v % 3;
  const std::vector<std::uint32_t> mask = {0, 3, 6, 9};

  auto loss_of = [&]() {
    Matrix dlp;
    return nll_loss_masked(log_softmax_rows(r.forward(outs, true)), labels, mask, dlp);
  };
  ParamRefs refs;
  r.collect_parameters(refs);
  refs.zero_grad();
  {
    const Matrix logits = r.forward(outs, true);
    const Matrix logp = log_softmax_rows(logits);
    Matrix dlp;
    nll_loss_masked(logp, labels, mask, dlp);
    r.backward(log_softmax_backward(dlp, logp));
  }
  const float eps = 1e-3f;
  for (auto* param : refs.matrices) {
    const std::size_t stride = std::max<std::size_t>(1, param->value.size() / 6);
    for (std::size_t i = 0; i < param->value.size(); i += stride) {
      const float orig = param->value.data()[i];
      param->value.data()[i] = orig + eps;
      const double lp = loss_of();
      param->value.data()[i] = orig - eps;
      const double lm = loss_of();
      param->value.data()[i] = orig;
      EXPECT_NEAR(param->grad.data()[i], (lp - lm) / (2.0 * eps), 2e-3)
          << rectifier_kind_name(kind);
    }
  }
}

TEST(Rectifier, GradCheckParallel) { grad_check(RectifierKind::kParallel, 13); }

TEST(Rectifier, GradCheckCascaded) { grad_check(RectifierKind::kCascaded, 20); }

TEST(Rectifier, GradCheckSeries) { grad_check(RectifierKind::kSeries, 24); }

/// Every parameter gradient as raw bytes, in collect_parameters order.
std::vector<std::uint8_t> grad_bytes(const ParamRefs& refs) {
  std::vector<std::uint8_t> out;
  const auto put = [&](const float* p, std::size_t count) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(p);
    out.insert(out.end(), bytes, bytes + count * sizeof(float));
  };
  for (const Parameter* w : refs.matrices) put(w->grad.data(), w->grad.size());
  for (const VectorParameter* b : refs.vectors) put(b->grad.data(), b->grad.size());
  return out;
}

/// Columns [begin, cols) of m as a copy.
Matrix cols_from(const Matrix& m, std::size_t begin) {
  Matrix out(m.rows(), m.cols() - begin);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = begin; c < m.cols(); ++c) out(r, c - begin) = m(r, c);
  }
  return out;
}

TEST(Rectifier, BackwardMatchesFullInputGradientChain) {
  // Rectifier::backward asks each layer only for the input-gradient columns
  // it passes on. The reference chains every layer's full input gradient and
  // slices off the backbone part; the parameter gradients must not change by
  // a single bit.
  const std::size_t n = 12;
  const std::vector<std::size_t> dims = {8, 6, 3};
  for (const auto kind :
       {RectifierKind::kParallel, RectifierKind::kCascaded, RectifierKind::kSeries}) {
    Rng rng(31);
    Rng data_rng(32);
    const auto outs = fake_backbone(n, data_rng);
    const auto adj = line_adj(n);
    Rectifier r(config(kind), dims, adj, rng);
    ParamRefs refs;
    r.collect_parameters(refs);

    const Matrix logits = r.forward(outs, true);
    Matrix dlogits(logits.rows(), logits.cols());
    for (std::size_t i = 0; i < dlogits.size(); ++i) {
      dlogits.data()[i] = static_cast<float>(data_rng.uniform(-1.0, 1.0));
    }
    refs.zero_grad();
    r.backward(dlogits);
    const auto kept_only = grad_bytes(refs);

    // The same forward layer by layer (config() has no dropout), keeping
    // the pre-activations the reference backward gates on.
    const std::size_t L = r.num_layers();
    std::vector<Matrix> z(L);
    Matrix h;
    for (std::size_t k = 0; k < L; ++k) {
      Matrix input;
      switch (kind) {
        case RectifierKind::kParallel:
          input = k == 0 ? outs[0] : Matrix::hconcat(outs[k], h);
          break;
        case RectifierKind::kCascaded: {
          const Matrix* blocks[] = {&outs[0], &outs[1], &outs[2]};
          input = k == 0 ? Matrix::hconcat(std::span<const Matrix* const>(blocks)) : h;
          break;
        }
        case RectifierKind::kSeries:
          input = k == 0 ? outs[1] : h;
          break;
      }
      z[k] = r.layer(k).forward(*adj, input, true);
      if (k + 1 < L) h = relu(z[k]);
    }
    ASSERT_EQ(std::memcmp(z.back().data(), logits.data(), logits.size() * sizeof(float)),
              0)
        << rectifier_kind_name(kind);

    refs.zero_grad();
    Matrix d = dlogits;
    for (std::size_t k = L; k-- > 0;) {
      if (k + 1 < L) relu_backward(d, z[k]);
      Matrix dinput = r.layer(k).backward(*adj, d);
      if (k == 0) break;
      d = kind == RectifierKind::kParallel ? cols_from(dinput, dims[k])
                                           : std::move(dinput);
    }
    EXPECT_TRUE(grad_bytes(refs) == kept_only) << rectifier_kind_name(kind);
  }
}

TEST(Rectifier, SerializeDeserializeRoundTrip) {
  Rng rng(15);
  Rng data_rng(16);
  const auto outs = fake_backbone(10, data_rng);
  Rectifier a(config(RectifierKind::kParallel), {8, 6, 3}, line_adj(10), rng);
  Rectifier b(config(RectifierKind::kParallel), {8, 6, 3}, line_adj(10), rng);
  const Matrix before = b.forward(outs, false);
  b.deserialize_weights(a.serialize_weights());
  const Matrix after = b.forward(outs, false);
  EXPECT_FALSE(before.allclose(after, 1e-6f));
  EXPECT_TRUE(after.allclose(a.forward(outs, false), 1e-6f));
}

TEST(Rectifier, DeserializeRejectsWrongShape) {
  Rng rng(17);
  Rectifier a(config(RectifierKind::kParallel), {8, 6, 3}, line_adj(10), rng);
  Rectifier b(config(RectifierKind::kSeries), {8, 6, 3}, line_adj(10), rng);
  EXPECT_THROW(b.deserialize_weights(a.serialize_weights()), Error);
}

TEST(Rectifier, DeserializeRejectsTruncatedBlob) {
  Rng rng(18);
  Rectifier a(config(RectifierKind::kSeries), {8, 6, 3}, line_adj(10), rng);
  auto blob = a.serialize_weights();
  blob.resize(blob.size() - 4);
  EXPECT_THROW(a.deserialize_weights(blob), Error);
}

TEST(Rectifier, ActivationBytesMatchChannels) {
  Rng rng(19);
  Rectifier r(config(RectifierKind::kParallel), {8, 6, 3}, line_adj(10), rng);
  const auto bytes = r.activation_bytes(100);
  EXPECT_EQ(bytes, (std::vector<std::size_t>{100 * 5 * 4, 100 * 4 * 4, 100 * 3 * 4}));
}

}  // namespace
}  // namespace gv
