#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "nn/dense_layer.hpp"
#include "nn/gcn_layer.hpp"
#include "tensor/gemm.hpp"

namespace gv {
namespace {

CsrMatrix identity_adj(std::size_t n) {
  std::vector<CooEntry> e;
  for (std::uint32_t i = 0; i < n; ++i) e.push_back({i, i, 1.0f});
  return CsrMatrix::from_coo(n, n, std::move(e));
}

TEST(GcnLayer, ForwardWithIdentityAdjIsLinear) {
  Rng rng(1);
  GcnLayer layer(3, 2, rng);
  const auto adj = identity_adj(4);
  Matrix x(4, 3, 1.0f);
  const Matrix y = layer.forward(adj, x, /*training=*/false);
  const Matrix expect = matmul(x, layer.weight().value);
  EXPECT_TRUE(y.allclose(expect, 1e-5f));  // bias initialized to zero
}

TEST(GcnLayer, ForwardAggregatesNeighbors) {
  Rng rng(2);
  GcnLayer layer(1, 1, rng);
  layer.weight().value(0, 0) = 1.0f;
  // adj row 0 averages nodes 0 and 1.
  auto adj = CsrMatrix::from_coo(2, 2, {{0, 0, 0.5f}, {0, 1, 0.5f}, {1, 1, 1.0f}});
  Matrix x{{2.0f}, {4.0f}};
  const Matrix y = layer.forward(adj, x, false);
  EXPECT_NEAR(y(0, 0), 3.0f, 1e-5);
  EXPECT_NEAR(y(1, 0), 4.0f, 1e-5);
}

TEST(GcnLayer, SparseForwardMatchesDenseForward) {
  Rng rng(3);
  GcnLayer layer(5, 3, rng);
  const auto adj = identity_adj(6);
  auto xs = CsrMatrix::from_coo(
      6, 5, {{0, 0, 1.0f}, {1, 2, 2.0f}, {3, 4, -1.0f}, {5, 1, 0.5f}});
  const Matrix xd = xs.to_dense();
  const Matrix y_sparse = layer.forward(adj, xs, false);
  const Matrix y_dense = layer.forward(adj, xd, false);
  EXPECT_TRUE(y_sparse.allclose(y_dense, 1e-5f));
}

TEST(GcnLayer, InputDimMismatchThrows) {
  Rng rng(4);
  GcnLayer layer(3, 2, rng);
  const auto adj = identity_adj(4);
  Matrix x(4, 7);
  EXPECT_THROW(layer.forward(adj, x, false), Error);
}

TEST(GcnLayer, AdjacencyShapeMismatchThrows) {
  Rng rng(5);
  GcnLayer layer(3, 2, rng);
  const auto adj = identity_adj(9);
  Matrix x(4, 3);
  EXPECT_THROW(layer.forward(adj, x, false), Error);
}

TEST(GcnLayer, BackwardWithoutTrainingForwardThrows) {
  Rng rng(6);
  GcnLayer layer(3, 2, rng);
  const auto adj = identity_adj(4);
  Matrix dy(4, 2, 1.0f);
  EXPECT_THROW(layer.backward(adj, dy), Error);
  // An inference forward after a training forward releases the training
  // cache, so a backward cannot silently use the stale training input.
  const Matrix x(4, 3, 1.0f);
  layer.forward(adj, x, /*training=*/true);
  layer.forward(adj, x, /*training=*/false);
  EXPECT_THROW(layer.backward(adj, dy), Error);
  const auto xs = CsrMatrix::from_coo(4, 3, {{0, 0, 1.0f}, {2, 1, 2.0f}});
  layer.forward(adj, xs, /*training=*/true);
  layer.forward(adj, xs, /*training=*/false);
  EXPECT_THROW(layer.backward_sparse_input(adj, dy), Error);
}

TEST(GcnLayer, ParameterCountIncludesBias) {
  Rng rng(7);
  GcnLayer layer(10, 4, rng);
  EXPECT_EQ(layer.parameter_count(), 10u * 4u + 4u);
}

TEST(GcnLayer, BiasGradientIsColumnSum) {
  Rng rng(8);
  GcnLayer layer(2, 2, rng);
  const auto adj = identity_adj(3);
  Matrix x(3, 2, 1.0f);
  layer.forward(adj, x, /*training=*/true);
  Matrix dy(3, 2, 0.0f);
  dy(0, 0) = 1.0f;
  dy(1, 0) = 2.0f;
  dy(2, 1) = 4.0f;
  layer.backward(adj, dy);
  EXPECT_NEAR(layer.bias().grad[0], 3.0f, 1e-5);
  EXPECT_NEAR(layer.bias().grad[1], 4.0f, 1e-5);
}

/// Uniform entries in [-1, 1).
Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

bool same_bytes(const float* a, const float* b, std::size_t count) {
  return count == 0 || std::memcmp(a, b, count * sizeof(float)) == 0;
}

TEST(GcnLayer, KeptInputColumnsMatchFullGradient) {
  Rng rng(31);
  GcnLayer layer(9, 5, rng);
  auto adj = CsrMatrix::from_coo(
      6, 6, {{0, 0, 0.5f}, {0, 1, 0.5f}, {1, 0, 0.5f}, {1, 1, 0.5f}, {2, 2, 1.0f},
             {3, 3, 0.5f}, {3, 5, 0.5f}, {4, 4, 1.0f}, {5, 3, 0.5f}, {5, 5, 0.5f}});
  const Matrix x = random_matrix(6, 9, rng);
  const Matrix dy = random_matrix(6, 5, rng);
  layer.forward(adj, x, /*training=*/true);
  const Matrix full = layer.backward(adj, dy);
  const Matrix w_grad = layer.weight().grad;
  const std::vector<float> b_grad = layer.bias().grad;
  for (const std::size_t first : {std::size_t{0}, std::size_t{4}, std::size_t{9}}) {
    layer.weight().grad.fill(0.0f);
    std::fill(layer.bias().grad.begin(), layer.bias().grad.end(), 0.0f);
    const Matrix kept = layer.backward(adj, dy, first);
    ASSERT_EQ(kept.rows(), 6u);
    ASSERT_EQ(kept.cols(), 9u - first);
    for (std::size_t r = 0; r < kept.rows(); ++r) {
      EXPECT_TRUE(same_bytes(kept.data() + r * kept.cols(),
                             full.data() + r * full.cols() + first, kept.cols()))
          << "first " << first << " row " << r;
    }
    // dW and db do not depend on which input columns are kept.
    EXPECT_TRUE(same_bytes(layer.weight().grad.data(), w_grad.data(), w_grad.size()));
    EXPECT_TRUE(same_bytes(layer.bias().grad.data(), b_grad.data(), b_grad.size()));
  }
  EXPECT_THROW(layer.backward(adj, dy, 10), Error);
}

TEST(DenseLayer, ForwardIsAffine) {
  Rng rng(9);
  DenseLayer layer(3, 2, rng);
  layer.bias().value = {1.0f, -1.0f};
  Matrix x(2, 3, 0.0f);
  const Matrix y = layer.forward(x, false);
  EXPECT_NEAR(y(0, 0), 1.0f, 1e-6);
  EXPECT_NEAR(y(1, 1), -1.0f, 1e-6);
}

TEST(DenseLayer, SparseForwardMatchesDense) {
  Rng rng(10);
  DenseLayer layer(4, 3, rng);
  auto xs = CsrMatrix::from_coo(5, 4, {{0, 1, 1.0f}, {2, 3, -2.0f}, {4, 0, 0.5f}});
  EXPECT_TRUE(layer.forward(xs, false).allclose(layer.forward(xs.to_dense(), false),
                                                1e-5f));
}

TEST(DenseLayer, BackwardComputesInputGradient) {
  Rng rng(11);
  DenseLayer layer(2, 2, rng);
  Matrix x{{1.0f, 2.0f}};
  layer.forward(x, /*training=*/true);
  Matrix dy{{1.0f, 0.0f}};
  const Matrix dx = layer.backward(dy);
  // dx = dy W'; with dy selecting first output column, dx = W[:,0]'.
  EXPECT_NEAR(dx(0, 0), layer.weight().value(0, 0), 1e-6);
  EXPECT_NEAR(dx(0, 1), layer.weight().value(1, 0), 1e-6);
}

TEST(DenseLayer, BackwardWithoutTrainingForwardThrows) {
  Rng rng(13);
  DenseLayer layer(3, 2, rng);
  Matrix dy(4, 2, 1.0f);
  EXPECT_THROW(layer.backward(dy), Error);
  // forward(train), then forward(eval): the eval forward released the
  // training cache.
  const Matrix x(4, 3, 1.0f);
  layer.forward(x, /*training=*/true);
  layer.forward(x, /*training=*/false);
  EXPECT_THROW(layer.backward(dy), Error);
  const auto xs = CsrMatrix::from_coo(4, 3, {{0, 0, 1.0f}, {3, 2, -1.0f}});
  layer.forward(xs, /*training=*/true);
  layer.forward(xs, /*training=*/false);
  EXPECT_THROW(layer.backward_sparse_input(dy), Error);
}

TEST(DenseLayer, SparseBackwardAfterDenseForwardThrows) {
  Rng rng(12);
  DenseLayer layer(2, 2, rng);
  Matrix x(1, 2);
  layer.forward(x, true);
  Matrix dy(1, 2);
  EXPECT_THROW(layer.backward_sparse_input(dy), Error);
}

}  // namespace
}  // namespace gv
