#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"

namespace gv {
namespace {

TEST(Ops, ReluClampsNegatives) {
  Matrix x{{-1, 0, 2}};
  const Matrix y = relu(x);
  EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(y(0, 2), 2.0f);
}

TEST(Ops, ReluBackwardGatesOnForwardInput) {
  Matrix x{{-1, 0.5f, 2}};
  Matrix dx{{10, 10, 10}};
  relu_backward(dx, x);
  EXPECT_FLOAT_EQ(dx(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx(0, 1), 10.0f);
  EXPECT_FLOAT_EQ(dx(0, 2), 10.0f);
}

/// Uniform entries in [-1, 1) with every seventh one exactly zero.
Matrix signed_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = i % 7 == 3 ? 0.0f : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

bool same_bytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Ops, ReluBackwardBitExactWithNanAndSignedZeros) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(21);
  // Odd size so vectorized bodies and their scalar tails both run.
  Matrix x = signed_matrix(13, 11, rng);
  const float specials[] = {nan, 0.0f, -0.0f, -1.5f, 2.5f, inf, -inf};
  for (std::size_t i = 0; i < x.size(); i += 5) x.data()[i] = specials[(i / 5) % 7];
  const Matrix dy = signed_matrix(13, 11, rng);
  Matrix expect(13, 11);
  for (std::size_t i = 0; i < x.size(); ++i) {
    expect.data()[i] = x.data()[i] <= 0.0f ? 0.0f : dy.data()[i];
  }
  Matrix dx = dy;
  relu_backward(dx, x);
  EXPECT_TRUE(same_bytes(dx, expect));
  // A NaN pre-activation passes the gradient through.
  EXPECT_EQ(dx.data()[0], dy.data()[0]);
}

TEST(Ops, DropoutForwardBitExactAgainstBernoulliLoop) {
  Rng data_rng(22);
  const Matrix input = signed_matrix(37, 13, data_rng);
  for (const float p : {0.5f, 0.3f, 0.0f}) {
    Matrix x = input;
    Rng rng(23);
    const DropoutMask mask = dropout_forward(x, p, rng);

    Rng ref(23);
    const float scale = 1.0f / (1.0f - p);
    std::vector<std::uint8_t> keep(input.size());
    Matrix expect(input.rows(), input.cols());
    for (std::size_t i = 0; i < input.size(); ++i) {
      keep[i] = ref.bernoulli(p) ? 0 : 1;
      expect.data()[i] = keep[i] ? input.data()[i] * scale : 0.0f;  // +0 when dropped
    }
    EXPECT_EQ(mask.scale, scale) << "p " << p;
    ASSERT_EQ(mask.keep.size(), keep.size());
    EXPECT_EQ(std::memcmp(mask.keep.data(), keep.data(), keep.size()), 0) << "p " << p;
    EXPECT_TRUE(same_bytes(x, expect)) << "p " << p;
    // One draw per entry: both streams continue in step.
    EXPECT_EQ(rng.next_u64(), ref.next_u64()) << "p " << p;
  }
}

TEST(Ops, DropoutBackwardBitExactAgainstMaskLoop) {
  Rng data_rng(24);
  Matrix x = signed_matrix(29, 17, data_rng);
  Rng rng(25);
  const DropoutMask mask = dropout_forward(x, 0.4f, rng);
  const Matrix dy = signed_matrix(29, 17, data_rng);
  Matrix expect(dy.rows(), dy.cols());
  for (std::size_t i = 0; i < dy.size(); ++i) {
    expect.data()[i] = mask.keep[i] ? dy.data()[i] * mask.scale : 0.0f;
  }
  Matrix d = dy;
  dropout_backward(d, mask);
  EXPECT_TRUE(same_bytes(d, expect));
}

TEST(Ops, ReluBackwardShapeMismatchThrows) {
  Matrix x(1, 2), dy(2, 1);
  EXPECT_THROW(relu_backward(dy, x), Error);
}

TEST(Ops, DropoutKeepsScaledValues) {
  Rng rng(1);
  Matrix x(100, 10, 1.0f);
  const auto mask = dropout_forward(x, 0.5f, rng);
  int kept = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (mask.keep[i]) {
      EXPECT_FLOAT_EQ(x.data()[i], 2.0f);  // 1/(1-0.5)
      ++kept;
    } else {
      EXPECT_FLOAT_EQ(x.data()[i], 0.0f);
    }
  }
  EXPECT_NEAR(static_cast<double>(kept) / x.size(), 0.5, 0.05);
}

TEST(Ops, DropoutZeroProbabilityKeepsAll) {
  Rng rng(2);
  Matrix x(5, 5, 3.0f);
  const auto mask = dropout_forward(x, 0.0f, rng);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(mask.keep[i], 1);
    EXPECT_FLOAT_EQ(x.data()[i], 3.0f);
  }
}

TEST(Ops, DropoutBackwardAppliesSameMask) {
  Rng rng(3);
  Matrix x(10, 10, 1.0f);
  const auto mask = dropout_forward(x, 0.3f, rng);
  Matrix dy(10, 10, 1.0f);
  dropout_backward(dy, mask);
  for (std::size_t i = 0; i < dy.size(); ++i) {
    if (mask.keep[i]) {
      EXPECT_NEAR(dy.data()[i], mask.scale, 1e-6);
    } else {
      EXPECT_FLOAT_EQ(dy.data()[i], 0.0f);
    }
  }
}

TEST(Ops, DropoutInvalidProbabilityThrows) {
  Rng rng(4);
  Matrix x(2, 2);
  EXPECT_THROW(dropout_forward(x, 1.0f, rng), Error);
  EXPECT_THROW(dropout_forward(x, -0.1f, rng), Error);
}

TEST(Ops, LogSoftmaxRowsSumToOne) {
  Matrix x{{1, 2, 3}, {-5, 0, 5}};
  const Matrix lp = log_softmax_rows(x);
  for (std::size_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) sum += std::exp(lp(r, c));
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, LogSoftmaxIsShiftInvariant) {
  Matrix a{{1, 2, 3}};
  Matrix b{{101, 102, 103}};
  EXPECT_TRUE(log_softmax_rows(a).allclose(log_softmax_rows(b), 1e-4f));
}

TEST(Ops, LogSoftmaxHandlesExtremeValues) {
  Matrix x{{1000, 0, -1000}};
  const Matrix lp = log_softmax_rows(x);
  EXPECT_NEAR(lp(0, 0), 0.0f, 1e-4);
  EXPECT_LT(lp(0, 2), -1000.0f);
}

TEST(Ops, SoftmaxMatchesExpOfLogSoftmax) {
  Matrix x{{0.5f, -1.0f, 2.0f}};
  const Matrix s = softmax_rows(x);
  double sum = 0.0;
  for (std::size_t c = 0; c < 3; ++c) sum += s(0, c);
  EXPECT_NEAR(sum, 1.0, 1e-5);
  EXPECT_GT(s(0, 2), s(0, 0));
}

TEST(Ops, AddBiasRows) {
  Matrix x(2, 3, 0.0f);
  add_bias_rows(x, {1.0f, 2.0f, 3.0f});
  EXPECT_FLOAT_EQ(x(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(x(1, 2), 3.0f);
}

TEST(Ops, AddBiasShapeMismatchThrows) {
  Matrix x(2, 3);
  EXPECT_THROW(add_bias_rows(x, {1.0f}), Error);
}

TEST(Ops, ColSums) {
  Matrix x{{1, 2}, {3, 4}};
  const auto s = col_sums(x);
  EXPECT_FLOAT_EQ(s[0], 4.0f);
  EXPECT_FLOAT_EQ(s[1], 6.0f);
}

TEST(Ops, ArgmaxRowsPicksFirstOfTies) {
  Matrix x{{1, 3, 3}, {5, 2, 1}};
  const auto am = argmax_rows(x);
  EXPECT_EQ(am[0], 1u);
  EXPECT_EQ(am[1], 0u);
}

TEST(Ops, NllLossMaskedPerfectPredictionNearZero) {
  // log-probs heavily favoring the correct class.
  Matrix logits{{10, 0, 0}, {0, 10, 0}};
  const Matrix lp = log_softmax_rows(logits);
  Matrix dlp;
  const double loss = nll_loss_masked(lp, {0, 1}, {0, 1}, dlp);
  EXPECT_LT(loss, 0.01);
}

TEST(Ops, NllLossGradientOnlyOnMaskedRows) {
  Matrix lp = log_softmax_rows(Matrix{{1, 2}, {3, 1}, {0, 0}});
  Matrix dlp;
  nll_loss_masked(lp, {0, 1, 0}, {1}, dlp);
  // Row 1 label 1 gets -1/|mask|; all other entries zero.
  EXPECT_FLOAT_EQ(dlp(1, 1), -1.0f);
  EXPECT_FLOAT_EQ(dlp(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dlp(2, 0), 0.0f);
}

TEST(Ops, NllLossEmptyMaskThrows) {
  Matrix lp(1, 2);
  Matrix dlp;
  EXPECT_THROW(nll_loss_masked(lp, {0}, {}, dlp), Error);
}

TEST(Ops, NllLossLabelOutOfRangeThrows) {
  Matrix lp = log_softmax_rows(Matrix{{1, 2}});
  Matrix dlp;
  EXPECT_THROW(nll_loss_masked(lp, {5}, {0}, dlp), Error);
}

TEST(Ops, LogSoftmaxBackwardFiniteDifference) {
  // Check d(loss)/dz of loss = -logp(z)[0, y] numerically.
  Matrix z{{0.3f, -0.7f, 1.1f}};
  const std::vector<std::uint32_t> labels = {2};
  const std::vector<std::uint32_t> mask = {0};
  auto loss_of = [&](const Matrix& zz) {
    Matrix dlp;
    return nll_loss_masked(log_softmax_rows(zz), labels, mask, dlp);
  };
  Matrix lp = log_softmax_rows(z);
  Matrix dlp;
  nll_loss_masked(lp, labels, mask, dlp);
  const Matrix dz = log_softmax_backward(dlp, lp);
  const float eps = 1e-3f;
  for (std::size_t c = 0; c < 3; ++c) {
    Matrix zp = z, zm = z;
    zp(0, c) += eps;
    zm(0, c) -= eps;
    const double numeric = (loss_of(zp) - loss_of(zm)) / (2.0 * eps);
    EXPECT_NEAR(dz(0, c), numeric, 1e-3) << "channel " << c;
  }
}

TEST(Ops, L2NormalizeRowsUnitNorm) {
  Matrix x{{3, 4}, {0, 0}};
  l2_normalize_rows(x);
  EXPECT_NEAR(x(0, 0), 0.6f, 1e-6);
  EXPECT_NEAR(x(0, 1), 0.8f, 1e-6);
  EXPECT_FLOAT_EQ(x(1, 0), 0.0f);  // zero row untouched
}

TEST(Ops, RowDistancesKnownValues) {
  Matrix x{{0, 0}, {3, 4}};
  EXPECT_NEAR(row_euclidean(x, 0, 1), 5.0f, 1e-5);
  EXPECT_NEAR(row_chebyshev(x, 0, 1), 4.0f, 1e-5);
}

TEST(Ops, RowCosineParallelAndOrthogonal) {
  Matrix x{{1, 0}, {2, 0}, {0, 5}};
  EXPECT_NEAR(row_cosine(x, 0, 1), 1.0f, 1e-5);
  EXPECT_NEAR(row_cosine(x, 0, 2), 0.0f, 1e-5);
}

TEST(Ops, RowCorrelationInvariantToShiftScale) {
  Matrix x{{1, 2, 3, 4}, {10, 20, 30, 40}, {4, 3, 2, 1}};
  EXPECT_NEAR(row_correlation(x, 0, 1), 1.0f, 1e-5);
  EXPECT_NEAR(row_correlation(x, 0, 2), -1.0f, 1e-5);
}

TEST(Ops, RowBraycurtisBounds) {
  Matrix x{{1, 1}, {1, 1}, {0, 2}};
  EXPECT_NEAR(row_braycurtis(x, 0, 1), 0.0f, 1e-6);
  const float d = row_braycurtis(x, 0, 2);
  EXPECT_GT(d, 0.0f);
  EXPECT_LE(d, 1.0f);
}

TEST(Ops, RowCanberraSkipsZeroDenominator) {
  Matrix x{{0, 1}, {0, 2}};
  // First component 0/0 skipped; second |1-2|/3.
  EXPECT_NEAR(row_canberra(x, 0, 1), 1.0f / 3.0f, 1e-5);
}

TEST(Ops, RowMetricsOutOfRangeThrow) {
  Matrix x(2, 2);
  EXPECT_THROW(row_euclidean(x, 0, 5), Error);
  EXPECT_THROW(row_cosine(x, 3, 0), Error);
}

}  // namespace
}  // namespace gv
