#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace gv {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

/// Reference triple-loop multiply.
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k)
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += a(i, k) * b(k, j);
  return c;
}

TEST(Gemm, SmallKnownProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(Gemm, IdentityIsNeutral) {
  Rng rng(1);
  const Matrix a = random_matrix(7, 7, rng);
  EXPECT_TRUE(matmul(a, Matrix::identity(7)).allclose(a, 1e-5f));
  EXPECT_TRUE(matmul(Matrix::identity(7), a).allclose(a, 1e-5f));
}

TEST(Gemm, MatchesNaiveOnRandomShapes) {
  Rng rng(2);
  for (const auto& [m, k, n] :
       {std::tuple<int, int, int>{3, 5, 4}, {17, 9, 23}, {64, 33, 17}, {1, 128, 1}}) {
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    EXPECT_TRUE(matmul(a, b).allclose(naive_matmul(a, b), 1e-4f))
        << "shape " << m << "x" << k << "x" << n;
  }
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(Gemm, TnMatchesExplicitTranspose) {
  Rng rng(3);
  const Matrix a = random_matrix(20, 6, rng);
  const Matrix b = random_matrix(20, 9, rng);
  EXPECT_TRUE(matmul_tn(a, b).allclose(matmul(a.transposed(), b), 1e-4f));
}

TEST(Gemm, NtMatchesExplicitTranspose) {
  Rng rng(4);
  const Matrix a = random_matrix(12, 8, rng);
  const Matrix b = random_matrix(15, 8, rng);
  EXPECT_TRUE(matmul_nt(a, b).allclose(matmul(a, b.transposed()), 1e-4f));
}

/// Uniform entries in [-1, 1) with every fifth one exactly zero.
Matrix signed_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = i % 5 == 2 ? 0.0f : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

/// Columns from `first` on of A * B' as scalar dot products: each element
/// starts at +0 and adds a[i,p] * b[j,p] in ascending p.
Matrix dot_product_nt(const Matrix& a, const Matrix& b, std::size_t first) {
  Matrix c(a.rows(), b.rows() - first);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = first; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p) acc += a(i, p) * b(j, p);
      c(i, j - first) = acc;
    }
  }
  return c;
}

TEST(Gemm, NtBitExactAgainstDotProduct) {
  Rng rng(6);
  for (const auto& [m, k, n] :
       {std::tuple<int, int, int>{1, 1, 1}, {3, 5, 4}, {17, 9, 23}, {33, 128, 7},
        {64, 33, 17}, {5, 160, 32}}) {
    const Matrix a = signed_matrix(m, k, rng);
    const Matrix b = signed_matrix(n, k, rng);
    for (const std::size_t first :
         {std::size_t{0}, std::size_t{1}, std::size_t(n) / 2, std::size_t(n)}) {
      const Matrix c = matmul_nt(a, b, first);
      const Matrix expect = dot_product_nt(a, b, first);
      ASSERT_EQ(c.rows(), expect.rows());
      ASSERT_EQ(c.cols(), expect.cols());
      EXPECT_TRUE(c.empty() ||
                  std::memcmp(c.data(), expect.data(), c.size() * sizeof(float)) == 0)
          << "shape " << m << "x" << k << "x" << n << " first " << first;
    }
  }
}

TEST(Gemm, NtPropagatesNanFromZeroTimesInf) {
  const float inf = std::numeric_limits<float>::infinity();
  const Matrix a{{0.0f, 1.0f}};
  const Matrix b{{inf, 1.0f}, {1.0f, 2.0f}};
  const Matrix c = matmul_nt(a, b);
  EXPECT_TRUE(std::isnan(c(0, 0)));  // 0 * Inf is not skipped
  EXPECT_EQ(c(0, 1), 2.0f);
}

TEST(Gemm, NtFirstRowOutOfRangeThrows) {
  Matrix a(3, 2), b(4, 2);
  EXPECT_THROW(matmul_nt(a, b, 5), Error);
}

TEST(Gemm, TnShapeMismatchThrows) {
  Matrix a(3, 2), b(4, 2);
  EXPECT_THROW(matmul_tn(a, b), Error);
}

TEST(Gemm, NtShapeMismatchThrows) {
  Matrix a(3, 2), b(4, 3);
  EXPECT_THROW(matmul_nt(a, b), Error);
}

TEST(Gemm, AccumulateAddsToExisting) {
  Matrix a{{1, 0}, {0, 1}};
  Matrix b{{2, 3}, {4, 5}};
  Matrix c(2, 2, 1.0f);
  matmul_acc(a, b, c);
  EXPECT_FLOAT_EQ(c(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 6.0f);
}

TEST(Gemm, AccumulateShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 2), c(3, 2);
  EXPECT_THROW(matmul_acc(a, b, c), Error);
}

TEST(Gemm, ZeroShortcutSkipsCorrectly) {
  // The kernel skips zero A entries; verify results are still exact.
  Matrix a{{0, 2}, {3, 0}};
  Matrix b{{1, 1}, {1, 1}};
  const Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 3.0f);
}

TEST(Gemm, LargeParallelConsistency) {
  Rng rng(5);
  const Matrix a = random_matrix(300, 200, rng);
  const Matrix b = random_matrix(200, 150, rng);
  const Matrix c1 = matmul(a, b);
  const Matrix c2 = matmul(a, b);
  EXPECT_TRUE(c1.allclose(c2, 0.0f));  // deterministic across runs
}

}  // namespace
}  // namespace gv
