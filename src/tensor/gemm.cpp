#include "tensor/gemm.hpp"

#include <vector>

#include "common/error.hpp"

namespace gv {

namespace {
// Row-parallel i-k-j kernel: the innermost loop is a contiguous AXPY over
// C's row, which GCC auto-vectorizes; good enough for the matrix shapes in
// GNN training (tall-skinny activations times small weight blocks).
void gemm_nn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate) {
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(m); ++i) {
    float* crow = c + i * n;
    if (!accumulate) {
      for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0f;
    }
    const float* arow = a + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;  // sparse-ish activations (post-ReLU) shortcut
      const float* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}
}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  GV_CHECK(a.cols() == b.rows(), "matmul shape mismatch");
  Matrix c(a.rows(), b.cols());
  gemm_nn(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols(), false);
  return c;
}

void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  GV_CHECK(a.cols() == b.rows(), "matmul_acc shape mismatch");
  GV_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
           "matmul_acc output shape mismatch");
  gemm_nn(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols(), true);
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  // A is [k, m] stored row-major; result C[m, n] = sum_p A[p,i] * B[p,j].
  GV_CHECK(a.rows() == b.rows(), "matmul_tn shape mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  std::vector<Matrix> partials(kReductionPartials);
  const auto parts = static_cast<std::ptrdiff_t>(kReductionPartials);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t part = 0; part < parts; ++part) {
    Matrix local(m, n, 0.0f);
    const std::size_t end = k * (part + 1) / kReductionPartials;
    for (std::size_t p = k * part / kReductionPartials; p < end; ++p) {
      const float* arow = a.data() + p * m;
      const float* brow = b.data() + p * n;
      for (std::size_t i = 0; i < m; ++i) {
        const float av = arow[i];
        if (av == 0.0f) continue;
        float* crow = local.data() + i * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
    partials[part] = std::move(local);
  }
  for (std::size_t part = 1; part < kReductionPartials; ++part) {
    partials[0] += partials[part];
  }
  return std::move(partials[0]);
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  // C[m, n] = A[m, k] * B[n, k]^T ; dot products of contiguous rows.
  GV_CHECK(a.cols() == b.cols(), "matmul_nt shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(m); ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b.data() + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
  return c;
}

}  // namespace gv
