#include "tensor/gemm.hpp"

#include <vector>

#include "common/error.hpp"

namespace gv {

namespace {
// Row-parallel i-k-j kernel: the innermost loop is a contiguous AXPY over
// C's row, which GCC auto-vectorizes; good enough for the matrix shapes in
// GNN training (tall-skinny activations times small weight blocks). Each
// C element adds its products in ascending p, so vectorizing across j keeps
// every element's sum order. `skip_zero_a` skips zero A entries (post-ReLU
// activations are sparse-ish); that also drops 0 * Inf = NaN terms, so
// matmul_nt, a plain dot product, does not skip.
void gemm_nn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate, bool skip_zero_a) {
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(m); ++i) {
    float* crow = c + i * n;
    if (!accumulate) {
      for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0f;
    }
    const float* arow = a + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (skip_zero_a && av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}
}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  GV_CHECK(a.cols() == b.rows(), "matmul shape mismatch");
  Matrix c(a.rows(), b.cols());
  gemm_nn(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols(), false, true);
  return c;
}

void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  GV_CHECK(a.cols() == b.rows(), "matmul_acc shape mismatch");
  GV_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
           "matmul_acc output shape mismatch");
  gemm_nn(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols(), true, true);
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

Matrix matmul_nt(const Matrix& a, const Matrix& b, std::size_t first_b_row) {
  // C[m, n] = A[m, k] * B[first_b_row:, k]^T. B is a small weight matrix:
  // transpose the used rows once so the product runs as gemm_nn's AXPY.
  GV_CHECK(a.cols() == b.cols(), "matmul_nt shape mismatch");
  GV_CHECK(first_b_row <= b.rows(), "matmul_nt first row out of range");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows() - first_b_row;
  Matrix c(m, n);
  if (c.empty()) return c;
  Matrix bt(k, n);
  for (std::size_t j = 0; j < n; ++j) {
    const float* brow = b.data() + (first_b_row + j) * k;
    for (std::size_t p = 0; p < k; ++p) bt.data()[p * n + j] = brow[p];
  }
  gemm_nn(a.data(), bt.data(), c.data(), m, k, n, false, false);
  return c;
}

}  // namespace gv
