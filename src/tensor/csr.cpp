#include "tensor/csr.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "tensor/gemm.hpp"

namespace gv {

CsrMatrix CsrMatrix::from_coo(std::size_t rows, std::size_t cols,
                              std::vector<CooEntry> entries) {
  for (const auto& e : entries) {
    GV_CHECK(e.row < rows && e.col < cols, "COO entry out of bounds");
  }
  std::sort(entries.begin(), entries.end(), [](const CooEntry& a, const CooEntry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(entries.size());
  m.values_.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i;
    float sum = 0.0f;
    while (j < entries.size() && entries[j].row == entries[i].row &&
           entries[j].col == entries[i].col) {
      sum += entries[j].value;
      ++j;
    }
    m.col_idx_.push_back(entries[i].col);
    m.values_.push_back(sum);
    m.row_ptr_[entries[i].row + 1] += 1;
    i = j;
  }
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

CsrMatrix CsrMatrix::from_dense(const Matrix& dense, float eps) {
  std::vector<CooEntry> entries;
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      const float v = dense(r, c);
      if (std::abs(v) > eps) {
        entries.push_back({static_cast<std::uint32_t>(r),
                           static_cast<std::uint32_t>(c), v});
      }
    }
  }
  return from_coo(dense.rows(), dense.cols(), std::move(entries));
}

float CsrMatrix::at(std::size_t r, std::size_t c) const {
  GV_CHECK(r < rows_ && c < cols_, "CsrMatrix::at out of range");
  const auto begin = col_idx_.begin() + row_ptr_[r];
  const auto end = col_idx_.begin() + row_ptr_[r + 1];
  const auto it = std::lower_bound(begin, end, static_cast<std::uint32_t>(c));
  if (it == end || *it != c) return 0.0f;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Matrix CsrMatrix::to_dense() const {
  Matrix d(rows_, cols_, 0.0f);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      d(r, col_idx_[p]) = values_[p];
    }
  }
  return d;
}

CsrMatrix CsrMatrix::transposed() const {
  std::vector<CooEntry> entries;
  entries.reserve(nnz());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      entries.push_back({col_idx_[p], static_cast<std::uint32_t>(r), values_[p]});
    }
  }
  return from_coo(cols_, rows_, std::move(entries));
}

std::vector<CooEntry> CsrMatrix::to_coo() const {
  std::vector<CooEntry> entries;
  entries.reserve(nnz());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      entries.push_back({static_cast<std::uint32_t>(r), col_idx_[p], values_[p]});
    }
  }
  return entries;
}

std::size_t CsrMatrix::payload_bytes() const {
  return row_ptr_.size() * sizeof(std::int64_t) +
         col_idx_.size() * sizeof(std::uint32_t) + values_.size() * sizeof(float);
}

std::vector<float> CsrMatrix::matvec(const std::vector<float>& x) const {
  GV_CHECK(x.size() == cols_, "matvec shape mismatch");
  std::vector<float> y(rows_, 0.0f);
  for (std::size_t r = 0; r < rows_; ++r) {
    float acc = 0.0f;
    for (std::int64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      acc += values_[p] * x[col_idx_[p]];
    }
    y[r] = acc;
  }
  return y;
}

Matrix spmm(const CsrMatrix& a, const Matrix& b) {
  GV_CHECK(a.cols() == b.rows(), "spmm shape mismatch");
  const std::size_t n = a.rows(), k = b.cols();
  Matrix c(n, k, 0.0f);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& va = a.values();
#pragma omp parallel for schedule(dynamic, 64)
  for (std::ptrdiff_t r = 0; r < static_cast<std::ptrdiff_t>(n); ++r) {
    float* crow = c.data() + r * k;
    for (std::int64_t p = rp[r]; p < rp[r + 1]; ++p) {
      const float av = va[p];
      const float* brow = b.data() + static_cast<std::size_t>(ci[p]) * k;
      for (std::size_t j = 0; j < k; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix spmm_tn(const CsrMatrix& a, const Matrix& b) {
  GV_CHECK(a.rows() == b.rows(), "spmm_tn shape mismatch");
  const std::size_t n = a.rows(), m = a.cols(), k = b.cols();
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& va = a.values();
  std::vector<Matrix> partials(kReductionPartials);
  const auto parts = static_cast<std::ptrdiff_t>(kReductionPartials);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t part = 0; part < parts; ++part) {
    Matrix local(m, k, 0.0f);
    const std::size_t end = n * (part + 1) / kReductionPartials;
    for (std::size_t r = n * part / kReductionPartials; r < end; ++r) {
      const float* brow = b.data() + r * k;
      for (std::int64_t p = rp[r]; p < rp[r + 1]; ++p) {
        const float av = va[p];
        float* crow = local.data() + static_cast<std::size_t>(ci[p]) * k;
        for (std::size_t j = 0; j < k; ++j) crow[j] += av * brow[j];
      }
    }
    partials[part] = std::move(local);
  }
  for (std::size_t part = 1; part < kReductionPartials; ++part) {
    partials[0] += partials[part];
  }
  return std::move(partials[0]);
}

}  // namespace gv
