#include "nn/gat_layer.hpp"

#include <cmath>

#include "common/error.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace gv {

GatLayer::GatLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng,
                   float leaky_slope)
    : leaky_slope_(leaky_slope) {
  w_.init_glorot(in_dim, out_dim, rng);
  a_src_.init_zero(out_dim);
  a_dst_.init_zero(out_dim);
  // Attention vectors: small random init (zero would kill the gradient
  // symmetry between src and dst).
  const float limit = std::sqrt(3.0f / static_cast<float>(out_dim));
  for (auto& v : a_src_.value) v = static_cast<float>(rng.uniform(-limit, limit));
  for (auto& v : a_dst_.value) v = static_cast<float>(rng.uniform(-limit, limit));
  b_.init_zero(out_dim);
}

Matrix GatLayer::forward(const CsrMatrix& adj, const Matrix& x, bool training) {
  GV_CHECK(x.cols() == in_dim(), "GatLayer input dim mismatch");
  GV_CHECK(adj.rows() == adj.cols() && adj.rows() == x.rows(),
           "GatLayer adjacency shape mismatch");
  const std::size_t n = x.rows(), h = out_dim();
  Matrix z = matmul(x, w_.value);

  // Per-node attention projections s_i = z_i . a_src, t_i = z_i . a_dst.
  std::vector<float> s(n, 0.0f), t(n, 0.0f);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    const float* zr = z.data() + i * h;
    float si = 0.0f, ti = 0.0f;
    for (std::size_t c = 0; c < h; ++c) {
      si += zr[c] * a_src_.value[c];
      ti += zr[c] * a_dst_.value[c];
    }
    s[i] = si;
    t[i] = ti;
  }

  const auto& rp = adj.row_ptr();
  const auto& ci = adj.col_idx();
  std::vector<float> alpha(adj.nnz());
  std::vector<float> pre(adj.nnz());
  Matrix y(n, h, 0.0f);
#pragma omp parallel for schedule(dynamic, 64)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    // Row-wise softmax over LeakyReLU scores, numerically stabilized.
    float mx = -1e30f;
    for (std::int64_t p = rp[i]; p < rp[i + 1]; ++p) {
      const float raw = s[i] + t[ci[p]];
      const float act = raw > 0.0f ? raw : leaky_slope_ * raw;
      pre[p] = raw;
      alpha[p] = act;
      mx = std::max(mx, act);
    }
    double denom = 0.0;
    for (std::int64_t p = rp[i]; p < rp[i + 1]; ++p) {
      alpha[p] = std::exp(alpha[p] - mx);
      denom += alpha[p];
    }
    if (denom <= 0.0) continue;  // isolated node without self-loop
    float* yr = y.data() + i * h;
    for (std::int64_t p = rp[i]; p < rp[i + 1]; ++p) {
      alpha[p] = static_cast<float>(alpha[p] / denom);
      const float* zj = z.data() + static_cast<std::size_t>(ci[p]) * h;
      for (std::size_t c = 0; c < h; ++c) yr[c] += alpha[p] * zj[c];
    }
  }
  add_bias_rows(y, b_.value);
  if (training) {
    cached_input_ = x;
    cached_z_ = std::move(z);
    cached_alpha_ = std::move(alpha);
    cached_pre_ = std::move(pre);
  } else {
    // Release, not clear(): a trained layer keeps no training buffers
    // while it serves, and a backward() after this forward throws.
    cached_input_ = Matrix();
    cached_z_ = Matrix();
    cached_alpha_ = std::vector<float>();
    cached_pre_ = std::vector<float>();
  }
  return y;
}

Matrix GatLayer::backward(const CsrMatrix& adj, const Matrix& dy,
                          std::size_t first_input_col) {
  GV_CHECK(!cached_input_.empty(), "backward() requires a training forward");
  GV_CHECK(dy.rows() == cached_input_.rows() && dy.cols() == out_dim(),
           "GatLayer backward shape mismatch");
  GV_CHECK(first_input_col <= in_dim(), "backward() first input column out of range");
  const std::size_t n = dy.rows(), h = out_dim();
  const auto& rp = adj.row_ptr();
  const auto& ci = adj.col_idx();

  const auto db = col_sums(dy);
  for (std::size_t i = 0; i < db.size(); ++i) b_.grad[i] += db[i];

  // dalpha_ij = dy_i . z_j ; softmax + LeakyReLU backward per row.
  std::vector<float> dpre(adj.nnz(), 0.0f);
  Matrix dz(n, h, 0.0f);
  std::vector<float> ds(n, 0.0f), dt_acc(adj.nnz(), 0.0f);
#pragma omp parallel for schedule(dynamic, 64)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    const float* dyr = dy.data() + i * h;
    // dalpha and the softmax-row dot product.
    double dot = 0.0;
    for (std::int64_t p = rp[i]; p < rp[i + 1]; ++p) {
      const float* zj = cached_z_.data() + static_cast<std::size_t>(ci[p]) * h;
      float da = 0.0f;
      for (std::size_t c = 0; c < h; ++c) da += dyr[c] * zj[c];
      dpre[p] = da;  // temporarily holds dalpha
      dot += static_cast<double>(da) * cached_alpha_[p];
    }
    float dsi = 0.0f;
    for (std::int64_t p = rp[i]; p < rp[i + 1]; ++p) {
      float de = cached_alpha_[p] * (dpre[p] - static_cast<float>(dot));
      de *= cached_pre_[p] > 0.0f ? 1.0f : leaky_slope_;
      dpre[p] = de;
      dsi += de;
      dt_acc[p] = de;  // contribution to dt[ci[p]], scattered below
    }
    ds[i] = dsi;
    // Aggregation path: dz_j += alpha_ij dy_i (scattered below, serial-safe
    // per-row here only for j == i? no — handled after the loop).
  }
  // Scatter passes that write across rows are done serially (nnz is the
  // graph size; this is not the hot path).
  std::vector<float> dt(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    const float* dyr = dy.data() + i * h;
    for (std::int64_t p = rp[i]; p < rp[i + 1]; ++p) {
      const std::size_t j = ci[p];
      dt[j] += dt_acc[p];
      float* dzj = dz.data() + j * h;
      const float a = cached_alpha_[p];
      for (std::size_t c = 0; c < h; ++c) dzj[c] += a * dyr[c];
    }
  }
  // Attention-vector gradients and the dz contributions via s and t.
  for (std::size_t i = 0; i < n; ++i) {
    const float* zi = cached_z_.data() + i * h;
    float* dzi = dz.data() + i * h;
    for (std::size_t c = 0; c < h; ++c) {
      a_src_.grad[c] += ds[i] * zi[c];
      a_dst_.grad[c] += dt[i] * zi[c];
      dzi[c] += ds[i] * a_src_.value[c] + dt[i] * a_dst_.value[c];
    }
  }
  w_.grad += matmul_tn(cached_input_, dz);
  return matmul_nt(dz, w_.value, first_input_col);
}

void GatLayer::collect_parameters(ParamRefs& refs) {
  refs.matrices.push_back(&w_);
  refs.vectors.push_back(&a_src_);
  refs.vectors.push_back(&a_dst_);
  refs.vectors.push_back(&b_);
}

}  // namespace gv
