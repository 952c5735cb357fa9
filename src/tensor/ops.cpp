#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace gv {

Matrix relu(const Matrix& x) {
  Matrix y = x;
  float* d = y.data();
  for (std::size_t i = 0; i < y.size(); ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
  return y;
}

void relu_backward(Matrix& dy, const Matrix& x) {
  GV_CHECK(dy.rows() == x.rows() && dy.cols() == x.cols(),
           "relu_backward shape mismatch");
  float* __restrict d = dy.data();
  const float* __restrict xv = x.data();
  for (std::size_t i = 0; i < dy.size(); ++i) d[i] = xv[i] <= 0.0f ? 0.0f : d[i];
}

namespace {
/// d[i] = keep[i] ? d[i] * scale : +0. A float ternary here stays a branch
/// (the compiler will not compute a product the source skips, since it may
/// raise an FP exception), so the select ANDs the product's bits with an
/// all-ones or all-zero mask: +0.0f is all zero bits. This vectorizes.
void apply_keep_mask(float* __restrict d, const std::uint8_t* __restrict keep,
                     float scale, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(d[i] * scale);
    const std::uint32_t mask = 0u - static_cast<std::uint32_t>(keep[i] != 0);
    d[i] = std::bit_cast<float>(bits & mask);
  }
}
}  // namespace

DropoutMask dropout_forward(Matrix& x, float p, Rng& rng) {
  GV_CHECK(p >= 0.0f && p < 1.0f, "dropout probability must be in [0,1)");
  DropoutMask mask;
  mask.keep.resize(x.size());
  mask.scale = 1.0f / (1.0f - p);
  // The draws are one serial stream; a local generator keeps its state in
  // registers while the mask bytes are written.
  Rng local = rng;
  std::uint8_t* __restrict keep = mask.keep.data();
  for (std::size_t i = 0; i < x.size(); ++i) keep[i] = !local.bernoulli(p);
  rng = local;
  apply_keep_mask(x.data(), keep, mask.scale, x.size());
  return mask;
}

void dropout_backward(Matrix& dy, const DropoutMask& mask) {
  GV_CHECK(dy.size() == mask.keep.size(), "dropout_backward shape mismatch");
  apply_keep_mask(dy.data(), mask.keep.data(), mask.scale, dy.size());
}

Matrix log_softmax_rows(const Matrix& x) {
  Matrix y(x.rows(), x.cols());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t r = 0; r < static_cast<std::ptrdiff_t>(x.rows()); ++r) {
    const float* xr = x.data() + r * x.cols();
    float* yr = y.data() + r * x.cols();
    float mx = xr[0];
    for (std::size_t c = 1; c < x.cols(); ++c) mx = std::max(mx, xr[c]);
    double sum = 0.0;
    for (std::size_t c = 0; c < x.cols(); ++c) sum += std::exp(static_cast<double>(xr[c] - mx));
    const float lse = mx + static_cast<float>(std::log(sum));
    for (std::size_t c = 0; c < x.cols(); ++c) yr[c] = xr[c] - lse;
  }
  return y;
}

Matrix softmax_rows(const Matrix& x) {
  Matrix y = log_softmax_rows(x);
  float* d = y.data();
  for (std::size_t i = 0; i < y.size(); ++i) d[i] = std::exp(d[i]);
  return y;
}

void add_bias_rows(Matrix& x, const std::vector<float>& bias) {
  GV_CHECK(bias.size() == x.cols(), "add_bias_rows shape mismatch");
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t r = 0; r < static_cast<std::ptrdiff_t>(x.rows()); ++r) {
    float* xr = x.data() + r * x.cols();
    for (std::size_t c = 0; c < x.cols(); ++c) xr[c] += bias[c];
  }
}

std::vector<float> col_sums(const Matrix& x) {
  std::vector<float> s(x.cols(), 0.0f);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.data() + r * x.cols();
    for (std::size_t c = 0; c < x.cols(); ++c) s[c] += xr[c];
  }
  return s;
}

std::vector<std::uint32_t> argmax_rows(const Matrix& x) {
  GV_CHECK(x.cols() > 0, "argmax_rows requires at least one column");
  std::vector<std::uint32_t> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const float* xr = x.data() + r * x.cols();
    std::size_t best = 0;
    for (std::size_t c = 1; c < x.cols(); ++c) {
      if (xr[c] > xr[best]) best = c;
    }
    out[r] = static_cast<std::uint32_t>(best);
  }
  return out;
}

double nll_loss_masked(const Matrix& logp, const std::vector<std::uint32_t>& labels,
                       const std::vector<std::uint32_t>& mask, Matrix& dlogp) {
  GV_CHECK(labels.size() == logp.rows(), "labels size mismatch");
  GV_CHECK(!mask.empty(), "loss mask must be non-empty");
  dlogp = Matrix(logp.rows(), logp.cols(), 0.0f);
  double loss = 0.0;
  const float inv = 1.0f / static_cast<float>(mask.size());
  for (const std::uint32_t r : mask) {
    GV_CHECK(r < logp.rows(), "mask row out of range");
    const std::uint32_t y = labels[r];
    GV_CHECK(y < logp.cols(), "label out of range");
    loss -= logp(r, y);
    dlogp(r, y) = -inv;
  }
  return loss / static_cast<double>(mask.size());
}

Matrix log_softmax_backward(const Matrix& dlogp, const Matrix& logp) {
  GV_CHECK(dlogp.rows() == logp.rows() && dlogp.cols() == logp.cols(),
           "log_softmax_backward shape mismatch");
  // dz_j = dlogp_j - softmax_j * sum_k dlogp_k
  Matrix dz(dlogp.rows(), dlogp.cols());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t r = 0; r < static_cast<std::ptrdiff_t>(dlogp.rows()); ++r) {
    const float* dl = dlogp.data() + r * dlogp.cols();
    const float* lp = logp.data() + r * logp.cols();
    float* out = dz.data() + r * dlogp.cols();
    float sum = 0.0f;
    for (std::size_t c = 0; c < dlogp.cols(); ++c) sum += dl[c];
    for (std::size_t c = 0; c < dlogp.cols(); ++c) {
      out[c] = dl[c] - std::exp(lp[c]) * sum;
    }
  }
  return dz;
}

void l2_normalize_rows(Matrix& x) {
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* xr = x.data() + r * x.cols();
    double norm = 0.0;
    for (std::size_t c = 0; c < x.cols(); ++c) norm += static_cast<double>(xr[c]) * xr[c];
    norm = std::sqrt(norm);
    if (norm < 1e-12) continue;
    const float inv = static_cast<float>(1.0 / norm);
    for (std::size_t c = 0; c < x.cols(); ++c) xr[c] *= inv;
  }
}

namespace {
inline void check_pair(const Matrix& x, std::size_t a, std::size_t b) {
  GV_CHECK(a < x.rows() && b < x.rows(), "row index out of range");
}
}  // namespace

float row_euclidean(const Matrix& x, std::size_t a, std::size_t b) {
  check_pair(x, a, b);
  double acc = 0.0;
  const float* ra = x.data() + a * x.cols();
  const float* rb = x.data() + b * x.cols();
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const double d = static_cast<double>(ra[c]) - rb[c];
    acc += d * d;
  }
  return static_cast<float>(std::sqrt(acc));
}

float row_cosine(const Matrix& x, std::size_t a, std::size_t b) {
  check_pair(x, a, b);
  double dot = 0.0, na = 0.0, nb = 0.0;
  const float* ra = x.data() + a * x.cols();
  const float* rb = x.data() + b * x.cols();
  for (std::size_t c = 0; c < x.cols(); ++c) {
    dot += static_cast<double>(ra[c]) * rb[c];
    na += static_cast<double>(ra[c]) * ra[c];
    nb += static_cast<double>(rb[c]) * rb[c];
  }
  if (na < 1e-24 || nb < 1e-24) return 0.0f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

float row_correlation(const Matrix& x, std::size_t a, std::size_t b) {
  check_pair(x, a, b);
  const std::size_t n = x.cols();
  const float* ra = x.data() + a * n;
  const float* rb = x.data() + b * n;
  double ma = 0.0, mb = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    ma += ra[c];
    mb += rb[c];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    const double da = ra[c] - ma, db = rb[c] - mb;
    dot += da * db;
    na += da * da;
    nb += db * db;
  }
  if (na < 1e-24 || nb < 1e-24) return 0.0f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

float row_chebyshev(const Matrix& x, std::size_t a, std::size_t b) {
  check_pair(x, a, b);
  float mx = 0.0f;
  const float* ra = x.data() + a * x.cols();
  const float* rb = x.data() + b * x.cols();
  for (std::size_t c = 0; c < x.cols(); ++c) {
    mx = std::max(mx, std::fabs(ra[c] - rb[c]));
  }
  return mx;
}

float row_braycurtis(const Matrix& x, std::size_t a, std::size_t b) {
  check_pair(x, a, b);
  double num = 0.0, den = 0.0;
  const float* ra = x.data() + a * x.cols();
  const float* rb = x.data() + b * x.cols();
  for (std::size_t c = 0; c < x.cols(); ++c) {
    num += std::fabs(static_cast<double>(ra[c]) - rb[c]);
    den += std::fabs(static_cast<double>(ra[c]) + rb[c]);
  }
  if (den < 1e-24) return 0.0f;
  return static_cast<float>(num / den);
}

float row_canberra(const Matrix& x, std::size_t a, std::size_t b) {
  check_pair(x, a, b);
  double acc = 0.0;
  const float* ra = x.data() + a * x.cols();
  const float* rb = x.data() + b * x.cols();
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const double num = std::fabs(static_cast<double>(ra[c]) - rb[c]);
    const double den = std::fabs(ra[c]) + std::fabs(rb[c]);
    if (den > 1e-24) acc += num / den;
  }
  return static_cast<float>(acc);
}

}  // namespace gv
