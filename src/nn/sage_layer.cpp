#include "nn/sage_layer.hpp"

#include "common/error.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace gv {

SageLayer::SageLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng) {
  w_self_.init_glorot(in_dim, out_dim, rng);
  w_neigh_.init_glorot(in_dim, out_dim, rng);
  b_.init_zero(out_dim);
}

namespace {
void check_prop(const SagePropagation& prop, std::size_t n) {
  GV_CHECK(prop.p != nullptr && prop.pt != nullptr,
           "SagePropagation must carry P and P^T");
  GV_CHECK(prop.p->rows() == n && prop.p->cols() == n, "P shape mismatch");
  GV_CHECK(prop.pt->rows() == n && prop.pt->cols() == n, "P^T shape mismatch");
}
}  // namespace

Matrix SageLayer::forward(const SagePropagation& prop, const Matrix& x,
                          bool training) {
  GV_CHECK(x.cols() == in_dim(), "SageLayer input dim mismatch");
  check_prop(prop, x.rows());
  Matrix agg = spmm(*prop.p, x);
  if (training) {
    cached_dense_input_ = x;
    cached_aggregated_ = agg;
    cached_sparse_input_ = nullptr;
    cached_sparse_ = false;
  } else {
    release_training_cache();
  }
  Matrix y = matmul(x, w_self_.value);
  matmul_acc(agg, w_neigh_.value, y);
  add_bias_rows(y, b_.value);
  return y;
}

Matrix SageLayer::forward(const SagePropagation& prop, const CsrMatrix& x,
                          bool training) {
  GV_CHECK(x.cols() == in_dim(), "SageLayer sparse input dim mismatch");
  check_prop(prop, x.rows());
  // P (n x n sparse) times x (n x d sparse): densify the aggregate via
  // spmm over x's dense projection row-block-wise. For the feature sizes
  // used here, aggregating the sparse input densely is acceptable.
  Matrix xd = x.to_dense();
  Matrix agg = spmm(*prop.p, xd);
  if (training) {
    cached_sparse_input_ = &x;
    cached_aggregated_ = agg;
    cached_dense_input_ = Matrix();
    cached_sparse_ = true;
  } else {
    release_training_cache();
  }
  Matrix y = spmm(x, w_self_.value);
  matmul_acc(agg, w_neigh_.value, y);
  add_bias_rows(y, b_.value);
  return y;
}

Matrix SageLayer::backward(const SagePropagation& prop, const Matrix& dy) {
  GV_CHECK(!cached_sparse_, "backward() called after sparse-input forward");
  GV_CHECK(!cached_dense_input_.empty(),
           "backward() requires a training-mode forward first");
  // y = x Ws + (P x) Wn + b
  w_self_.grad += matmul_tn(cached_dense_input_, dy);
  w_neigh_.grad += matmul_tn(cached_aggregated_, dy);
  const auto db = col_sums(dy);
  for (std::size_t i = 0; i < db.size(); ++i) b_.grad[i] += db[i];
  // dx = dy Ws' + P' (dy Wn')
  Matrix dx = matmul_nt(dy, w_self_.value);
  dx += spmm(*prop.pt, matmul_nt(dy, w_neigh_.value));
  return dx;
}

void SageLayer::backward_sparse_input(const SagePropagation& prop,
                                      const Matrix& dy) {
  (void)prop;
  GV_CHECK(cached_sparse_ && cached_sparse_input_ != nullptr,
           "backward_sparse_input() requires a sparse training forward first");
  w_self_.grad += spmm_tn(*cached_sparse_input_, dy);
  w_neigh_.grad += matmul_tn(cached_aggregated_, dy);
  const auto db = col_sums(dy);
  for (std::size_t i = 0; i < db.size(); ++i) b_.grad[i] += db[i];
}

void SageLayer::release_training_cache() {
  cached_dense_input_ = Matrix();
  cached_aggregated_ = Matrix();
  cached_sparse_input_ = nullptr;
  cached_sparse_ = false;
}

void SageLayer::collect_parameters(ParamRefs& refs) {
  refs.matrices.push_back(&w_self_);
  refs.matrices.push_back(&w_neigh_);
  refs.vectors.push_back(&b_);
}

}  // namespace gv
