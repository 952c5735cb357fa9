// Element-wise and row-wise tensor operations used by the nn layers,
// metrics, and the link-stealing attack's similarity computations.
//
// The element-wise training ops (relu, relu_backward, dropout) are selects:
// an entry that is gated or dropped is written as exactly +0.0f, whatever
// its input (negative, Inf or NaN), and every other entry keeps its value
// (times the dropout scale). Trained weights depend on these bits.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "tensor/matrix.hpp"

namespace gv {

/// out = max(x, 0), element-wise.
Matrix relu(const Matrix& x);
/// In place: dy becomes +0 where the forward input x <= 0 and keeps its
/// value elsewhere, including where x is NaN.
void relu_backward(Matrix& dy, const Matrix& x);

/// In-place inverted dropout with keep mask recorded for backward.
/// Scales surviving activations by 1/(1-p). Entry i draws
/// keep = !rng.bernoulli(p), one draw per entry in index order.
struct DropoutMask {
  std::vector<std::uint8_t> keep;
  float scale = 1.0f;
};
DropoutMask dropout_forward(Matrix& x, float p, Rng& rng);
void dropout_backward(Matrix& dy, const DropoutMask& mask);

/// Row-wise log-softmax.
Matrix log_softmax_rows(const Matrix& x);
/// Row-wise softmax.
Matrix softmax_rows(const Matrix& x);

/// Add a bias row-vector b[1,c] to every row of x.
void add_bias_rows(Matrix& x, const std::vector<float>& bias);
/// Column sums of x (for bias gradients).
std::vector<float> col_sums(const Matrix& x);

/// Argmax of each row.
std::vector<std::uint32_t> argmax_rows(const Matrix& x);

/// Masked negative log-likelihood loss for log-probability inputs.
/// Returns mean over the rows listed in `mask`; fills dlogp (same shape as
/// logp) with the gradient w.r.t. the log-probabilities.
double nll_loss_masked(const Matrix& logp, const std::vector<std::uint32_t>& labels,
                       const std::vector<std::uint32_t>& mask, Matrix& dlogp);

/// Combined log-softmax + masked NLL backward: given logp = log_softmax(z)
/// and dlogp from nll_loss_masked, returns dz.
Matrix log_softmax_backward(const Matrix& dlogp, const Matrix& logp);

/// L2-normalize every row in place (zero rows left untouched).
void l2_normalize_rows(Matrix& x);

/// Row-pair distances/similarities between rows a and b of the SAME matrix.
/// These are the six metrics of He et al.'s link-stealing attack (Table IV).
float row_euclidean(const Matrix& x, std::size_t a, std::size_t b);
float row_cosine(const Matrix& x, std::size_t a, std::size_t b);
float row_correlation(const Matrix& x, std::size_t a, std::size_t b);
float row_chebyshev(const Matrix& x, std::size_t a, std::size_t b);
float row_braycurtis(const Matrix& x, std::size_t a, std::size_t b);
float row_canberra(const Matrix& x, std::size_t a, std::size_t b);

}  // namespace gv
