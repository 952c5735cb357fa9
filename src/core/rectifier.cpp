#include "core/rectifier.hpp"

#include <cstring>
#include <numeric>

#include <algorithm>

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace gv {

std::string rectifier_kind_name(RectifierKind kind) {
  switch (kind) {
    case RectifierKind::kParallel: return "parallel";
    case RectifierKind::kCascaded: return "cascaded";
    case RectifierKind::kSeries: return "series";
  }
  throw Error("unknown rectifier kind");
}

/// Sorted union of `rows` and every adjacency column reachable from them
/// (the one-hop closure; Â carries self-loops, but the union keeps isolated
/// nodes in the frontier too). Uses the epoch-stamped scratch buffer so no
/// O(n) clear is paid per call.
std::vector<std::uint32_t> Rectifier::expand_frontier(
    const std::vector<std::uint32_t>& rows) {
  const CsrMatrix& adj = *adj_;
  if (frontier_mark_.size() < adj.cols()) frontier_mark_.assign(adj.cols(), 0);
  if (++frontier_epoch_ == 0) {  // epoch wrapped: stale stamps could collide
    std::fill(frontier_mark_.begin(), frontier_mark_.end(), 0u);
    frontier_epoch_ = 1;
  }
  const std::uint32_t epoch = frontier_epoch_;
  std::vector<std::uint32_t> out;
  out.reserve(rows.size() * 4);
  auto add = [&](std::uint32_t v) {
    if (frontier_mark_[v] != epoch) {
      frontier_mark_[v] = epoch;
      out.push_back(v);
    }
  };
  const auto& row_ptr = adj.row_ptr();
  const auto& col_idx = adj.col_idx();
  for (const std::uint32_t r : rows) {
    add(r);
    for (std::int64_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i) add(col_idx[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The |rows| x |cols| view of the adjacency with global indices remapped to
/// local frontier positions. `cols` must contain every column reachable from
/// `rows` (guaranteed by expand_frontier); both must be sorted. The local
/// index scratch needs no clearing: every entry read is written first.
CsrMatrix Rectifier::gather_sub_adjacency(const std::vector<std::uint32_t>& rows,
                                          const std::vector<std::uint32_t>& cols) {
  return frontier_slice(rows, cols);
}

std::vector<std::uint32_t> Rectifier::frontier_columns(
    std::span<const std::uint32_t> rows) {
  const CsrMatrix& adj = *adj_;
  if (frontier_mark_.size() < adj.cols()) frontier_mark_.assign(adj.cols(), 0);
  if (++frontier_epoch_ == 0) {  // epoch wrapped: stale stamps could collide
    std::fill(frontier_mark_.begin(), frontier_mark_.end(), 0u);
    frontier_epoch_ = 1;
  }
  const std::uint32_t epoch = frontier_epoch_;
  std::vector<std::uint32_t> out;
  out.reserve(rows.size() * 4);
  const auto& row_ptr = adj.row_ptr();
  const auto& col_idx = adj.col_idx();
  for (const std::uint32_t r : rows) {
    GV_CHECK(r < adj.rows(), "frontier row out of range");
    for (std::int64_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const std::uint32_t c = col_idx[i];
      if (frontier_mark_[c] != epoch) {
        frontier_mark_[c] = epoch;
        out.push_back(c);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

CsrMatrix Rectifier::frontier_slice(std::span<const std::uint32_t> rows,
                                    const std::vector<std::uint32_t>& cols) {
  const CsrMatrix& adj = *adj_;
  if (local_index_.size() < adj.cols()) local_index_.resize(adj.cols());
  for (std::uint32_t j = 0; j < cols.size(); ++j) local_index_[cols[j]] = j;
  std::vector<CooEntry> entries;
  const auto& row_ptr = adj.row_ptr();
  const auto& col_idx = adj.col_idx();
  const auto& values = adj.values();
  for (std::uint32_t i = 0; i < rows.size(); ++i) {
    for (std::int64_t k = row_ptr[rows[i]]; k < row_ptr[rows[i] + 1]; ++k) {
      entries.push_back({i, local_index_[col_idx[k]], values[k]});
    }
  }
  return CsrMatrix::from_coo(rows.size(), cols.size(), std::move(entries));
}

Rectifier::Rectifier(RectifierConfig cfg, std::vector<std::size_t> backbone_dims,
                     std::shared_ptr<const CsrMatrix> adjacency, Rng& rng)
    : cfg_(std::move(cfg)),
      backbone_dims_(std::move(backbone_dims)),
      adj_(std::move(adjacency)),
      dropout_rng_(rng.split()) {
  GV_CHECK(!cfg_.channels.empty(), "rectifier needs at least one layer");
  GV_CHECK(!backbone_dims_.empty(), "backbone must have at least one layer");
  GV_CHECK(adj_ != nullptr, "rectifier requires the real adjacency");
  if (cfg_.kind == RectifierKind::kParallel) {
    GV_CHECK(cfg_.channels.size() <= backbone_dims_.size(),
             "parallel rectifier cannot be deeper than the backbone");
  }
  layers_.reserve(cfg_.channels.size());
  for (std::size_t k = 0; k < cfg_.channels.size(); ++k) {
    layers_.emplace_back(layer_input_dim(k), cfg_.channels[k], rng);
  }
}

std::size_t Rectifier::layer_input_dim(std::size_t k) const {
  GV_CHECK(k < cfg_.channels.size(), "layer index out of range");
  switch (cfg_.kind) {
    case RectifierKind::kParallel:
      // Layer k reads backbone layer k's embedding, plus (for k >= 1) the
      // previous rectifier output.
      return k == 0 ? backbone_dims_[0] : backbone_dims_[k] + cfg_.channels[k - 1];
    case RectifierKind::kCascaded:
      return k == 0 ? std::accumulate(backbone_dims_.begin(), backbone_dims_.end(),
                                      std::size_t{0})
                    : cfg_.channels[k - 1];
    case RectifierKind::kSeries: {
      const std::size_t penult =
          backbone_dims_.size() >= 2 ? backbone_dims_[backbone_dims_.size() - 2]
                                     : backbone_dims_.back();
      return k == 0 ? penult : cfg_.channels[k - 1];
    }
  }
  throw Error("unknown rectifier kind");
}

std::vector<std::size_t> Rectifier::required_backbone_layers() const {
  std::vector<std::size_t> req;
  switch (cfg_.kind) {
    case RectifierKind::kParallel:
      for (std::size_t k = 0; k < cfg_.channels.size(); ++k) req.push_back(k);
      break;
    case RectifierKind::kCascaded:
      for (std::size_t k = 0; k < backbone_dims_.size(); ++k) req.push_back(k);
      break;
    case RectifierKind::kSeries:
      req.push_back(backbone_dims_.size() >= 2 ? backbone_dims_.size() - 2 : 0);
      break;
  }
  return req;
}

std::size_t Rectifier::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.parameter_count();
  return n;
}

const Matrix& Rectifier::build_layer_input(std::size_t k,
                                           const std::vector<Matrix>& backbone_outputs,
                                           const Matrix& prev, Matrix& concat) const {
  auto bb = [&](std::size_t i) -> const Matrix& {
    GV_CHECK(i < backbone_outputs.size(), "missing backbone output");
    GV_CHECK(!backbone_outputs[i].empty(), "required backbone output is empty");
    GV_CHECK(backbone_outputs[i].cols() == backbone_dims_[i],
             "backbone output dim mismatch");
    return backbone_outputs[i];
  };
  switch (cfg_.kind) {
    case RectifierKind::kParallel:
      if (k == 0) return bb(0);
      concat = Matrix::hconcat(bb(k), prev);
      return concat;
    case RectifierKind::kCascaded: {
      if (k > 0) return prev;
      std::vector<const Matrix*> blocks;
      blocks.reserve(backbone_dims_.size());
      for (std::size_t i = 0; i < backbone_dims_.size(); ++i) blocks.push_back(&bb(i));
      concat = Matrix::hconcat(std::span<const Matrix* const>(blocks.data(), blocks.size()));
      return concat;
    }
    case RectifierKind::kSeries:
      return k == 0 ? bb(backbone_dims_.size() >= 2 ? backbone_dims_.size() - 2 : 0)
                    : prev;
  }
  throw Error("unknown rectifier kind");
}

Matrix Rectifier::forward(const std::vector<Matrix>& backbone_outputs, bool training) {
  pre_activations_.clear();
  masks_.clear();
  trained_forward_ = training;

  Matrix h;
  Matrix concat;
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    const bool last = (k + 1 == layers_.size());
    Matrix z = layers_[k].forward(
        *adj_, build_layer_input(k, backbone_outputs, h, concat), training);
    if (!last) {
      h = relu(z);
      if (training && cfg_.dropout > 0.0f) {
        masks_.push_back(dropout_forward(h, cfg_.dropout, dropout_rng_));
      }
      // Kept for relu_backward; the output layer has no activation.
      if (training) pre_activations_.push_back(std::move(z));
    } else {
      h = std::move(z);
    }
  }
  return h;
}

Matrix Rectifier::forward_subset(const std::vector<Matrix>& backbone_outputs,
                                 std::span<const std::uint32_t> nodes,
                                 std::vector<std::size_t>* layer_rows) {
  const std::size_t n = adj_->rows();
  if (layer_rows) layer_rows->clear();
  if (nodes.empty()) return Matrix();
  for (const auto v : nodes) GV_CHECK(v < n, "query node out of range");
  auto bb = [&](std::size_t i) -> const Matrix& {
    GV_CHECK(i < backbone_outputs.size(), "missing backbone output");
    GV_CHECK(!backbone_outputs[i].empty(), "required backbone output is empty");
    GV_CHECK(backbone_outputs[i].cols() == backbone_dims_[i],
             "backbone output dim mismatch");
    GV_CHECK(backbone_outputs[i].rows() == n,
             "backbone output covers a different node count");
    return backbone_outputs[i];
  };

  // Frontier sets, last layer first: the output rows of layer k are the
  // input rows of layer k+1, and each layer's input frontier is the one-hop
  // closure of its output frontier (an L-layer GCN reads the L-hop
  // neighbourhood of the query set).
  const std::size_t L = layers_.size();
  std::vector<std::vector<std::uint32_t>> out_sets(L), in_sets(L);
  out_sets[L - 1].assign(nodes.begin(), nodes.end());
  std::sort(out_sets[L - 1].begin(), out_sets[L - 1].end());
  out_sets[L - 1].erase(
      std::unique(out_sets[L - 1].begin(), out_sets[L - 1].end()),
      out_sets[L - 1].end());
  for (std::size_t k = L; k-- > 0;) {
    in_sets[k] = expand_frontier(out_sets[k]);
    if (k > 0) out_sets[k - 1] = in_sets[k];
  }

  Matrix h;
  for (std::size_t k = 0; k < L; ++k) {
    const bool last = (k + 1 == L);
    Matrix input;
    switch (cfg_.kind) {
      case RectifierKind::kParallel:
        input = k == 0 ? bb(0).gather_rows(in_sets[0])
                       : Matrix::hconcat(bb(k).gather_rows(in_sets[k]), h);
        break;
      case RectifierKind::kCascaded:
        if (k == 0) {
          std::vector<Matrix> gathered;
          gathered.reserve(backbone_dims_.size());
          for (std::size_t i = 0; i < backbone_dims_.size(); ++i) {
            gathered.push_back(bb(i).gather_rows(in_sets[0]));
          }
          std::vector<const Matrix*> blocks;
          blocks.reserve(gathered.size());
          for (const auto& g : gathered) blocks.push_back(&g);
          input = Matrix::hconcat(
              std::span<const Matrix* const>(blocks.data(), blocks.size()));
        } else {
          input = std::move(h);
        }
        break;
      case RectifierKind::kSeries:
        input = k == 0 ? bb(backbone_dims_.size() >= 2 ? backbone_dims_.size() - 2
                                                       : 0)
                             .gather_rows(in_sets[0])
                       : std::move(h);
        break;
    }
    const CsrMatrix sub_adj = gather_sub_adjacency(out_sets[k], in_sets[k]);
    Matrix z = layers_[k].forward_subgraph(sub_adj, input);
    h = last ? std::move(z) : relu(z);
    if (layer_rows) layer_rows->push_back(out_sets[k].size());
  }

  // h rows follow the sorted unique query set; map back to query order.
  const auto& sorted = out_sets[L - 1];
  std::vector<std::uint32_t> positions;
  positions.reserve(nodes.size());
  for (const auto v : nodes) {
    const auto it = std::lower_bound(sorted.begin(), sorted.end(), v);
    positions.push_back(static_cast<std::uint32_t>(it - sorted.begin()));
  }
  return h.gather_rows(positions);
}

void Rectifier::backward(const Matrix& dlogits) {
  GV_CHECK(trained_forward_, "backward() requires a training-mode forward");
  Matrix d = dlogits;
  for (std::size_t k = layers_.size(); k-- > 0;) {
    const bool last = (k + 1 == layers_.size());
    if (!last) {
      if (cfg_.dropout > 0.0f) dropout_backward(d, masks_[k]);
      relu_backward(d, pre_activations_[k]);
    }
    // Keep only the input gradient that flows into an earlier rectifier
    // layer: none at layer 0 (backbone embeddings are frozen), and for a
    // parallel layer [backbone_k | prev] only the prev columns.
    std::size_t keep_from = 0;
    if (k == 0) {
      keep_from = layers_[k].in_dim();
    } else if (cfg_.kind == RectifierKind::kParallel) {
      keep_from = backbone_dims_[k];
    }
    d = layers_[k].backward(*adj_, d, keep_from);
  }
}

void Rectifier::collect_parameters(ParamRefs& refs) {
  for (auto& l : layers_) l.collect_parameters(refs);
}

std::vector<std::size_t> Rectifier::activation_bytes(std::size_t n) const {
  std::vector<std::size_t> bytes;
  bytes.reserve(layers_.size());
  for (const auto ch : cfg_.channels) bytes.push_back(n * ch * sizeof(float));
  return bytes;
}

std::size_t Rectifier::parameter_bytes() const { return parameter_count() * sizeof(float); }

std::vector<std::uint8_t> Rectifier::serialize_weights() const {
  // Layout: [num_layers u32] then per layer [in u32][out u32][W floats][b floats].
  std::vector<std::uint8_t> out;
  auto put_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  auto put_floats = [&](const float* p, std::size_t count) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(p);
    out.insert(out.end(), bytes, bytes + count * sizeof(float));
  };
  put_u32(static_cast<std::uint32_t>(layers_.size()));
  for (const auto& l : layers_) {
    put_u32(static_cast<std::uint32_t>(l.in_dim()));
    put_u32(static_cast<std::uint32_t>(l.out_dim()));
    put_floats(l.weight().value.data(), l.weight().value.size());
    put_floats(l.bias().value.data(), l.bias().value.size());
  }
  return out;
}

void Rectifier::deserialize_weights(std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  auto get_u32 = [&]() -> std::uint32_t {
    GV_CHECK(off + 4 <= bytes.size(), "truncated rectifier weight blob");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(bytes[off + i]) << (8 * i);
    off += 4;
    return v;
  };
  auto get_floats = [&](float* p, std::size_t count) {
    GV_CHECK(off + count * sizeof(float) <= bytes.size(),
             "truncated rectifier weight blob");
    std::memcpy(p, bytes.data() + off, count * sizeof(float));
    off += count * sizeof(float);
  };
  const std::uint32_t n_layers = get_u32();
  GV_CHECK(n_layers == layers_.size(), "rectifier layer count mismatch");
  for (auto& l : layers_) {
    const std::uint32_t in = get_u32();
    const std::uint32_t outd = get_u32();
    GV_CHECK(in == l.in_dim() && outd == l.out_dim(),
             "rectifier layer shape mismatch in weight blob");
    get_floats(l.weight().value.data(), l.weight().value.size());
    get_floats(l.bias().value.data(), l.bias().value.size());
  }
  GV_CHECK(off == bytes.size(), "trailing bytes in rectifier weight blob");
}

void Rectifier::set_adjacency(std::shared_ptr<const CsrMatrix> adjacency) {
  GV_CHECK(adjacency != nullptr, "adjacency must not be null");
  adj_ = std::move(adjacency);
}

}  // namespace gv
