// The private GNN rectifier (paper Sec. IV-D, Fig. 3).
//
// The rectifier is a small stack of GCN layers that runs over the REAL
// (private) adjacency and consumes embeddings produced by the public
// backbone in the untrusted world.  Three communication schemes define
// what the rectifier reads:
//
//   Parallel : rectifier layer k reads backbone layer k's embedding,
//              concatenated with the previous rectifier output
//              ("rectify right after each message passing"); best accuracy.
//   Cascaded : the backbone runs to completion first; the rectifier's
//              first layer reads the concatenation of ALL backbone layer
//              outputs (global view; largest enclave model).
//   Series   : only the backbone's final embedding (the penultimate
//              layer's output, before the classification head) crosses;
//              smallest enclave footprint and fastest.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/gcn_layer.hpp"
#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace gv {

enum class RectifierKind { kParallel, kCascaded, kSeries };

std::string rectifier_kind_name(RectifierKind kind);

struct RectifierConfig {
  RectifierKind kind = RectifierKind::kParallel;
  /// Output channels per rectifier layer; the last entry must equal the
  /// number of classes.
  std::vector<std::size_t> channels;
  float dropout = 0.5f;
};

class Rectifier {
 public:
  /// `backbone_dims` are the output channel sizes of every backbone layer
  /// (last = classes). `adjacency` is the normalized REAL adjacency Â.
  Rectifier(RectifierConfig cfg, std::vector<std::size_t> backbone_dims,
            std::shared_ptr<const CsrMatrix> adjacency, Rng& rng);

  const RectifierConfig& config() const { return cfg_; }
  std::size_t num_layers() const { return layers_.size(); }
  std::size_t parameter_count() const;

  /// Indices of the backbone layers whose embeddings must cross into the
  /// enclave (drives the Fig. 6 transfer-cost accounting):
  ///   parallel -> {0 .. R-1}; cascaded -> all; series -> {B-2}.
  std::vector<std::size_t> required_backbone_layers() const;

  /// Forward pass. `backbone_outputs` must contain the embeddings of the
  /// required backbone layers at their original indices (others may be
  /// empty). Returns logits [n, C].
  Matrix forward(const std::vector<Matrix>& backbone_outputs, bool training);

  /// Node-subset inference (the serving path): computes logits ONLY for
  /// `nodes`, restricting every layer to the multi-hop frontier of the query
  /// set instead of running over all n nodes. Returns logits in query order
  /// (duplicates allowed). Inference-only; the training cache is untouched.
  /// `layer_rows`, when non-null, receives the number of frontier rows
  /// computed at each layer (enclave activation-memory accounting).
  Matrix forward_subset(const std::vector<Matrix>& backbone_outputs,
                        std::span<const std::uint32_t> nodes,
                        std::vector<std::size_t>* layer_rows = nullptr);

  /// Backward from dL/dlogits. Gradients flow only into rectifier
  /// parameters; the backbone is frozen by construction (its embedding
  /// gradient is computed internally where needed and discarded).
  void backward(const Matrix& dlogits);

  void collect_parameters(ParamRefs& refs);

  /// Per-layer activation bytes for `n` nodes (enclave memory accounting).
  std::vector<std::size_t> activation_bytes(std::size_t n) const;
  /// Total parameter bytes (float32).
  std::size_t parameter_bytes() const;

  /// Serialize weights to a flat byte buffer (sealing) and back.
  std::vector<std::uint8_t> serialize_weights() const;
  void deserialize_weights(std::span<const std::uint8_t> bytes);

  GcnLayer& layer(std::size_t i) { return layers_[i]; }
  const CsrMatrix& adjacency() const { return *adj_; }
  void set_adjacency(std::shared_ptr<const CsrMatrix> adjacency);

  // --- Cross-boundary frontier restriction (ShardVault cold path). --------
  // A shard's rectifier holds the RECTANGULAR owned x closure slice of the
  // global adjacency, so its row and column index spaces differ; these two
  // helpers let the sharded deployment walk a query's L-hop frontier one
  // shard-local hop at a time, stopping at the shard boundary (columns owned
  // by a peer become halo pulls over the attested channel, not local rows).

  /// Sorted unique column indices with a nonzero in any of `rows`: the
  /// one-hop input frontier of an output row set.  Unlike the square-only
  /// subset path, row indices are NOT injected into the result — for a
  /// rectangular shard adjacency they live in a different index space (each
  /// owned row still reaches its own closure column via its self-loop).
  std::vector<std::uint32_t> frontier_columns(std::span<const std::uint32_t> rows);

  /// The |rows| x |cols| slice of the adjacency with column ids remapped to
  /// positions in `cols`; `cols` must cover every column reachable from
  /// `rows` (frontier_columns guarantees it) and both must be sorted.
  CsrMatrix frontier_slice(std::span<const std::uint32_t> rows,
                           const std::vector<std::uint32_t>& cols);

  /// Input dim of rectifier layer k under this config (exposed for tests).
  std::size_t layer_input_dim(std::size_t k) const;

 private:
  /// Layer k's input: a backbone output or `prev` passed through, or a
  /// concatenation built into `concat`.
  const Matrix& build_layer_input(std::size_t k,
                                  const std::vector<Matrix>& backbone_outputs,
                                  const Matrix& prev, Matrix& concat) const;
  std::vector<std::uint32_t> expand_frontier(const std::vector<std::uint32_t>& rows);
  CsrMatrix gather_sub_adjacency(const std::vector<std::uint32_t>& rows,
                                 const std::vector<std::uint32_t>& cols);

  RectifierConfig cfg_;
  std::vector<std::size_t> backbone_dims_;
  std::shared_ptr<const CsrMatrix> adj_;
  std::vector<GcnLayer> layers_;
  Rng dropout_rng_;

  // Cached training state.
  std::vector<Matrix> pre_activations_;
  std::vector<DropoutMask> masks_;
  bool trained_forward_ = false;

  // Reusable O(n) scratch for subset inference, so per-query cost tracks the
  // frontier instead of re-zeroing node-sized buffers every layer (callers
  // serialize subset queries; the deployment holds its infer lock here).
  std::vector<std::uint32_t> frontier_mark_;   // epoch-stamped membership
  std::uint32_t frontier_epoch_ = 0;
  std::vector<std::uint32_t> local_index_;     // global -> frontier position
};

}  // namespace gv
