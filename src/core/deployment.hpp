// Step 4 of GNNVault (paper Fig. 2 + Sec. IV-E): secure deployment.
//
// The public backbone and the substitute graph live in the untrusted
// world; the rectifier weights and the REAL adjacency (COO + precomputed
// degree terms) are sealed and only ever exist in the clear inside the
// enclave.  At inference time:
//   1. the backbone runs in the normal world (GPU/CPU — here CPU);
//   2. only the embeddings the rectifier needs cross the one-way channel;
//   3. the rectifier runs inside an ecall, with every intermediate kept in
//      enclave memory;
//   4. ONLY the predicted class labels leave the enclave (label-only
//      output: logits carry link/membership signal, Sec. IV-E).
// When serving, steps 2-3 run once per feature snapshot: the first batch of
// a snapshot labels every node inside the enclave and keeps only those
// labels there, and every later batch of that snapshot is a label lookup.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "core/pipeline.hpp"
#include "sgxsim/channel.hpp"
#include "sgxsim/enclave.hpp"
#include "common/annotations.hpp"

namespace gv {

struct DeploymentOptions {
  SgxCostModel cost_model{};
  /// Seal rectifier weights at rest and unseal on load (default on; can be
  /// disabled to measure the crypto's share of load time).
  bool seal_artifacts = true;
  /// Override the enclave name (and thereby its identity prefix). Empty ->
  /// "gnnvault.<dataset>". The multi-tenant registry sets this per tenant so
  /// tenants sharing a dataset still get distinct enclave identities.
  std::string enclave_name;
};

class VaultDeployment {
 public:
  /// Takes ownership of the trained vault. The private graph is taken from
  /// `ds` and immediately converted to its enclave (COO) form; the
  /// deployment never stores the real adjacency in untrusted state.
  VaultDeployment(const Dataset& ds, TrainedVault vault, DeploymentOptions opts = {});

  /// Secure inference over all nodes; returns ONLY class labels.
  std::vector<std::uint32_t> infer_labels(const CsrMatrix& features);

  /// Secure inference for a subset of nodes; labels in query order. The full
  /// required embedding matrices still cross the channel — selecting rows by
  /// the queries' private neighbourhood untrusted-side would leak the real
  /// adjacency — but the rectifier computes only the queries' multi-hop
  /// frontier inside the enclave.
  std::vector<std::uint32_t> infer_labels_subset(const CsrMatrix& features,
                                                 std::span<const std::uint32_t> nodes);

  /// Serving path: one ecall for a whole batch of node queries, reusing
  /// backbone outputs the caller computed (and may cache across batches).
  /// A non-zero `generation` names the feature snapshot the outputs came
  /// from (never reuse one for other outputs). Its first call pushes the
  /// required matrices, labels every node inside the enclave and keeps only
  /// those labels there; later calls of that generation push nothing and
  /// copy out just the queried labels. A call of any other generation
  /// first drops the kept labels; 0 is one-shot (push, compute the queries'
  /// frontier, release).
  std::vector<std::uint32_t> infer_labels_batched(
      const std::vector<Matrix>& backbone_outputs,
      std::span<const std::uint32_t> nodes, std::uint64_t generation = 0);

  /// Run the public backbone in the untrusted world, metering its time.
  std::vector<Matrix> run_backbone(const CsrMatrix& features);

  /// Accumulated Fig.-6-style cost breakdown (reset before each batch with
  /// reset_meter()).
  const CostMeter& meter() const { return enclave_.meter(); }
  void reset_meter() { enclave_.meter().reset(); }
  const SgxCostModel& cost_model() const { return opts_.cost_model; }

  const Enclave& enclave() const { return enclave_; }
  Enclave& enclave() { return enclave_; }
  /// The sealed rectifier weights (empty unless seal_artifacts); exposed so
  /// multi-tenant tests can prove cross-tenant unsealing fails.
  const SealedBlob& sealed_weights() const { return sealed_weights_; }
  std::size_t enclave_peak_bytes() const { return enclave_.memory().peak_bytes(); }
  std::size_t enclave_current_bytes() const { return enclave_.memory().current_bytes(); }

  /// Estimated untrusted-world runtime bytes of the backbone (params +
  /// activations + substitute adjacency + features); the Fig. 6 argument
  /// that the full model cannot fit in the EPC.
  std::size_t backbone_runtime_bytes(const CsrMatrix& features) const;

  /// Bytes that crossed into the enclave so far.
  std::uint64_t bytes_transferred() const { return channel_.total_bytes_pushed(); }

  const TrainedVault& vault() const { return vault_; }

 private:
  void provision_enclave(const Dataset& ds);
  /// Shared secure path: one ecall, label-only output. `nodes` == nullptr
  /// -> all rows. Looks the queries up when `generation` is the labelled
  /// snapshot; otherwise pushes the required embeddings and computes.
  std::vector<std::uint32_t> secure_infer(const std::vector<Matrix>& backbone_outputs,
                                          const std::span<const std::uint32_t>* nodes,
                                          std::uint64_t generation);

  TrainedVault vault_;
  DeploymentOptions opts_;
  Enclave enclave_;
  OneWayChannel channel_;
  /// Serializes the push-then-ecall pair so concurrent server workers cannot
  /// interleave their staged blocks, and guards the kept labels (owned via
  /// pointer to stay movable).
  std::unique_ptr<std::mutex> infer_mu_ GV_LOCK_RANK(gv::lockrank::kDeployment) =
      std::make_unique<std::mutex>();
  // Enclave-held state (only touched inside ecalls).
  CooAdjacency private_coo_;
  std::shared_ptr<const CsrMatrix> private_adj_csr_;
  SealedBlob sealed_weights_;
  // Every node's label under the snapshot `labels_generation_` (0: none),
  // guarded by infer_mu_. They may be dropped outside an ecall: that only
  // discards enclave state.
  GV_SECRET std::vector<std::uint32_t> labels_;
  std::uint64_t labels_generation_ = 0;
};

/// Wall-clock seconds of one unprotected CPU inference of `model` (the
/// Fig. 6 baseline).
double time_unprotected_inference(NodeModel& model, const CsrMatrix& features,
                                  int repetitions = 3);

}  // namespace gv
