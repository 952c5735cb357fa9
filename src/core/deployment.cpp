#include "core/deployment.hpp"

#include <numeric>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "tensor/ops.hpp"

namespace gv {

VaultDeployment::VaultDeployment(const Dataset& ds, TrainedVault vault,
                                 DeploymentOptions opts)
    : vault_(std::move(vault)),
      opts_(opts),
      enclave_(opts.enclave_name.empty() ? "gnnvault." + ds.name : opts.enclave_name,
               opts.cost_model),
      channel_(enclave_) {
  GV_CHECK(vault_.rectifier != nullptr, "deployment requires a trained rectifier");
  provision_enclave(ds);
}

void VaultDeployment::provision_enclave(const Dataset& ds) {
  // The private adjacency goes straight to its enclave (COO) form.
  private_coo_ = ds.graph.to_coo_normalized();

  // Measurement covers the rectifier code identity and the initial data.
  enclave_.extend_measurement(std::string("gnnvault-rectifier-v1:") +
                              rectifier_kind_name(vault_.rectifier->config().kind));
  const auto weights = vault_.rectifier->serialize_weights();
  enclave_.extend_measurement(weights);
  enclave_.initialize();

  if (opts_.seal_artifacts) {
    sealed_weights_ = enclave_.seal(weights);
    // Round-trip through sealed storage, as a real deployment would on
    // every enclave launch.
    const auto restored = enclave_.unseal(sealed_weights_);
    vault_.rectifier->deserialize_weights(restored);
  }

  // Enclave-resident allocations (Fig. 6 memory accounting).
  enclave_.ecall([&] {
    enclave_.memory().set("rectifier.weights", vault_.rectifier->parameter_bytes());
    enclave_.memory().set("graph.coo", private_coo_.payload_bytes());
    // The rectifier multiplies against a CSR view built once at load.
    private_adj_csr_ = std::make_shared<const CsrMatrix>(
        Graph::csr_from_coo_normalized(private_coo_));
    enclave_.memory().set("graph.csr", private_adj_csr_->payload_bytes());
    vault_.rectifier->set_adjacency(private_adj_csr_);
  });
}

std::vector<Matrix> VaultDeployment::run_backbone(const CsrMatrix& features) {
  Stopwatch bb_watch;
  auto outputs = vault_.backbone_outputs(features);
  enclave_.add_untrusted_seconds(bb_watch.seconds());
  return outputs;
}

std::vector<std::uint32_t> VaultDeployment::infer_labels(const CsrMatrix& features) {
  // --- 1. Public backbone in the untrusted world. -----------------------
  const auto outputs = run_backbone(features);
  return secure_infer(outputs, nullptr, 0);
}

std::vector<std::uint32_t> VaultDeployment::infer_labels_subset(
    const CsrMatrix& features, std::span<const std::uint32_t> nodes) {
  const auto outputs = run_backbone(features);
  return secure_infer(outputs, &nodes, 0);
}

std::vector<std::uint32_t> VaultDeployment::infer_labels_batched(
    const std::vector<Matrix>& backbone_outputs,
    std::span<const std::uint32_t> nodes, std::uint64_t generation) {
  return secure_infer(backbone_outputs, &nodes, generation);
}

std::vector<std::uint32_t> VaultDeployment::secure_infer(
    const std::vector<Matrix>& outputs, const std::span<const std::uint32_t>* nodes,
    std::uint64_t generation) {
  if (nodes != nullptr && nodes->empty()) return {};
  // Bad arguments are refused before anything is pushed or booked, so a
  // refused call leaves the channel, the ledger and the kept labels as they
  // were. The node count is public: the features have one row each.
  const std::size_t n = private_adj_csr_->rows();
  if (nodes != nullptr) {
    for (const auto v : *nodes) GV_CHECK(v < n, "query node out of range");
  }
  const auto required = vault_.rectifier->required_backbone_layers();
  for (const auto idx : required) {
    GV_CHECK(idx < outputs.size(), "backbone output index out of range");
    GV_CHECK(outputs[idx].rows() == n, "backbone output covers a different node count");
  }
  std::lock_guard<std::mutex> infer_lock(*infer_mu_);
  GV_RANK_SCOPE(lockrank::kDeployment);

  const auto lookup = [&](const std::vector<std::uint32_t>& all) {
    std::vector<std::uint32_t> labels;
    labels.reserve(nodes->size());
    for (const auto v : *nodes) labels.push_back(all[v]);
    return labels;
  };
  // A labelled snapshot's batch only copies its queries' labels out: the
  // ecall does the same work for any query, whatever its neighbourhood.
  if (generation != 0 && generation == labels_generation_) {
    return enclave_.ecall([&] { return lookup(labels_); });
  }
  // The previous snapshot's labels leave before this call books anything.
  if (labels_generation_ != 0) {
    enclave_.memory().free("rect.labels");
    labels_ = {};
    labels_generation_ = 0;
  }

  // --- 2. Only the required embeddings cross the one-way channel. The FULL
  // matrices cross even for subset queries: restricting the transfer to the
  // queries' neighbourhood would require the untrusted side to know the
  // private adjacency, which is exactly what GNNVault hides. A served
  // snapshot's matrices cross once, so what is sent never depends on the
  // queries either. -----------------------------------------------------
  auto sender = channel_.sender();
  for (const auto idx : required) sender.push(outputs[idx]);

  // --- 3+4. Rectifier inside the enclave; label-only output. -------------
  return enclave_.ecall([&] {
    auto receiver = channel_.receiver();
    // This call's blocks are the last ones pushed: any before them were
    // staged for an ecall that failed before its body ran, and are stale.
    while (receiver.pending() > required.size()) receiver.pop();
    std::vector<Matrix> inputs(outputs.size());
    for (const auto idx : required) {
      inputs[idx] = receiver.pop();
      enclave_.memory().set("rect.input." + std::to_string(idx),
                            inputs[idx].payload_bytes());
    }
    Matrix logits;
    std::vector<std::size_t> act_bytes;
    if (nodes == nullptr || generation != 0) {
      act_bytes = vault_.rectifier->activation_bytes(n);
      for (std::size_t k = 0; k < act_bytes.size(); ++k) {
        enclave_.memory().set("rect.act." + std::to_string(k), act_bytes[k]);
      }
      logits = vault_.rectifier->forward(inputs, /*training=*/false);
    } else {
      // One-shot subset: only the queries' multi-hop frontier is computed.
      std::vector<std::size_t> layer_rows;
      logits = vault_.rectifier->forward_subset(inputs, *nodes, &layer_rows);
      const auto& channels = vault_.rectifier->config().channels;
      for (std::size_t k = 0; k < layer_rows.size(); ++k) {
        act_bytes.push_back(layer_rows[k] * channels[k] * sizeof(float));
        enclave_.memory().set("rect.act." + std::to_string(k), act_bytes[k]);
      }
    }
    // Label-only: argmax happens inside the enclave; logits never leave.
    auto labels = argmax_rows(logits);
    // Inputs and activations are transient: released before the ecall
    // returns, whatever the generation.
    for (const auto idx : required) {
      enclave_.memory().free("rect.input." + std::to_string(idx));
    }
    for (std::size_t k = 0; k < act_bytes.size(); ++k) {
      enclave_.memory().free("rect.act." + std::to_string(k));
    }
    if (generation == 0) return labels;
    labels_ = std::move(labels);
    labels_generation_ = generation;
    enclave_.memory().set("rect.labels", labels_.size() * sizeof(std::uint32_t));
    return lookup(labels_);
  });
}

std::size_t VaultDeployment::backbone_runtime_bytes(const CsrMatrix& features) const {
  const NodeModel& bb = vault_.backbone();
  std::size_t bytes = 0;
  bytes += const_cast<NodeModel&>(bb).parameter_count() * sizeof(float);
  bytes += features.payload_bytes();
  if (vault_.substitute_adj) bytes += vault_.substitute_adj->payload_bytes();
  for (const std::size_t dim : bb.layer_dims()) {
    bytes += static_cast<std::size_t>(features.rows()) * dim * sizeof(float);
  }
  return bytes;
}

double time_unprotected_inference(NodeModel& model, const CsrMatrix& features,
                                  int repetitions) {
  GV_CHECK(repetitions > 0, "repetitions must be positive");
  double best = 1e300;
  for (int r = 0; r < repetitions; ++r) {
    Stopwatch sw;
    model.forward(features, /*training=*/false);
    best = std::min(best, sw.seconds());
  }
  return best;
}

}  // namespace gv
