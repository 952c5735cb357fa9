// VaultServer: concurrent, batched secure-inference serving.
//
// `VaultDeployment::infer_labels` answers one whole-graph query per ecall;
// at serving scale (the ROADMAP's millions of users asking for individual
// node labels) each request would pay the full ECALL transition plus a full
// embedding transfer.  The server coalesces requests instead:
//
//   caller threads --> submit(node) --> [ServeFrontEnd: cache, dynamic
//                                        micro-batch queue, JobSystem]
//                                             |  duplicate nodes coalesce
//                                             |  cut as soon as a worker
//                                             |  is free; grows (up to
//                                             |  max_batch) only while
//                                             |  every worker is busy
//                                             |  ONE ecall per batch
//                                     VaultDeployment::infer_labels_batched
//                                             |
//                     SubmitTokens resolve with label-only results
//
// The public backbone runs ONCE per feature snapshot (untrusted-side cache
// of its embeddings), and the rectifier runs once per snapshot too: each
// snapshot carries a generation, and the snapshot's first batch pushes the
// required matrices and labels every node inside the enclave, which keeps
// only those labels.  Every later batch of the snapshot costs one ecall
// that copies out its queries' labels, with no push and no tensor work, so
// the fixed SGX costs amortize across batches (the paper's Sec. III-C
// overhead analysis is exactly the cost this removes).  A small
// LRU label cache short-circuits repeat queries before they ever enqueue;
// duplicate queries already in flight share one batch slot and fan the
// result out to every waiting token.  update_features() swaps in a new
// snapshot for a live graph: the backbone recomputes lazily and cached
// labels are invalidated by feature-row digest.
//
// Since the JobServe redesign, every piece of the serving front — the
// submit/cache/coalesce path, micro-batching, drain jobs, priority classes,
// completion tokens — lives in serve/serve_frontend.hpp, shared with
// ShardedVaultServer.  VaultServer is the ServeBackend: it pins feature
// snapshots and turns a node batch into one enclave ecall.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/annotations.hpp"
#include "core/deployment.hpp"
#include "serve/serve_frontend.hpp"

namespace gv {

class VaultServer : private ServeBackend {
 public:
  /// Deploys `vault` into its own enclave and starts the serving front end.
  /// `ds` provides the private graph (sealed into the enclave) and the
  /// initial feature snapshot.
  VaultServer(const Dataset& ds, TrainedVault vault, DeploymentOptions dopts = {},
              ServerConfig cfg = {});
  /// Fails pending requests with "server shutting down", then stops the
  /// workers (in-flight batches complete).
  ~VaultServer();

  VaultServer(const VaultServer&) = delete;
  VaultServer& operator=(const VaultServer&) = delete;

  /// Asynchronous per-node label query.
  SubmitToken submit(std::uint32_t node) { return frontend_.submit(node); }
  /// Node-subset query: one token per node, preserving order; the whole
  /// miss set enqueues under one queue-lock acquisition.
  SubmitBatch submit_many(std::span<const std::uint32_t> nodes) {
    return frontend_.submit_many(nodes);
  }
  /// Convenience blocking query.
  std::uint32_t query(std::uint32_t node) { return frontend_.query(node); }

  /// Swap in a new feature snapshot (same node set and feature dim): the
  /// backbone embeddings recompute lazily on the next batch, which pushes
  /// them into the enclave and labels every node there once for the new
  /// generation, and cached labels whose feature-row digest changed are
  /// evicted.  Requests already queued resolve against the NEW snapshot.
  void update_features(const CsrMatrix& new_features);

  /// Force-flush pending requests without waiting for the deadline.
  void flush() { frontend_.flush(); }
  /// Pending (queued, unflushed) requests; coalesced duplicates count once.
  std::size_t pending() const { return frontend_.pending(); }

  /// Counters, percentiles, and meter-derived fields, merged.
  MetricsSnapshot stats() const;
  void reset_stats();

  VaultDeployment& deployment() { return deployment_; }
  const VaultDeployment& deployment() const { return deployment_; }
  const ServerConfig& config() const { return frontend_.config(); }
  /// The shared serving front end (priority-class job posting, QoS knobs).
  ServeFrontEnd& front_end() { return frontend_; }
  /// Current feature snapshot (stable reference only between updates).
  const CsrMatrix& features() const;

 private:
  /// One immutable feature snapshot plus its lazily computed backbone
  /// embeddings; batches pin the snapshot they were executed against, so
  /// update_features never races an in-flight batch.  `generation` (stamped
  /// under snap_mu_, one higher per update) tells the deployment whether
  /// the labels it keeps belong to this snapshot.
  struct Snapshot {
    CsrMatrix features;
    std::uint64_t generation = 0;
    std::once_flag backbone_once;
    std::vector<Matrix> outputs;
  };

  std::shared_ptr<Snapshot> current_snapshot() const;

  // ServeBackend: one batch = one ecall against the pinned snapshot.
  Sha256Digest row_digest(std::uint32_t node) const override;
  BatchResult execute(std::span<const std::uint32_t> nodes,
                      std::span<std::uint32_t> labels,
                      std::span<Sha256Digest> digests) override;
  double modeled_seconds_total() const override;

  VaultDeployment deployment_;

  mutable std::mutex snap_mu_ GV_LOCK_RANK(gv::lockrank::kServerSnap);
  std::shared_ptr<Snapshot> snap_;

  /// Last member: its destructor stops the serving threads before anything
  /// they touch is torn down.
  ServeFrontEnd frontend_;
};

}  // namespace gv
