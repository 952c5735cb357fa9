#include "serve/vault_server.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/query_trace.hpp"
#include "obs/tenant_ledger.hpp"

namespace gv {

VaultServer::VaultServer(const Dataset& ds, TrainedVault vault,
                         DeploymentOptions dopts, ServerConfig cfg)
    : deployment_(ds, std::move(vault), dopts),
      snap_(std::make_shared<Snapshot>()),
      frontend_(*this, cfg, ds.features.rows()) {
  // The front end's threads are already up, but no query can reach the
  // backend until this constructor returns the server to a caller.
  snap_->features = ds.features;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    GV_RANK_SCOPE(lockrank::kServerSnap);
    snap_->generation = 1;
  }
  // EngineScope: attribute this engine's metered usage to its tenant.  A
  // single-enclave server has no attested channels, so the channel columns
  // stay zero.
  TenantLedger::global().register_provider(
      this, frontend_.config().tenant, [this] {
        const MetricsSnapshot s = stats();
        TenantUsage u;
        u.modeled_seconds = s.modeled_seconds;
        u.ecalls = s.ecalls;
        u.batches = s.batches;
        u.cache_hits = s.cache_hits;
        u.cache_misses = s.cache_misses;
        return u;
      });
}

VaultServer::~VaultServer() {
  // Unregister FIRST (it blocks out any in-flight ledger call): the
  // provider reads state the teardown below destroys.
  TenantLedger::global().unregister(this);
  frontend_.stop();
}

std::shared_ptr<VaultServer::Snapshot> VaultServer::current_snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  GV_RANK_SCOPE(lockrank::kServerSnap);
  return snap_;
}

const CsrMatrix& VaultServer::features() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  GV_RANK_SCOPE(lockrank::kServerSnap);
  return snap_->features;
}

Sha256Digest VaultServer::row_digest(std::uint32_t node) const {
  const auto snap = current_snapshot();
  return feature_row_digest(snap->features, node);
}

double VaultServer::modeled_seconds_total() const {
  return deployment_.enclave().meter_snapshot().total_seconds(
      deployment_.cost_model());
}

ServeBackend::BatchResult VaultServer::execute(
    std::span<const std::uint32_t> nodes, std::span<std::uint32_t> labels,
    std::span<Sha256Digest> digests) {
  // Pin the snapshot this batch computes against; a concurrent
  // update_features swaps the server's pointer but cannot mutate ours.
  const auto snap = current_snapshot();
  std::call_once(snap->backbone_once, [&] {
    // The backbone is untrusted-world state over a fixed feature snapshot:
    // run it once and serve every batch from the embeddings.
    snap->outputs = deployment_.run_backbone(snap->features);
  });
  // The whole batch rides ONE ecall; only its labels come back.  The
  // snapshot's embeddings are pushed and labelled only if the enclave does
  // not hold its generation's labels already.
  const auto ecall_start = std::chrono::steady_clock::now();
  const auto out =
      deployment_.infer_labels_batched(snap->outputs, nodes, snap->generation);
  record_query_stage(QueryStage::kEcall,
                     std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - ecall_start)
                         .count());
  std::copy(out.begin(), out.end(), labels.begin());
  // Re-derive cache digests from the snapshot the labels were computed
  // against (the submit-time digest may predate a feature update).
  for (std::size_t i = 0; i < digests.size(); ++i) {
    digests[i] = feature_row_digest(snap->features, nodes[i]);
  }
  return BatchResult{true};
}

void VaultServer::update_features(const CsrMatrix& new_features) {
  GV_CHECK(new_features.rows() == frontend_.num_nodes(),
           "feature update must keep the node set");
  auto fresh = std::make_shared<Snapshot>();
  fresh->features = new_features;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    GV_RANK_SCOPE(lockrank::kServerSnap);
    GV_CHECK(new_features.cols() == snap_->features.cols(),
             "feature update must keep the feature dimension");
    fresh->generation = snap_->generation + 1;
    snap_ = std::move(fresh);
  }
  // Digest-based invalidation: entries for rows that actually changed are
  // evicted; untouched rows keep their labels (see LabelCache docs for the
  // locality approximation this accepts).
  frontend_.cache().invalidate_stale(new_features);
  frontend_.metrics().record_feature_update();
}

MetricsSnapshot VaultServer::stats() const {
  MetricsSnapshot s = frontend_.metrics().snapshot();
  const CostMeter m = deployment_.enclave().meter_snapshot();
  s.ecalls = m.ecalls;
  s.bytes_in = m.bytes_in;
  s.modeled_seconds = m.total_seconds(deployment_.cost_model());
  const auto served = s.completed + s.cache_hits;
  s.requests_per_second =
      s.modeled_seconds > 0.0 ? static_cast<double>(served) / s.modeled_seconds : 0.0;
  return s;
}

void VaultServer::reset_stats() {
  frontend_.metrics().reset();
  deployment_.reset_meter();
}

}  // namespace gv
