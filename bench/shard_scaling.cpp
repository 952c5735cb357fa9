// ShardVault scaling: modeled req/s vs shard count for a tenant whose
// working set exceeds one platform's usable EPC.
//
// The EPC budget is set to ~1.2x the largest shard of a 4-way plan, so:
//   * K=1 (single enclave) overflows the EPC and pays Sec. III-C paging on
//     every batched ecall — the regime the registry used to reject;
//   * K>=4 shards each fit their slice, so serving pays zero page swaps and
//     the shards answer lookups in parallel across platforms.
// Reported modeled time for sharded rows includes the one-off sharded
// forward (backbone streaming + halo exchange) amortized over the workload,
// plus every routed batch (critical path = slowest touched shard).
//
// Also demonstrates the admission headline: the registry REJECTS the tenant
// unsharded and ADMITS it as K shards on a fleet.
//
// Honors GNNVAULT_BENCH_FAST, GNNVAULT_SEED, GNNVAULT_SCALE, and
// GNNVAULT_SERVE_REQUESTS (default 2048).
#include "bench_common.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "serve/registry.hpp"
#include "shard/shard_router.hpp"
#include "shard/sharded_deployment.hpp"

using namespace gv;
using namespace gv::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  const BenchSettings s = settings();
  const double scale = bench_fast_mode() ? s.scale : (s.scale < 1.0 ? s.scale : 0.35);
  const Dataset ds = load_dataset(DatasetId::kPubmed, s.seed, scale);
  GV_LOG_INFO << "shard_scaling: " << ds.name << " n=" << ds.num_nodes()
              << " e=" << ds.graph.num_directed_edges();

  VaultTrainConfig cfg = vault_config(DatasetId::kPubmed, s);
  TrainedVault vault = train_vault(ds, cfg);

  const auto requests = static_cast<std::size_t>(
      std::max<std::int64_t>(1, env_int("GNNVAULT_SERVE_REQUESTS", 2048)));
  constexpr std::size_t kBatch = 32;
  Rng rng(s.seed ^ 0x5a4d5a4dull);
  std::vector<std::uint32_t> workload(requests);
  for (auto& v : workload) {
    v = static_cast<std::uint32_t>(rng.uniform_index(ds.num_nodes()));
  }

  // EPC sized so a 4-way plan fits per shard but the whole tenant does not.
  SgxCostModel model;
  model.epc_bytes = ShardPlanner::plan(ds, vault, 4).max_shard_bytes() * 6 / 5;

  // --- Admission headline: rejected unsharded, admitted as K shards. ------
  {
    RegistryConfig rcfg;
    rcfg.cost_model = model;
    rcfg.num_platforms = 1;
    rcfg.shard_oversized = false;
    rcfg.queue_when_full = false;
    VaultRegistry single(rcfg);
    const auto rejected = single.admit("whale", ds, vault);
    GV_LOG_INFO << "single platform, sharding off: "
                << (rejected.decision == AdmissionDecision::kRejected
                        ? "REJECTED"
                        : "admitted")
                << " (" << rejected.reason << ")";

    rcfg.num_platforms = 8;
    rcfg.shard_oversized = true;
    VaultRegistry fleet(rcfg);
    const auto admitted = fleet.admit("whale", ds, vault);
    GV_LOG_INFO << "8-platform fleet, sharding on : "
                << (admitted.decision == AdmissionDecision::kAdmittedSharded
                        ? "ADMITTED as " + std::to_string(admitted.num_shards) +
                              " shards"
                        : "not sharded")
                << " (" << admitted.reason << ")";
  }

  Table table("Modeled serving throughput vs shard count (EPC " +
              Table::fmt(model.epc_bytes / (1024.0 * 1024.0), 2) + " MB)");
  table.set_header({"shards", "peak shard MB", "fits EPC", "page swaps",
                    "halo MB", "modeled s", "req/s (modeled)", "speedup"});

  double baseline_rps = 0.0;
  for (const std::uint32_t K : {1u, 2u, 4u, 8u}) {
    // K=1 is the oversized single enclave (one "shard" = the whole tenant):
    // its refresh working set blows the EPC and pays Sec. III-C paging.
    ShardedDeploymentOptions dopts;
    dopts.cost_model = model;
    ShardedVaultDeployment dep(ds, vault, ShardPlanner::plan(ds, vault, K),
                               dopts);
    dep.refresh(ds.features);
    ShardRouter router(dep);
    for (std::size_t off = 0; off < workload.size(); off += kBatch) {
      const std::size_t take = std::min(kBatch, workload.size() - off);
      router.route(std::span<const std::uint32_t>(workload.data() + off, take));
    }
    const double modeled_s = dep.modeled_seconds() + router.modeled_seconds();
    const std::uint64_t page_swaps = dep.aggregate_meter().page_swaps;
    const std::size_t peak = dep.max_shard_peak_bytes();
    const double halo_mb = dep.halo_embedding_bytes() / (1024.0 * 1024.0);
    const double rps = static_cast<double>(requests) / modeled_s;
    if (K == 1) baseline_rps = rps;
    table.add_row({std::to_string(K),
                   Table::fmt(peak / (1024.0 * 1024.0), 2),
                   peak <= model.epc_bytes ? "yes" : "NO",
                   std::to_string(page_swaps), Table::fmt(halo_mb, 2),
                   Table::fmt(modeled_s, 4), Table::fmt(rps, 0),
                   Table::fmt(rps / baseline_rps, 2) + "x"});
  }
  table.print();
  table.write_csv(out_dir() + "/shard_scaling.csv");

  // Reference: the one-shot per-batch single-enclave path (no label
  // materialization): every batch stages the full embedding matrices and
  // computes its frontier. VaultServer, which serves fitting tenants,
  // labels each feature snapshot once and answers later batches by lookup,
  // so this is an upper bound on its cost.
  {
    DeploymentOptions dopts;
    dopts.cost_model = model;
    VaultDeployment dep(ds, vault, dopts);
    const auto outputs = dep.run_backbone(ds.features);
    dep.reset_meter();
    for (std::size_t off = 0; off < workload.size(); off += kBatch) {
      const std::size_t take = std::min(kBatch, workload.size() - off);
      dep.infer_labels_batched(
          outputs, std::span<const std::uint32_t>(workload.data() + off, take));
    }
    const CostMeter m = dep.enclave().meter_snapshot();
    const double modeled_s = m.total_seconds(model);
    GV_LOG_INFO << "reference per-batch single enclave: "
                << Table::fmt(modeled_s, 4) << " modeled s, "
                << Table::fmt(static_cast<double>(requests) / modeled_s, 0)
                << " req/s, " << m.page_swaps << " page swaps";
  }
  write_json(args, "shard_scaling", s, {&table});
  return 0;
}
