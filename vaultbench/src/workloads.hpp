// The VaultBench workloads.
//
//   cora-hot     single-enclave VaultServer on the Cora twin, Zipf(1.1)
//                popularity: ~90% label-cache hits, so the caller-side
//                serve path (digest, LRU probe, inline token) dominates.
//   pubmed-miss  single-enclave VaultServer on the Pubmed twin, uniform
//                popularity: ~95% misses, so queue -> flush -> embedding
//                push -> ecall -> forward_subset dominates.
//
// The traced run of either also drives a K = 4 replicated fleet of its own
// graph through refreshes, edge churns and shard kills (the shard layer).
#pragma once

#include "bench.hpp"

namespace vb {

/// Run `cfg.workload`; fills `out` with the end-to-end metrics (untraced)
/// or the per-layer metrics (traced) and `tally` with every operation.
void run_workload(const RunConfig& cfg, Report& out, Tally& tally);

}  // namespace vb
