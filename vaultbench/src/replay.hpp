// Replays of public library functions at a workload's shapes, for the
// per-layer metrics that no span covers: GCN kernels with the trained
// weights, the single-enclave batch path, feature-row digests, the KNN
// substitute graph and the backbone pass.
//
// Replays share the trained vault's backbone and rectifier objects, whose
// forward passes write member state: run them only once every server
// holding a copy of the vault is gone.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"

namespace vb {

/// Median wall ms of `fn` over `reps` runs after one untimed warm-up.
double median_ms(int reps, const std::function<void()>& fn);

/// tensor.*: spmm / GEMM per backbone (bb<i>) and rectifier (rect<k>) layer
/// at full-graph shapes, GFLOP/s over all sites, and matmul_tn at the
/// rectifier's weight-gradient shape.  FLOPs and bytes moved are computed
/// from the shapes.
void tensor_replays(const gv::Dataset& ds, const gv::TrainedVault& vault,
                    Report& out);

/// core.infer_batch_ms, core.rectifier_subset_ms, core.frontier_rows.mean,
/// core.backbone_ms and sgxsim.pushed_rows_used_ratio from the served
/// batches (node lists in flush order).
void core_replays(const gv::Dataset& ds, const gv::TrainedVault& vault,
                  const std::vector<std::vector<std::uint32_t>>& batches,
                  Report& out);

/// serve.digest_us.p50: feature_row_digest over the probed rows.
double digest_us_p50(const gv::CsrMatrix& features,
                     const std::vector<std::uint32_t>& nodes);

/// graph.knn_s: one build_knn_graph at the training configuration.
double knn_replay_s(const gv::Dataset& ds);

}  // namespace vb
