#include "replay.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/deployment.hpp"
#include "graph/substitute.hpp"
#include "serve/label_cache.hpp"
#include "tensor/csr.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace vb {

namespace {

/// Keeps replayed digests observable so the calls are not optimized away.
volatile std::uint8_t g_digest_sink = 0;

struct KernelTotals {
  double spmm_flops = 0.0, spmm_ms = 0.0;
  double gemm_flops = 0.0, gemm_ms = 0.0;
};

/// One GCN layer's two products, as GcnLayer computes them: XW = X * W
/// (sparse X for the first backbone layer), then Y = A * XW.  Returns Y.
template <typename X>
gv::Matrix replay_layer(const std::string& site, const gv::CsrMatrix& adj,
                        const X& x, const gv::Matrix& w, KernelTotals& tot,
                        Report& out) {
  constexpr bool kSparse = std::is_same_v<X, gv::CsrMatrix>;
  gv::Matrix xw;
  const double gemm_ms = median_ms(3, [&] {
    if constexpr (kSparse) {
      xw = gv::spmm(x, w);
    } else {
      xw = gv::matmul(x, w);
    }
  });
  gv::Matrix y;
  const double spmm_ms = median_ms(3, [&] { y = gv::spmm(adj, xw); });
  const double rows = static_cast<double>(adj.rows());
  const double in = static_cast<double>(w.rows());
  const double cols = static_cast<double>(w.cols());
  // FLOPs and bytes moved from the shapes (CSR arrays, gathered input rows,
  // written output; a dense operand is read once).
  double gemm_flops = 0.0, gemm_bytes = 4.0 * (in * cols + rows * cols);
  if constexpr (kSparse) {
    gemm_flops = 2.0 * static_cast<double>(x.nnz()) * cols;
    gemm_bytes += static_cast<double>(x.nnz()) * (8.0 + 4.0 * cols);
  } else {
    gemm_flops = 2.0 * rows * in * cols;
    gemm_bytes += 4.0 * rows * in;
  }
  const double nnz = static_cast<double>(adj.nnz());
  const double spmm_flops = 2.0 * nnz * cols;
  const double spmm_bytes = nnz * (8.0 + 4.0 * cols) + rows * (8.0 + 4.0 * cols);
  out.add("tensor.spmm_ms." + site, spmm_ms, "ms");
  out.add("tensor.gemm_ms." + site, gemm_ms, "ms");
  note("tensor %-6s spmm %8.3f ms %7.2f GFLOP/s %8.2f MB | gemm %8.3f ms %7.2f "
       "GFLOP/s %8.2f MB",
       site.c_str(), spmm_ms, spmm_flops / (spmm_ms * 1e6), spmm_bytes / 1e6,
       gemm_ms, gemm_flops / (gemm_ms * 1e6), gemm_bytes / 1e6);
  tot.spmm_flops += spmm_flops;
  tot.spmm_ms += spmm_ms;
  tot.gemm_flops += gemm_flops;
  tot.gemm_ms += gemm_ms;
  return y;
}

}  // namespace

double median_ms(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(ns_to_ms(now_ns() - t0));
  }
  return median(std::move(t));
}

void tensor_replays(const gv::Dataset& ds, const gv::TrainedVault& vault,
                    Report& out) {
  KernelTotals tot;
  // Real activations: each backbone layer reads the previous layer's
  // embedding, the first one the sparse features.
  const std::vector<gv::Matrix> bb_out = vault.backbone_outputs(ds.features);
  auto& bb = *vault.backbone_gcn;
  for (std::size_t i = 0; i < bb.num_layers(); ++i) {
    const gv::Matrix& w = bb.layer(i).weight().value;
    const std::string site = "bb" + std::to_string(i);
    if (i == 0) {
      replay_layer(site, *vault.substitute_adj, ds.features, w, tot, out);
    } else {
      replay_layer(site, *vault.substitute_adj, bb_out[i - 1], w, tot, out);
    }
  }
  // The parallel rectifier (the training default): layer k reads backbone
  // layer k's embedding next to rectifier layer k-1's output.
  auto& rect = *vault.rectifier;
  if (rect.config().kind != gv::RectifierKind::kParallel) {
    throw std::runtime_error("tensor replay expects the parallel rectifier");
  }
  gv::Matrix h, y0;
  for (std::size_t k = 0; k < rect.num_layers(); ++k) {
    const gv::Matrix x = k == 0 ? bb_out[0] : gv::Matrix::hconcat(bb_out[k], h);
    gv::Matrix y = replay_layer("rect" + std::to_string(k), *vault.real_adj, x,
                                rect.layer(k).weight().value, tot, out);
    gv::add_bias_rows(y, rect.layer(k).bias().value);
    if (k == 0) y0 = y;
    h = gv::relu(y);
  }
  out.add("tensor.spmm_gflops", tot.spmm_flops / (tot.spmm_ms * 1e6), "GFLOP/s");
  out.add("tensor.gemm_gflops", tot.gemm_flops / (tot.gemm_ms * 1e6), "GFLOP/s");
  // Weight gradient of the first rectifier layer, dW = X' * dZ (its output
  // stands in for dZ: same shape).
  gv::Matrix dw;
  out.add("tensor.matmul_tn_ms", median_ms(3, [&] { dw = gv::matmul_tn(bb_out[0], y0); }),
          "ms");
}

void core_replays(const gv::Dataset& ds, const gv::TrainedVault& vault,
                  const std::vector<std::vector<std::uint32_t>>& batches,
                  Report& out) {
  std::vector<gv::Matrix> outputs;
  out.add("core.backbone_ms",
          median_ms(3, [&] { outputs = vault.backbone_outputs(ds.features); }),
          "ms");
  gv::VaultDeployment dep(ds, vault);
  const auto dep_outputs = dep.run_backbone(ds.features);
  // Bounded replay: enough batches for a p99 without dominating the run.
  constexpr std::size_t kMaxBatches = 200;
  const std::int64_t budget_end = now_ns() + 3'000'000'000;
  std::vector<double> infer_ms, subset_ms, rows_total, rows_l0;
  for (const auto& b : batches) {
    if (infer_ms.size() >= kMaxBatches || now_ns() > budget_end) break;
    if (b.empty()) continue;
    std::int64_t t0 = now_ns();
    dep.infer_labels_batched(dep_outputs, b);
    infer_ms.push_back(ns_to_ms(now_ns() - t0));
    std::vector<std::size_t> rows;
    t0 = now_ns();
    vault.rectifier->forward_subset(outputs, b, &rows);
    subset_ms.push_back(ns_to_ms(now_ns() - t0));
    double total = 0.0;
    for (const auto r : rows) total += static_cast<double>(r);
    rows_total.push_back(total);
    rows_l0.push_back(rows.empty() ? 0.0 : static_cast<double>(rows[0]));
  }
  note("core replay: %zu batches through infer_labels_batched / forward_subset",
       infer_ms.size());
  out.add("core.infer_batch_ms.p50", quantile(infer_ms, 0.5), "ms");
  out.add("core.infer_batch_ms.p99", quantile(infer_ms, 0.99), "ms");
  out.add("core.rectifier_subset_ms.p50", quantile(subset_ms, 0.5), "ms");
  out.add("core.frontier_rows.mean", mean(rows_total), "rows");
  // Every batch pushes the full embedding matrices (n rows per layer); the
  // rectifier's first layer reads only its frontier.
  out.add("sgxsim.pushed_rows_used_ratio",
          mean(rows_l0) / static_cast<double>(ds.num_nodes()), "fraction");
}

double digest_us_p50(const gv::CsrMatrix& features,
                     const std::vector<std::uint32_t>& nodes) {
  std::vector<double> us;
  us.reserve(nodes.size());
  for (const auto v : nodes) {
    const std::int64_t t0 = now_ns();
    const auto d = gv::feature_row_digest(features, v);
    const std::int64_t t1 = now_ns();
    g_digest_sink = d[0];
    us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  return quantile(std::move(us), 0.5);
}

double knn_replay_s(const gv::Dataset& ds) {
  const gv::VaultTrainConfig defaults;
  const std::int64_t t0 = now_ns();
  const gv::Graph g = gv::build_knn_graph(ds.features, defaults.knn_k);
  const double s = static_cast<double>(now_ns() - t0) * 1e-9;
  note("graph.knn replay: %zu substitute edges", g.num_directed_edges());
  return s;
}

}  // namespace vb
