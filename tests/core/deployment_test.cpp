#include "core/deployment.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <numeric>

#include "data/synthetic.hpp"

namespace gv {
namespace {

Dataset deploy_dataset(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.num_nodes = 300;
  spec.num_classes = 3;
  spec.num_undirected_edges = 1000;
  spec.feature_dim = 120;
  spec.homophily = 0.85;
  spec.feature_signal = 0.45;
  return generate_synthetic(spec, seed);
}

TrainedVault quick_vault(const Dataset& ds, RectifierKind kind) {
  VaultTrainConfig cfg;
  cfg.spec = ModelSpec{"T", {24, 12}, {24, 12}, 0.4f};
  cfg.rectifier = kind;
  cfg.backbone_train.epochs = 60;
  cfg.rectifier_train.epochs = 60;
  cfg.seed = 11;
  return train_vault(ds, cfg);
}

TEST(Deployment, SecureInferenceMatchesPlainRectifiedPath) {
  const Dataset ds = deploy_dataset(1);
  TrainedVault tv = quick_vault(ds, RectifierKind::kParallel);
  const auto plain = tv.predict_rectified(ds.features);
  VaultDeployment dep(ds, std::move(tv), {});
  const auto secure = dep.infer_labels(ds.features);
  EXPECT_EQ(secure, plain);
}

TEST(Deployment, MeterBreakdownPopulated) {
  const Dataset ds = deploy_dataset(2);
  VaultDeployment dep(ds, quick_vault(ds, RectifierKind::kParallel), {});
  dep.reset_meter();
  dep.infer_labels(ds.features);
  const CostMeter& m = dep.meter();
  EXPECT_EQ(m.ecalls, 1u);
  EXPECT_GT(m.bytes_in, 0u);
  EXPECT_GT(m.untrusted_compute_seconds, 0.0);
  EXPECT_GT(m.enclave_compute_seconds, 0.0);
}

TEST(Deployment, SeriesTransfersFewerBytesThanCascaded) {
  const Dataset ds = deploy_dataset(3);
  VaultDeployment series(ds, quick_vault(ds, RectifierKind::kSeries), {});
  VaultDeployment cascaded(ds, quick_vault(ds, RectifierKind::kCascaded), {});
  series.infer_labels(ds.features);
  cascaded.infer_labels(ds.features);
  EXPECT_LT(series.bytes_transferred(), cascaded.bytes_transferred());
}

TEST(Deployment, EnclaveMemoryStaysWellUnderEpc) {
  const Dataset ds = deploy_dataset(4);
  VaultDeployment dep(ds, quick_vault(ds, RectifierKind::kCascaded), {});
  dep.infer_labels(ds.features);
  // Fig. 6's feasibility claim: peak enclave memory far below the 96MB EPC.
  EXPECT_LT(dep.enclave_peak_bytes(), dep.cost_model().epc_bytes / 4);
  EXPECT_EQ(dep.meter().page_swaps, 0u);
}

TEST(Deployment, BackboneMemoryExceedsEnclavePeak) {
  const Dataset ds = deploy_dataset(5);
  VaultDeployment dep(ds, quick_vault(ds, RectifierKind::kParallel), {});
  dep.infer_labels(ds.features);
  EXPECT_GT(dep.backbone_runtime_bytes(ds.features), dep.enclave_peak_bytes());
}

TEST(Deployment, SealingRoundTripPreservesAccuracy) {
  const Dataset ds = deploy_dataset(6);
  TrainedVault tv = quick_vault(ds, RectifierKind::kParallel);
  const auto plain = tv.predict_rectified(ds.features);
  DeploymentOptions opts;
  opts.seal_artifacts = true;
  VaultDeployment dep(ds, std::move(tv), opts);
  EXPECT_EQ(dep.infer_labels(ds.features), plain);
}

TEST(Deployment, RepeatedInferenceAccumulatesMeter) {
  const Dataset ds = deploy_dataset(7);
  VaultDeployment dep(ds, quick_vault(ds, RectifierKind::kSeries), {});
  dep.reset_meter();
  dep.infer_labels(ds.features);
  const auto bytes_once = dep.meter().bytes_in;
  dep.infer_labels(ds.features);
  EXPECT_EQ(dep.meter().ecalls, 2u);
  EXPECT_EQ(dep.meter().bytes_in, bytes_once * 2);
}

TEST(Deployment, TransientBuffersFreedAfterInference) {
  const Dataset ds = deploy_dataset(8);
  VaultDeployment dep(ds, quick_vault(ds, RectifierKind::kParallel), {});
  const auto resident = dep.enclave_current_bytes();
  dep.infer_labels(ds.features);
  // Inputs/activations are transient; only weights+graph stay resident.
  EXPECT_EQ(dep.enclave_current_bytes(), resident);
  EXPECT_GT(dep.enclave_peak_bytes(), resident);
}

/// `features` with its rows in reverse order: a second snapshot of the same
/// shape whose labels differ from the original's.
CsrMatrix reversed_rows(const CsrMatrix& features) {
  std::vector<CooEntry> entries;
  const auto n = static_cast<std::uint32_t>(features.rows());
  for (std::uint32_t r = 0; r < n; ++r) {
    for (std::int64_t i = features.row_ptr()[r]; i < features.row_ptr()[r + 1]; ++i) {
      entries.push_back({n - 1 - r, features.col_idx()[i], features.values()[i]});
    }
  }
  return CsrMatrix::from_coo(features.rows(), features.cols(), entries);
}

std::vector<std::uint32_t> gather(const std::vector<std::uint32_t>& labels,
                                  const std::vector<std::uint32_t>& nodes) {
  std::vector<std::uint32_t> out;
  for (const auto v : nodes) out.push_back(labels[v]);
  return out;
}

TEST(Deployment, ResidentInputsCrossOncePerGeneration) {
  const Dataset ds = deploy_dataset(10);
  TrainedVault tv = quick_vault(ds, RectifierKind::kParallel);
  const CsrMatrix other = reversed_rows(ds.features);
  const std::vector<std::uint32_t> nodes = {3, 40, 41, 150, 299};
  const auto truth_a = gather(tv.predict_rectified(ds.features), nodes);
  const auto truth_b = gather(tv.predict_rectified(other), nodes);
  ASSERT_NE(truth_a, truth_b) << "the two snapshots must be distinguishable";
  VaultDeployment dep(ds, std::move(tv), {});
  const auto outputs_a = dep.run_backbone(ds.features);
  const auto outputs_b = dep.run_backbone(other);
  std::uint64_t push_bytes = 0;
  for (const auto idx : dep.vault().rectifier->required_backbone_layers()) {
    push_bytes += outputs_a[idx].payload_bytes();
  }

  struct Call {
    std::uint64_t generation;
    const std::vector<Matrix>* outputs;
    const std::vector<std::uint32_t>* truth;
    std::uint64_t pushed;
  };
  const Call calls[] = {{1, &outputs_a, &truth_a, push_bytes},
                        {1, &outputs_a, &truth_a, 0},
                        {2, &outputs_b, &truth_b, push_bytes},
                        {1, &outputs_a, &truth_a, push_bytes}};
  std::size_t peak_after_first = 0;
  for (std::size_t i = 0; i < std::size(calls); ++i) {
    const auto bytes_before = dep.meter().bytes_in;
    EXPECT_EQ(dep.infer_labels_batched(*calls[i].outputs, nodes, calls[i].generation),
              *calls[i].truth)
        << "call " << i + 1;
    EXPECT_EQ(dep.meter().bytes_in - bytes_before, calls[i].pushed) << "call " << i + 1;
    if (i == 0) peak_after_first = dep.enclave_peak_bytes();
  }
  // Each generation's inputs left before the next was staged.
  EXPECT_EQ(dep.enclave_peak_bytes(), peak_after_first);
}

TEST(Deployment, OneShotCallReleasesResidentInputs) {
  const Dataset ds = deploy_dataset(11);
  VaultDeployment dep(ds, quick_vault(ds, RectifierKind::kCascaded), {});
  const auto weights_and_graph = dep.enclave_current_bytes();
  const auto outputs = dep.run_backbone(ds.features);
  const std::vector<std::uint32_t> nodes = {7, 8};
  dep.infer_labels_batched(outputs, nodes, 5);
  EXPECT_GT(dep.enclave_current_bytes(), weights_and_graph);
  const auto peak = dep.enclave_peak_bytes();
  dep.infer_labels_batched(outputs, nodes);
  EXPECT_EQ(dep.enclave_current_bytes(), weights_and_graph);
  EXPECT_EQ(dep.enclave_peak_bytes(), peak);
  // Generation 5 is no longer resident: it crosses again.
  const auto bytes_before = dep.meter().bytes_in;
  dep.infer_labels_batched(outputs, nodes, 5);
  EXPECT_GT(dep.meter().bytes_in, bytes_before);
}

TEST(Deployment, OutOfRangeQueryRefusedBeforePush) {
  const Dataset ds = deploy_dataset(12);
  VaultDeployment dep(ds, quick_vault(ds, RectifierKind::kParallel), {});
  const std::vector<std::uint32_t> bad = {1, 100000};

  // Nothing resident: the refused call books nothing and pushes nothing.
  dep.reset_meter();
  const auto idle_bytes = dep.enclave_current_bytes();
  EXPECT_THROW(dep.infer_labels_subset(ds.features, bad), Error);
  EXPECT_EQ(dep.enclave_current_bytes(), idle_bytes);
  EXPECT_EQ(dep.meter().bytes_in, 0u);
  EXPECT_EQ(dep.meter().ecalls, 0u);

  // Generation 1 resident: a refused call keeps it resident.
  const auto outputs = dep.run_backbone(ds.features);
  const std::vector<std::uint32_t> good = {1, 2};
  const auto labels = dep.infer_labels_batched(outputs, good, 1);
  const auto resident_bytes = dep.enclave_current_bytes();
  const auto pushed = dep.meter().bytes_in;
  EXPECT_THROW(dep.infer_labels_batched(outputs, bad, 1), Error);
  EXPECT_THROW(dep.infer_labels_batched(outputs, bad, 2), Error);
  EXPECT_THROW(dep.infer_labels_subset(ds.features, bad), Error);
  // Embeddings of another node count are refused the same way.
  std::vector<Matrix> truncated;
  for (const auto& m : outputs) truncated.emplace_back(m.rows() - 1, m.cols());
  EXPECT_THROW(dep.infer_labels_batched(truncated, good, 2), Error);
  EXPECT_EQ(dep.enclave_current_bytes(), resident_bytes);
  EXPECT_EQ(dep.meter().bytes_in, pushed);
  EXPECT_EQ(dep.infer_labels_batched(outputs, good, 1), labels);
  EXPECT_EQ(dep.meter().bytes_in, pushed);
}

TEST(Deployment, ServedSnapshotLabelsEveryNodeLikeTheOracle) {
  const Dataset ds = deploy_dataset(13);
  const CsrMatrix other = reversed_rows(ds.features);
  std::vector<std::uint32_t> all(ds.num_nodes());
  std::iota(all.begin(), all.end(), 0u);
  const std::vector<std::uint32_t> first = {5, 77, 5};
  for (const auto kind :
       {RectifierKind::kParallel, RectifierKind::kCascaded, RectifierKind::kSeries}) {
    SCOPED_TRACE(rectifier_kind_name(kind));
    TrainedVault tv = quick_vault(ds, kind);
    const auto truth_a = tv.predict_rectified(ds.features);
    const auto truth_b = tv.predict_rectified(other);
    ASSERT_NE(truth_a, truth_b) << "the two snapshots must be distinguishable";
    VaultDeployment dep(ds, std::move(tv), {});
    const auto outputs_a = dep.run_backbone(ds.features);
    const auto outputs_b = dep.run_backbone(other);
    // The first call of each generation labels the snapshot; the second is
    // a lookup answered from the kept labels.
    EXPECT_EQ(dep.infer_labels_batched(outputs_a, first, 1), gather(truth_a, first));
    EXPECT_EQ(dep.infer_labels_batched(outputs_a, all, 1), truth_a);
    EXPECT_EQ(dep.infer_labels_batched(outputs_b, first, 2), gather(truth_b, first));
    EXPECT_EQ(dep.infer_labels_batched(outputs_b, all, 2), truth_b);
  }
}

TEST(Deployment, ServedSnapshotKeepsOnlyItsLabelsInTheEnclave) {
  const Dataset ds = deploy_dataset(14);
  VaultDeployment dep(ds, quick_vault(ds, RectifierKind::kParallel), {});
  const auto outputs = dep.run_backbone(ds.features);
  const std::vector<std::uint32_t> nodes = {0, 150, 299};
  // A one-shot call leaves the idle state (its staging entry stays booked
  // at zero bytes).
  dep.infer_labels_batched(outputs, nodes);
  const auto idle_bytes = dep.enclave_current_bytes();
  const auto idle_entries = dep.enclave().memory().live_allocations();
  const auto label_bytes = ds.num_nodes() * sizeof(std::uint32_t);
  for (const std::uint64_t generation : {1, 1, 2}) {
    dep.infer_labels_batched(outputs, nodes, generation);
    // Only the label store stays: no rect.input.* or rect.act.* entry.
    EXPECT_EQ(dep.enclave_current_bytes(), idle_bytes + label_bytes)
        << "generation " << generation;
    EXPECT_EQ(dep.enclave().memory().live_allocations(), idle_entries + 1)
        << "generation " << generation;
  }
}

TEST(Deployment, FailedEcallLeavesNoStaleBlocks) {
  const Dataset ds = deploy_dataset(15);
  TrainedVault tv = quick_vault(ds, RectifierKind::kParallel);
  const CsrMatrix other = reversed_rows(ds.features);
  const auto truth_b = tv.predict_rectified(other);
  VaultDeployment dep(ds, std::move(tv), {});
  const auto outputs_a = dep.run_backbone(ds.features);
  const auto outputs_b = dep.run_backbone(other);
  std::vector<std::uint32_t> all(ds.num_nodes());
  std::iota(all.begin(), all.end(), 0u);
  dep.infer_labels_batched(outputs_a, all);
  const auto idle_bytes = dep.enclave_current_bytes();
  // The ecall fails after generation 1's blocks were staged.
  dep.enclave().inject_ecall_failure("injected");
  EXPECT_THROW(dep.infer_labels_batched(outputs_a, all, 1), EnclaveFailure);
  // Generation 2 is labelled from its own embeddings, and nothing stays
  // staged.
  EXPECT_EQ(dep.infer_labels_batched(outputs_b, all, 2), truth_b);
  EXPECT_EQ(dep.enclave_current_bytes(),
            idle_bytes + ds.num_nodes() * sizeof(std::uint32_t));
}

TEST(Deployment, UnprotectedTimerIsPositive) {
  const Dataset ds = deploy_dataset(9);
  double porg = 0.0;
  TrainConfig tc;
  tc.epochs = 30;
  auto original = train_original_gnn(ds, ModelSpec{"T", {24, 12}, {24, 12}, 0.4f}, tc,
                                     3, &porg);
  EXPECT_GT(time_unprotected_inference(*original, ds.features), 0.0);
}

}  // namespace
}  // namespace gv
