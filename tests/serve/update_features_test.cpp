// Live-graph serving: update_features swaps the backbone snapshot and
// invalidates cached labels by feature-row digest.
#include <gtest/gtest.h>

#include <numeric>

#include "serve/label_cache.hpp"
#include "serve/vault_server.hpp"
#include "serve_test_util.hpp"

namespace gv {
namespace {

/// Copy of `features` with every stored value of `row` scaled (changes the
/// row's digest without touching sparsity or other rows).
CsrMatrix scale_row(const CsrMatrix& features, std::uint32_t row, float factor) {
  CsrMatrix out = features;
  auto& vals = out.mutable_values();
  for (std::int64_t i = out.row_ptr()[row]; i < out.row_ptr()[row + 1]; ++i) {
    vals[i] *= factor;
  }
  return out;
}

/// First row at or after `from` that stores at least one feature (scaling an
/// all-zero row would not change its digest).
std::uint32_t nonempty_row(const CsrMatrix& features, std::uint32_t from) {
  for (std::uint32_t r = from; r < features.rows(); ++r) {
    if (features.row_nnz(r) > 0) return r;
  }
  throw Error("no nonempty feature row found");
}

TEST(LabelCache, InvalidateStaleEvictsOnlyChangedRows) {
  const Dataset ds = serve_dataset(55);
  LabelCache cache(16);
  const std::uint32_t changed = nonempty_row(ds.features, 3);
  const std::uint32_t untouched = nonempty_row(ds.features, changed + 1);
  cache.put(changed, feature_row_digest(ds.features, changed), 0);
  cache.put(untouched, feature_row_digest(ds.features, untouched), 1);

  const CsrMatrix updated = scale_row(ds.features, changed, 2.0f);
  EXPECT_EQ(cache.invalidate_stale(updated), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(
      cache.get(changed, feature_row_digest(updated, changed)).has_value());
  EXPECT_TRUE(
      cache.get(untouched, feature_row_digest(updated, untouched)).has_value());
}

TEST(VaultServer, UpdateFeaturesServesLabelsOfNewSnapshot) {
  const Dataset ds = serve_dataset(56);
  TrainedVault tv = serve_vault(ds);

  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait = std::chrono::microseconds(500);
  cfg.cache_capacity = 0;
  VaultServer server(ds, tv, {}, cfg);

  CsrMatrix mutated = ds.features;
  for (auto& v : mutated.mutable_values()) v *= 0.25f;
  const auto new_truth = tv.predict_rectified(mutated);

  server.update_features(mutated);
  for (std::uint32_t v = 0; v < 16; ++v) {
    EXPECT_EQ(server.query(v), new_truth[v]) << "node " << v;
  }
  EXPECT_EQ(server.stats().feature_updates, 1u);
}

TEST(VaultServer, UpdateFeaturesInvalidatesChangedCacheEntriesOnly) {
  const Dataset ds = serve_dataset(57);
  TrainedVault tv = serve_vault(ds);
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait = std::chrono::microseconds(500);
  cfg.cache_capacity = 64;
  VaultServer server(ds, std::move(tv), {}, cfg);

  const std::uint32_t changed = nonempty_row(ds.features, 4);
  const std::uint32_t untouched = nonempty_row(ds.features, changed + 1);
  server.query(changed);
  server.query(untouched);
  const auto misses_before = server.stats().cache_misses;

  server.update_features(scale_row(ds.features, changed, 3.0f));
  // The untouched node still hits the cache; the changed node misses and
  // recomputes against the new snapshot.
  server.query(untouched);
  EXPECT_EQ(server.stats().cache_misses, misses_before);
  server.query(changed);
  EXPECT_EQ(server.stats().cache_misses, misses_before + 1);
}

TEST(VaultServer, QueuedRequestsResolveAgainstNewSnapshot) {
  const Dataset ds = serve_dataset(58);
  TrainedVault tv = serve_vault(ds);
  ServerConfig cfg;
  cfg.max_batch = 1024;
  cfg.max_wait = std::chrono::seconds(30);
  cfg.cache_capacity = 0;
  VaultServer server(ds, tv, {}, cfg);

  CsrMatrix mutated = ds.features;
  for (auto& v : mutated.mutable_values()) v *= 0.25f;
  const auto new_truth = tv.predict_rectified(mutated);

  auto fut = server.submit(6);  // parked in the open batch
  server.update_features(mutated);
  server.flush();
  // The batch executed after the swap: it pinned the NEW snapshot.
  EXPECT_EQ(fut.get(), new_truth[6]);
}

TEST(VaultServer, EachSnapshotCrossesIntoTheEnclaveOnce) {
  const Dataset ds = serve_dataset(60);
  TrainedVault tv = serve_vault(ds);
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait = std::chrono::seconds(30);  // batches cut by max_batch or flush()
  cfg.cache_capacity = 0;
  VaultServer server(ds, tv, {}, cfg);

  CsrMatrix mutated = ds.features;
  for (auto& v : mutated.mutable_values()) v *= 0.25f;
  const auto old_truth = tv.predict_rectified(ds.features);
  const auto new_truth = tv.predict_rectified(mutated);
  const auto outputs = tv.backbone_outputs(ds.features);
  std::uint64_t push_bytes = 0;
  for (const auto idx : tv.rectifier->required_backbone_layers()) {
    push_bytes += outputs[idx].payload_bytes();
  }

  std::vector<std::uint32_t> nodes(40);
  std::iota(nodes.begin(), nodes.end(), 0u);
  const auto serve_all = [&] {
    auto batch = server.submit_many(nodes);
    server.flush();
    return batch.get_all();
  };
  const auto gather = [&](const std::vector<std::uint32_t>& truth) {
    std::vector<std::uint32_t> out;
    for (const auto v : nodes) out.push_back(truth[v]);
    return out;
  };

  server.reset_stats();
  EXPECT_EQ(serve_all(), gather(old_truth));
  EXPECT_EQ(serve_all(), gather(old_truth));
  EXPECT_GE(server.stats().batches, 10u);
  EXPECT_EQ(server.stats().bytes_in, push_bytes);

  server.update_features(mutated);
  EXPECT_EQ(serve_all(), gather(new_truth));
  EXPECT_EQ(serve_all(), gather(new_truth));
  EXPECT_EQ(server.stats().bytes_in, 2 * push_bytes);
}

TEST(VaultServer, ServedSnapshotHoldsOnlyItsLabelsInTheEnclave) {
  const Dataset ds = serve_dataset(61);
  TrainedVault tv = serve_vault(ds);
  ServerConfig cfg;
  cfg.max_batch = 16;
  cfg.max_wait = std::chrono::seconds(30);  // batches cut by max_batch or flush()
  cfg.cache_capacity = 0;
  VaultServer server(ds, tv, {}, cfg);

  CsrMatrix mutated = ds.features;
  for (auto& v : mutated.mutable_values()) v *= 0.25f;
  const auto old_truth = tv.predict_rectified(ds.features);
  const auto new_truth = tv.predict_rectified(mutated);
  ASSERT_NE(old_truth, new_truth) << "the two snapshots must be distinguishable";
  std::vector<std::uint32_t> all(ds.num_nodes());
  std::iota(all.begin(), all.end(), 0u);
  const auto serve_all = [&] {
    auto batch = server.submit_many(all);
    server.flush();
    return batch.get_all();
  };
  // Between batches the enclave holds the weights, the private graph and
  // one label per node of the served snapshot.
  const auto idle_bytes = server.deployment().enclave_current_bytes();
  const auto label_bytes = ds.num_nodes() * sizeof(std::uint32_t);

  EXPECT_EQ(serve_all(), old_truth);
  EXPECT_EQ(server.deployment().enclave_current_bytes(), idle_bytes + label_bytes);
  server.update_features(mutated);
  EXPECT_EQ(serve_all(), new_truth);
  EXPECT_EQ(server.deployment().enclave_current_bytes(), idle_bytes + label_bytes);
}

TEST(VaultServer, RejectsShapeChangingUpdates) {
  const Dataset ds = serve_dataset(59);
  VaultServer server(ds, serve_vault(ds), {}, {});
  CsrMatrix wrong_rows(CsrMatrix::from_coo(ds.num_nodes() + 1, ds.feature_dim(), {}));
  EXPECT_THROW(server.update_features(wrong_rows), Error);
  CsrMatrix wrong_cols(CsrMatrix::from_coo(ds.num_nodes(), ds.feature_dim() + 5, {}));
  EXPECT_THROW(server.update_features(wrong_cols), Error);
}

}  // namespace
}  // namespace gv
