// Replica promotion to PRIMARY: after a shard enclave dies, the standby
// rebuilds from its re-sealed package, re-handshakes with the surviving
// shards, rejoins the halo exchange, and re-materializes its label store
// from the CURRENT feature snapshot — so a failed-over shard never serves
// stale labels, including after a post-kill update_features.  The router
// fences a PROMOTING shard (block or fail fast), and the state machine
// STANDBY -> PROMOTING -> PRIMARY (-> restaffed STANDBY) is pinned here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/deployment.hpp"
#include "data/catalog.hpp"
#include "shard/replica_manager.hpp"
#include "shard/shard_router.hpp"
#include "shard/sharded_server.hpp"
#include "../serve/serve_test_util.hpp"

namespace gv {
namespace {

TrainedVault quick_vault(const Dataset& ds) {
  VaultTrainConfig cfg;
  cfg.spec = ModelSpec{"T", {16, 8}, {16, 8}, 0.4f};
  cfg.backbone_train.epochs = 25;
  cfg.rectifier_train.epochs = 25;
  cfg.seed = 31;
  return train_vault(ds, cfg);
}

CsrMatrix halve_features(const CsrMatrix& features) {
  CsrMatrix mutated = features;
  for (auto& v : mutated.mutable_values()) v *= 0.5f;
  return mutated;
}

ShardedServerConfig replicated_config() {
  ShardedServerConfig cfg;
  cfg.server.max_batch = 8;
  cfg.server.max_wait = std::chrono::microseconds(500);
  cfg.server.cache_capacity = 0;  // every query reaches a shard enclave
  cfg.replicate = true;
  return cfg;
}

// The acceptance gate: kill -> promotion -> labels bit-identical to the
// single-enclave oracle on all six Table-I dataset twins, INCLUDING after a
// post-kill update_features (which the pre-promotion design could not even
// run: refresh requires every shard alive).
TEST(ReplicaPromotion, KillThenUpdateStaysBitExactOnAllSixDatasets) {
  for (const DatasetId id : all_dataset_ids()) {
    const Dataset ds = load_dataset(id, /*seed=*/7, /*scale=*/0.06);
    TrainedVault tv = quick_vault(ds);
    const ShardPlan plan = ShardPlanner::plan(ds, tv, 3);
    VaultDeployment single(ds, tv);
    const auto truth = single.infer_labels(ds.features);

    ShardedVaultServer server(ds, tv, plan, {}, replicated_config());
    const std::uint32_t victim = server.deployment().owner(0);
    server.kill_shard(victim);

    const std::uint32_t step = std::max<std::uint32_t>(1, ds.num_nodes() / 40);
    for (std::uint32_t v = 0; v < ds.num_nodes(); v += step) {
      EXPECT_EQ(server.query(v), truth[v])
          << dataset_name(id) << " node " << v << " after promotion";
    }

    // Post-kill feature update: the promoted PRIMARY takes part in the new
    // refresh like any other shard, and labels track the NEW snapshot.
    const CsrMatrix mutated = halve_features(ds.features);
    const auto new_truth = single.infer_labels(mutated);
    server.update_features(mutated);
    for (std::uint32_t v = 0; v < ds.num_nodes(); v += step) {
      EXPECT_EQ(server.query(v), new_truth[v])
          << dataset_name(id) << " node " << v << " after post-kill update";
    }

    const auto s = server.stats();  // update_features joined the promotion
    EXPECT_EQ(s.promotions, 1u) << dataset_name(id);
    EXPECT_GT(s.mean_promotion_ms, 0.0) << dataset_name(id);
    EXPECT_EQ(s.feature_updates, 1u) << dataset_name(id);
  }
}

TEST(ReplicaPromotion, StateMachineAndSealedOwnership) {
  const Dataset ds = serve_dataset(101);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 2));
  const auto truth = dep.infer_labels(ds.features);

  ReplicaManager replicas(dep);
  // Promoting before replication / while the primary is alive both throw.
  EXPECT_THROW(replicas.begin_promotion(0), Error);
  replicas.replicate_all();
  ASSERT_EQ(replicas.state(0), ReplicaState::kStandby);
  EXPECT_THROW(replicas.begin_promotion(0), Error);  // primary still alive

  dep.kill_shard(0);
  replicas.begin_promotion(0);
  EXPECT_EQ(replicas.state(0), ReplicaState::kPromoting);
  EXPECT_THROW(replicas.begin_promotion(0), Error);  // no double fence
  // The fenced standby refuses label reads mid-promotion.
  const auto& owned = dep.plan().shards[0].nodes;
  ASSERT_FALSE(owned.empty());
  EXPECT_THROW(
      replicas.lookup(0, std::vector<std::uint32_t>{owned.front()}), Error);

  const double ms =
      replicas.promote(0, [&] { dep.refresh(ds.features); });
  EXPECT_GT(ms, 0.0);
  EXPECT_EQ(replicas.state(0), ReplicaState::kPrimary);
  EXPECT_TRUE(replicas.await_promotion(0, std::chrono::milliseconds(0)));
  EXPECT_TRUE(dep.shard_alive(0));

  // The promoted PRIMARY serves bit-exact labels through the normal path...
  EXPECT_EQ(dep.infer_labels(ds.features), truth);
  // ...its at-rest package is the blob RE-SEALED under the standby platform
  // key, which now opens inside the (promoted) shard enclave and nowhere
  // else...
  EXPECT_NO_THROW(dep.shard_enclave(0).unseal(dep.sealed_payload(0)));
  EXPECT_THROW(dep.shard_enclave(1).unseal(dep.sealed_payload(0)), Error);
  // ...and the empty replica slot refuses lookups and re-promotion.
  EXPECT_THROW(
      replicas.lookup(0, std::vector<std::uint32_t>{owned.front()}), Error);
  EXPECT_THROW(replicas.promote(0, [] {}), Error);
}

TEST(ReplicaPromotion, RouterFencesPromotingShardAndFailsFastOnTimeout) {
  const Dataset ds = serve_dataset(102);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  const auto truth = dep.infer_labels(ds.features);

  ReplicaManager replicas(dep);
  replicas.replicate_all();
  ShardRouter router(dep, &replicas);

  const std::uint32_t node = 11;
  const std::uint32_t victim = dep.owner(node);
  dep.kill_shard(victim);
  replicas.begin_promotion(victim);

  // Fail-fast policy: a zero fence timeout rejects rather than blocks.
  router.set_fence_timeout(std::chrono::milliseconds(0));
  EXPECT_THROW(router.route(std::vector<std::uint32_t>{node}), Error);

  // Blocking policy: the routed batch waits out the promotion and is served
  // by the new PRIMARY — never by the pre-promotion store.
  router.set_fence_timeout(std::chrono::seconds(30));
  std::vector<std::uint32_t> routed;
  std::atomic<bool> routing{false};
  std::thread client([&] {
    routing.store(true);
    routed = router.route(std::vector<std::uint32_t>{node, 0, 1});
  });
  // Give the client a moment to land on the fence, then promote.  (Even if
  // the client is slow and only checks the state after the flip, the route
  // stays correct — the assertion below would merely see fenced()==0, so
  // wait for the client to at least be inside route().)
  while (!routing.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  replicas.promote(victim, [&] { dep.refresh(ds.features); });
  client.join();
  EXPECT_EQ(routed,
            (std::vector<std::uint32_t>{truth[node], truth[0], truth[1]}));
  EXPECT_GE(router.fenced(), 1u);
  EXPECT_GE(router.failovers(), 1u);
}

// A standby that missed a feature refresh must refuse to serve rather than
// hand out labels from the superseded snapshot.
TEST(ReplicaPromotion, StaleStandbyRefusesToServe) {
  const Dataset ds = serve_dataset(103);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 2));
  dep.refresh(ds.features);

  ReplicaManager replicas(dep);
  replicas.replicate_all();
  ShardRouter router(dep, &replicas);

  // A refresh the replicas never saw (no sync_labels): their stores are one
  // epoch behind.
  dep.refresh(halve_features(ds.features));
  dep.kill_shard(0);
  const auto& owned = dep.plan().shards[0].nodes;
  ASSERT_FALSE(owned.empty());
  EXPECT_THROW(
      replicas.lookup(0, std::vector<std::uint32_t>{owned.front()}), Error);
  EXPECT_THROW(router.route(std::vector<std::uint32_t>{owned.front()}), Error);

  // sync_labels repairs the staleness for live shards; after a re-kill the
  // warm path serves again.  (Shard 0 is dead, so first bring it back via
  // promotion, then verify the epoch-fresh standby of shard 1 serves.)
  replicas.promote(0, [&] { dep.refresh(halve_features(ds.features)); });
  replicas.sync_labels();
  dep.kill_shard(1);
  const auto& owned1 = dep.plan().shards[1].nodes;
  ASSERT_FALSE(owned1.empty());
  EXPECT_NO_THROW(
      replicas.lookup(1, std::vector<std::uint32_t>{owned1.front()}));
}

// A promotion rejected BEFORE adoption (here: a halo neighbor died too)
// must leave the slot a fully functional warm standby — including its
// replicated label store, which the warm-adopt fast path must not have
// consumed on the way in.
TEST(ReplicaPromotion, RejectedAdoptionKeepsWarmStandbyLabels) {
  const Dataset ds = serve_dataset(106);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 2));
  const auto truth = dep.infer_labels(ds.features);

  ReplicaManager replicas(dep);
  replicas.replicate_all();
  dep.kill_shard(0);
  dep.kill_shard(1);  // the halo neighbor: adoption preconditions now fail
  EXPECT_THROW(replicas.promote(0, [] {}), Error);
  EXPECT_EQ(replicas.state(0), ReplicaState::kStandby);
  ASSERT_TRUE(replicas.ready(0));

  // The warm standby still serves its (epoch-fresh) replicated labels.
  const auto& owned = dep.plan().shards[0].nodes;
  ASSERT_FALSE(owned.empty());
  const auto got =
      replicas.lookup(0, std::vector<std::uint32_t>{owned.front()});
  EXPECT_EQ(got, (std::vector<std::uint32_t>{truth[owned.front()]}));
}

// After a promotion the empty replica slot can be restaffed with a fresh
// standby on a new platform, and a SECOND failover of the same shard works.
TEST(ReplicaPromotion, SecondFailoverAfterRestaff) {
  const Dataset ds = serve_dataset(104);
  TrainedVault tv = quick_vault(ds);
  ShardedVaultDeployment dep(ds, tv, ShardPlanner::plan(ds, tv, 3));
  const auto truth = dep.infer_labels(ds.features);

  ReplicaManager replicas(dep);
  replicas.replicate_all();
  ShardRouter router(dep, &replicas);

  const std::uint32_t node = 7;
  const std::uint32_t victim = dep.owner(node);
  dep.kill_shard(victim);
  replicas.promote(victim, [&] { dep.refresh(ds.features); });
  EXPECT_EQ(router.route(std::vector<std::uint32_t>{node}),
            (std::vector<std::uint32_t>{truth[node]}));

  // Cannot restaff a shard whose replica never promoted; can restaff ours.
  const std::uint32_t other = (victim + 1) % dep.num_shards();
  Sha256 h;
  h.update(std::string("gnnvault-simulated-standby-cpu-fuse-key-gen2"));
  const Sha256Digest gen2_key = h.finish();
  EXPECT_THROW(replicas.restaff(other, gen2_key), Error);
  replicas.restaff(victim, gen2_key);
  EXPECT_EQ(replicas.state(victim), ReplicaState::kStandby);
  EXPECT_FALSE(replicas.ready(victim));
  replicas.replicate_all();
  ASSERT_TRUE(replicas.ready(victim));

  // Second failover: the promoted PRIMARY dies; the gen-2 standby (package
  // re-sealed under the gen-2 platform key) takes over bit-exactly.
  dep.kill_shard(victim);
  ASSERT_FALSE(replicas.sealed_payload(victim).ciphertext.empty());
  EXPECT_NO_THROW(
      replicas.replica_enclave(victim).unseal(replicas.sealed_payload(victim)));
  replicas.promote(victim, [&] { dep.refresh(ds.features); });
  EXPECT_EQ(router.route(std::vector<std::uint32_t>{node}),
            (std::vector<std::uint32_t>{truth[node]}));
  EXPECT_EQ(replicas.state(victim), ReplicaState::kPrimary);
}

// Satellite: update_features racing a failover — labels filed under the NEW
// digest must come from the NEW snapshot (extends the snapshot-pinning
// guard in sharded_server.cpp's execute_batch).
TEST(ReplicaPromotion, UpdateFeaturesRacingFailoverFilesFreshLabels) {
  const Dataset ds = serve_dataset(105);
  TrainedVault tv = quick_vault(ds);
  const ShardPlan plan = ShardPlanner::plan(ds, tv, 3);
  const CsrMatrix mutated = halve_features(ds.features);
  VaultDeployment single(ds, tv);
  const auto old_truth = single.infer_labels(ds.features);
  const auto new_truth = single.infer_labels(mutated);

  ShardedServerConfig cfg;
  cfg.server.max_batch = 1024;
  cfg.server.max_wait = std::chrono::seconds(30);  // only flush() releases
  cfg.server.cache_capacity = 64;
  cfg.replicate = true;
  ShardedVaultServer server(ds, tv, plan, {}, cfg);

  const std::uint32_t victim = server.deployment().owner(5);
  // Warm the cache against the old snapshot, then park a batch mid-queue.
  // Misses are released with flush() rather than left to max_wait.
  auto warm = server.submit(5);
  server.flush();
  EXPECT_EQ(warm.get(), old_truth[5]);
  auto parked = server.submit(6);
  server.kill_shard(victim);       // fence + async promotion
  server.update_features(mutated); // joins the promotion, then re-refreshes
  server.flush();
  // The parked batch executed after the swap: it pinned the NEW snapshot,
  // so its labels pair with the NEW digests.
  EXPECT_EQ(parked.get(), new_truth[6]);
  // Cache probes under the new digests see only new-snapshot labels (a
  // stale entry would be a digest mismatch and self-evict).
  auto fresh = server.submit(5);
  server.flush();
  EXPECT_EQ(fresh.get(), new_truth[5]);
  EXPECT_EQ(server.query(6), new_truth[6]);
  EXPECT_EQ(server.stats().promotions, 1u);
}

}  // namespace
}  // namespace gv
