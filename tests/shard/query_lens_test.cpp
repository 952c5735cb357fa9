// QueryLens end-to-end: one query's causal chain — batch flush, routing,
// cold cross-shard recursion, and PEER halo serving — all carry the same
// query id in the exported trace, the per-stage histograms fill, and a
// killed shard leaves a schema-valid flight-recorder bundle behind even
// after the fleet is torn down.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/query_trace.hpp"
#include "obs/trace.hpp"
#include "shard/sharded_server.hpp"
#include "../serve/serve_test_util.hpp"

namespace gv {
namespace {

namespace fs = std::filesystem;

TrainedVault quick_vault(const Dataset& ds, std::uint64_t seed = 37) {
  VaultTrainConfig cfg;
  cfg.spec = ModelSpec{"T", {16, 8}, {16, 8}, 0.4f};
  cfg.backbone_train.epochs = 25;
  cfg.rectifier_train.epochs = 25;
  cfg.seed = seed;
  return train_vault(ds, cfg);
}

/// Spans grouped by their query_id arg (spans without one are skipped).
std::map<std::uint64_t, std::set<std::string>> spans_by_query(
    const std::vector<TraceEvent>& events) {
  std::map<std::uint64_t, std::set<std::string>> by_query;
  for (const auto& ev : events) {
    for (int i = 0; i < ev.num_args; ++i) {
      if (std::string(ev.args[i].key) == "query_id" && ev.args[i].value > 0) {
        by_query[static_cast<std::uint64_t>(ev.args[i].value)].insert(ev.name);
      }
    }
  }
  return by_query;
}

TEST(QueryLens, ColdQueryCascadeSharesOneQueryIdAcrossShards) {
  const Dataset ds = serve_dataset(111);
  TrainedVault tv = quick_vault(ds);
  const ShardPlan plan = ShardPlanner::plan(ds, tv, 3);

  ShardedServerConfig cfg;
  cfg.server.max_batch = 1;  // one query per batch: unambiguous attribution
  cfg.server.max_wait = std::chrono::microseconds(200);
  cfg.server.cache_capacity = 0;
  cfg.materialize_on_start = false;  // every query rides the cold path

  ShardedVaultServer server(ds, std::move(tv), plan, {}, cfg);

  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.set_enabled(true);
  // Serve single queries until at least one cold walk pulled halo rows from
  // a peer (the cross-shard case the causal chain exists to attribute).
  for (std::uint32_t v = 0; v < 40; ++v) {
    server.query(v);
    if (server.stats().cold_halo_request_bytes > 0) break;
  }
  ASSERT_GT(server.stats().cold_halo_request_bytes, 0u)
      << "no query crossed a shard boundary; dataset/plan too easy";

  // query()'s future resolves INSIDE execute_batch, before the worker's
  // batch_flush span closes — poll briefly so the in-flight span lands in
  // the recorder instead of racing the snapshot.
  const auto has_cascade =
      [](const std::map<std::uint64_t, std::set<std::string>>& groups) {
        for (const auto& [qid, names] : groups) {
          if (names.count("batch_flush") && names.count("cold_subset") &&
              names.count("halo_serve")) {
            return true;
          }
        }
        return false;
      };
  std::map<std::uint64_t, std::set<std::string>> by_query;
  bool cascade_attributed = false;
  for (int i = 0; i < 500 && !cascade_attributed; ++i) {
    by_query = spans_by_query(rec.snapshot());
    cascade_attributed = has_cascade(by_query);
    if (!cascade_attributed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  rec.set_enabled(false);
  ASSERT_FALSE(by_query.empty());
  std::ostringstream debug;
  for (const auto& [qid, names] : by_query) {
    debug << qid << ": ";
    for (const auto& n : names) debug << n << " ";
    debug << "\n";
  }
  EXPECT_TRUE(cascade_attributed)
      << "no single query id spans flush + cold walk + peer halo serving\n"
      << debug.str();

  // The trace itself still validates (well-nested per thread).
  std::string err;
  EXPECT_TRUE(validate_trace_json(rec.to_chrome_json(), &err)) << err;
  rec.clear();
}

TEST(QueryLens, StageHistogramsFillWhileServing) {
  const Dataset ds = serve_dataset(112);
  TrainedVault tv = quick_vault(ds);
  const ShardPlan plan = ShardPlanner::plan(ds, tv, 2);

  auto& reg = MetricsRegistry::global();
  const auto count_of = [&](const char* stage) {
    return reg
        .histogram("query.stage_seconds", MetricLabels::of("stage", stage))
        .snapshot()
        .count;
  };
  const auto queue_before = count_of("queue");
  const auto flush_before = count_of("flush");
  const auto ecall_before = count_of("ecall");

  ShardedServerConfig cfg;
  cfg.server.max_batch = 8;
  cfg.server.max_wait = std::chrono::microseconds(200);
  cfg.server.cache_capacity = 0;
  ShardedVaultServer server(ds, std::move(tv), plan, {}, cfg);
  for (std::uint32_t v = 0; v < 20; ++v) server.query(v);

  // Stage recording is always on — no GNNVAULT_TRACE opt-in needed.
  EXPECT_GE(count_of("queue") - queue_before, 20u);
  EXPECT_GT(count_of("flush") - flush_before, 0u);
  EXPECT_GT(count_of("ecall") - ecall_before, 0u);
}

TEST(QueryLens, KilledShardLeavesAValidatedBundleAfterTeardown) {
  const fs::path dir =
      fs::temp_directory_path() / "gv_query_lens_flight_bundle";
  fs::remove_all(dir);
  auto& fr = FlightRecorder::instance();
  fr.configure(dir.string(), 256);

  const Dataset ds = serve_dataset(113);
  TrainedVault tv = quick_vault(ds);
  const ShardPlan plan = ShardPlanner::plan(ds, tv, 3);

  std::string bundle_path;
  {
    ShardedServerConfig cfg;
    cfg.server.max_batch = 8;
    cfg.server.max_wait = std::chrono::microseconds(200);
    cfg.server.cache_capacity = 0;
    cfg.replicate = true;
    ShardedVaultServer server(ds, std::move(tv), plan, {}, cfg);

    const std::uint32_t victim = server.deployment().owner(5);
    server.kill_shard(victim);  // trips kDeadShard with the fleet mid-fault
    EXPECT_EQ(server.query(5), server.query(5));  // promoted shard serves

    // The newest bundle is the kill's.
    for (const auto& e : fs::directory_iterator(dir)) {
      if (bundle_path.empty() || e.path().string() > bundle_path) {
        bundle_path = e.path().string();
      }
    }
    ASSERT_FALSE(bundle_path.empty());
    EXPECT_NE(bundle_path.find("dead_shard"), std::string::npos);
  }  // fleet torn down — the bundle must outlive it

  fr.disarm();

  std::ifstream in(bundle_path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  std::string err;
  ASSERT_TRUE(validate_flight_bundle(json, &err)) << err;
  // Topology was captured at trip time: the victim was already dead.
  EXPECT_NE(json.find("\"alive\":false"), std::string::npos);
  EXPECT_NE(json.find("\"replica_state\""), std::string::npos);
  EXPECT_NE(json.find("kill_shard"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace gv
