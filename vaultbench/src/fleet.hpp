// The fleet probe's operator: a K = 4 replicated ShardedVaultServer driven
// through a fixed, seeded sequence of feature refreshes, small edge churns
// and shard kills, with the oracle labels of every state the sequence
// passes through precomputed before the server exists.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "loadgen.hpp"
#include "serve/server_metrics.hpp"
#include "shard/sharded_server.hpp"
#include "spans.hpp"

namespace vb {

enum class OpKind { kRefresh, kGraph, kKill };

struct FleetOp {
  OpKind kind = OpKind::kRefresh;
  gv::GraphDelta delta;    // kGraph
  std::uint32_t victim = 0;  // kKill
  std::uint32_t probe = 0;   // kKill: a node the victim owns
};

struct OpRecord {
  std::int64_t call_ns = INT64_MAX;
  std::int64_t ret_ns = INT64_MAX;
  /// Call to return; for a kill, call to the probe's correct answer.
  double ms = 0.0;
  double wait_ready_ms = 0.0;   // kKill: replicas()->wait_ready() first
  std::size_t stale = 0;        // kGraph: GraphUpdateStats::stale_nodes
  std::uint64_t halo_embedding = 0;  // kRefresh: channel-audit deltas
  std::uint64_t halo_payload = 0;
  std::uint64_t halo_padded = 0;
};

/// A K = kShards replicated fleet with the library defaults except
/// `worker_threads`, returned once every standby is replicated.
std::unique_ptr<gv::ShardedVaultServer> make_fleet_server(const gv::Dataset& ds,
                                                          gv::TrainedVault vault,
                                                          gv::ShardPlan plan,
                                                          std::size_t worker_threads);

class FleetScenario {
 public:
  static constexpr std::uint32_t kShards = 4;

  /// One op per entry of `kinds`.  Builds the deltas, victims and probes
  /// from `seed` and precomputes the oracle of every state the ops pass
  /// through — call it before any copy of `vault` reaches a server.
  FleetScenario(const gv::Dataset& ds, const gv::TrainedVault& vault,
                const gv::ShardPlan& plan, const std::vector<OpKind>& kinds,
                std::uint64_t seed);
  ~FleetScenario();

  FleetScenario(const FleetScenario&) = delete;
  FleetScenario& operator=(const FleetScenario&) = delete;

  /// Serve through `srv` from now on (see make_fleet_server).
  void adopt(std::unique_ptr<gv::ShardedVaultServer> srv) { srv_ = std::move(srv); }
  gv::ShardedVaultServer& server() { return *srv_; }
  /// Tear the fleet down (pending requests fail, in-flight batches finish).
  void shutdown() { srv_.reset(); }

  /// Run op `i` now (ops must run in order, from one thread).
  void run_op(std::size_t i);
  /// Failed or wrongly answered control operations so far.
  const Tally& tally() const { return tally_; }

  /// Closed-loop reads of `count` uniform nodes between ops, checked
  /// against the current state.
  Tally probe_reads(std::size_t count, SeededRng& rng);

  /// shard.* and sgxsim.halo_* from the traced spans, the op records and
  /// the server counters over the traced window.
  void layer_metrics(const SpanView& spans, const gv::MetricsSnapshot& before,
                     const gv::MetricsSnapshot& after, Report& out) const;

 private:
  std::uint32_t num_nodes_ = 0;
  gv::CsrMatrix features_[2];   // F0, and F1 = F0 with every value halved
  std::vector<FleetOp> ops_;
  std::vector<OpRecord> rec_;
  std::size_t ops_done_ = 0;
  /// oracle_[s]: labels in state s (state 0 initial, state i+1 after op i).
  std::vector<std::shared_ptr<const std::vector<std::uint32_t>>> oracle_;
  std::size_t current_features_ = 0;
  Tally tally_;
  std::unique_ptr<gv::ShardedVaultServer> srv_;
};

}  // namespace vb
