#include "fleet.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "shard/graph_drift.hpp"

namespace vb {

namespace {

/// Random node pairs that are not edges of `g` (the churn's inserts).
std::vector<std::pair<std::uint32_t, std::uint32_t>> non_edges(
    const gv::Graph& g, std::size_t count, SeededRng& rng) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  while (out.size() < count) {
    const std::uint32_t a = rng.below(g.num_nodes());
    const std::uint32_t b = rng.below(g.num_nodes());
    if (a != b && !g.has_edge(a, b)) out.emplace_back(a, b);
  }
  return out;
}

std::uint64_t halo_payload_bytes(const gv::ShardedVaultDeployment& d) {
  return d.halo_embedding_bytes() + d.halo_label_bytes() + d.halo_package_bytes() +
         d.halo_request_bytes() + d.halo_transfer_bytes();
}

}  // namespace

FleetScenario::FleetScenario(const gv::Dataset& ds, const gv::TrainedVault& vault,
                             const gv::ShardPlan& plan,
                             const std::vector<OpKind>& kinds,
                             std::uint64_t seed)
    : num_nodes_(ds.num_nodes()) {
  features_[0] = ds.features;
  features_[1] = ds.features;
  for (auto& v : features_[1].mutable_values()) v *= 0.5f;

  // --- The schedule. Edge churns alternate inserting two fresh non-edges
  // and deleting them again, so the graph toggles between G0 and G0 + e_j.
  SeededRng rng(seed ^ 0xf1ee7c4u);
  std::size_t graph_ops = 0, kills = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> inserted;
  for (const OpKind kind : kinds) {
    FleetOp op;
    op.kind = kind;
    if (op.kind == OpKind::kGraph) {
      if (graph_ops++ % 2 == 0) {
        inserted = non_edges(ds.graph, 2, rng);
        op.delta.edge_inserts = inserted;
      } else {
        op.delta.edge_deletes = inserted;
      }
    } else if (op.kind == OpKind::kKill) {
      op.victim = static_cast<std::uint32_t>(kills++ % kShards);
      std::vector<std::uint32_t> owned;
      for (std::uint32_t v = 0; v < num_nodes_; ++v) {
        if (plan.owner[v] == op.victim) owned.push_back(v);
      }
      op.probe = owned[rng.below(static_cast<std::uint32_t>(owned.size()))];
    }
    ops_.push_back(std::move(op));
  }
  rec_.resize(ops_.size());

  // --- Oracles: one per distinct (graph, snapshot) pair the schedule visits.
  gv::Dataset cur = ds;
  std::size_t graph_version = 0, next_version = 1;
  std::map<std::size_t, gv::TrainedVault> revaulted;
  std::map<std::pair<std::size_t, std::size_t>,
           std::shared_ptr<const std::vector<std::uint32_t>>>
      memo;
  std::size_t feat = 0;
  const auto oracle_for = [&]() {
    const auto key = std::make_pair(graph_version, feat);
    auto& slot = memo[key];
    if (!slot) {
      const gv::TrainedVault* model = &vault;
      if (graph_version != 0) {
        auto it = revaulted.find(graph_version);
        if (it == revaulted.end()) {
          it = revaulted.emplace(graph_version, gv::revault_on(vault, cur)).first;
        }
        model = &it->second;
      }
      slot = std::make_shared<const std::vector<std::uint32_t>>(
          model->predict_rectified(features_[feat]));
    }
    return slot;
  };
  oracle_.push_back(oracle_for());
  std::size_t graph_ops_seen = 0;
  for (const auto& op : ops_) {
    if (op.kind == OpKind::kRefresh) feat ^= 1;
    if (op.kind == OpKind::kGraph) {
      gv::apply_delta(cur, op.delta);
      graph_version = (graph_ops_seen++ % 2 == 0) ? next_version++ : 0;
    }
    oracle_.push_back(oracle_for());
  }
  note("fleet schedule: %zu ops, %zu distinct oracle states", ops_.size(),
       memo.size());
}

FleetScenario::~FleetScenario() = default;

std::unique_ptr<gv::ShardedVaultServer> make_fleet_server(const gv::Dataset& ds,
                                                          gv::TrainedVault vault,
                                                          gv::ShardPlan plan,
                                                          std::size_t worker_threads) {
  gv::ShardedServerConfig cfg;
  cfg.server.worker_threads = worker_threads;
  cfg.replicate = true;
  auto srv = std::make_unique<gv::ShardedVaultServer>(
      ds, std::move(vault), std::move(plan), gv::ShardedDeploymentOptions{}, cfg);
  srv->replicas()->wait_ready();
  return srv;
}

void FleetScenario::run_op(std::size_t i) {
  const FleetOp& op = ops_[i];
  OpRecord& r = rec_[i];
  ++tally_.attempted;
  try {
    if (op.kind == OpKind::kRefresh) {
      const auto& d = srv_->deployment();
      const std::uint64_t emb0 = d.halo_embedding_bytes();
      const std::uint64_t pay0 = halo_payload_bytes(d);
      const std::uint64_t pad0 = d.halo_padded_bytes();
      const std::size_t next = current_features_ ^ 1;
      r.call_ns = now_ns();
      srv_->update_features(features_[next]);
      r.ret_ns = now_ns();
      current_features_ = next;
      r.halo_embedding = d.halo_embedding_bytes() - emb0;
      r.halo_payload = halo_payload_bytes(d) - pay0;
      r.halo_padded = d.halo_padded_bytes() - pad0;
    } else if (op.kind == OpKind::kGraph) {
      const auto snapshot = srv_->features();
      r.call_ns = now_ns();
      const gv::GraphUpdateStats st = srv_->update_graph(op.delta, *snapshot);
      r.ret_ns = now_ns();
      r.stale = st.stale_nodes.size();
    } else {
      const std::int64_t w0 = now_ns();
      srv_->replicas()->wait_ready();
      r.wait_ready_ms = ns_to_ms(now_ns() - w0);
      // The probe must miss the label cache so it travels to the victim.
      srv_->front_end().cache().invalidate_nodes(
          std::span<const std::uint32_t>(&op.probe, 1));
      r.call_ns = now_ns();
      srv_->kill_shard(op.victim);
      gv::SubmitToken tok = srv_->submit(op.probe);
      srv_->flush();
      const std::uint32_t label = tok.get();
      r.ret_ns = now_ns();
      if (label != (*oracle_[i])[op.probe]) ++tally_.wrong;
    }
  } catch (const std::exception& e) {
    note("fleet op %zu failed: %s", i, e.what());
    ++tally_.failed;
    if (r.call_ns == INT64_MAX) r.call_ns = now_ns();
    r.ret_ns = now_ns();
  }
  r.ms = ns_to_ms(r.ret_ns - r.call_ns);
  ++ops_done_;
}

Tally FleetScenario::probe_reads(std::size_t count, SeededRng& rng) {
  std::vector<std::uint32_t> nodes(count);
  for (auto& v : nodes) v = rng.below(num_nodes_);
  Tally t;
  t.attempted = count;
  gv::SubmitBatch batch = srv_->submit_many(nodes);
  srv_->flush();
  const auto& truth = *oracle_[ops_done_];
  for (std::size_t i = 0; i < count; ++i) {
    try {
      if (batch[i].get() != truth[nodes[i]]) ++t.wrong;
    } catch (const std::exception&) {
      ++t.failed;
    }
  }
  return t;
}

void FleetScenario::layer_metrics(const SpanView& spans,
                                  const gv::MetricsSnapshot& before,
                                  const gv::MetricsSnapshot& after,
                                  Report& out) const {
  const auto p50 = [&](const char* cat, const char* name) {
    return quantile(spans.durations_ms(cat, name), 0.5);
  };
  // Refresh phases (fleet/* spans of ShardedVaultDeployment::refresh).
  out.add("shard.refresh_ms", p50("fleet", "refresh"), "ms");
  out.add("shard.stream_ms", p50("fleet", "backbone_stream"), "ms");
  for (int k = 0; k < 3; ++k) {
    out.add("shard.layer_compute_ms.k" + std::to_string(k),
            quantile(spans.durations_ms("fleet", "layer_compute", "layer", k), 0.5),
            "ms");
  }
  for (int k = 0; k < 2; ++k) {
    out.add("shard.halo_send_ms.k" + std::to_string(k),
            quantile(spans.durations_ms("fleet", "halo_send", "layer", k), 0.5), "ms");
    out.add("shard.halo_assemble_ms.k" + std::to_string(k),
            quantile(spans.durations_ms("fleet", "halo_assemble", "layer", k), 0.5),
            "ms");
  }
  std::size_t refreshes = 0, graphs = 0;
  std::uint64_t emb = 0, payload = 0, padded = 0;
  std::vector<double> graph_call_ms, stale, failover_ms, wait_ready_ms;
  for (std::size_t i = 0; i < ops_done_; ++i) {
    const auto& r = rec_[i];
    switch (ops_[i].kind) {
      case OpKind::kRefresh:
        ++refreshes;
        emb += r.halo_embedding;
        payload += r.halo_payload;
        padded += r.halo_padded;
        break;
      case OpKind::kGraph:
        ++graphs;
        graph_call_ms.push_back(r.ms);
        stale.push_back(static_cast<double>(r.stale));
        break;
      case OpKind::kKill:
        failover_ms.push_back(r.ms);
        wait_ready_ms.push_back(r.wait_ready_ms);
        break;
    }
  }
  // update_features = the fleet refresh, then the replica label sync and the
  // cache eviction; the sync has no span of its own, so it is the call's
  // remainder after its fleet/refresh span.
  const auto refresh_spans = spans.find("fleet", "refresh");
  std::vector<double> sync_ms;
  for (std::size_t i = 0; i < ops_done_; ++i) {
    if (ops_[i].kind != OpKind::kRefresh) continue;
    for (const auto* e : refresh_spans) {
      const auto start = static_cast<std::int64_t>(e->start_ns);
      if (start >= rec_[i].call_ns && start <= rec_[i].ret_ns) {
        sync_ms.push_back(rec_[i].ms - static_cast<double>(e->dur_ns) * 1e-6);
      }
    }
  }
  out.add("shard.replica_sync_ms", quantile(sync_ms, 0.5), "ms");
  double refresh_wall = 0.0, refresh_modeled = 0.0;
  for (const auto* e : refresh_spans) {
    refresh_wall += static_cast<double>(e->dur_ns) * 1e-9;
    refresh_modeled += e->modeled_s;
  }
  out.add("shard.refresh_wall_over_modeled",
          refresh_modeled > 0.0 ? refresh_wall / refresh_modeled : 0.0, "ratio");
  note("shard refresh: wall %.1f ms vs modeled critical path %.1f ms per refresh",
       refreshes ? refresh_wall * 1e3 / static_cast<double>(refreshes) : 0.0,
       refreshes ? refresh_modeled * 1e3 / static_cast<double>(refreshes) : 0.0);

  // Serving path through the router.
  out.add("shard.route_ms.p50", p50("route", "route_batch"), "ms");
  out.add("shard.lookup_ms.p50", p50("route", "shard_lookup"), "ms");
  const double batches = static_cast<double>(after.batches - before.batches);
  const double cold_q = static_cast<double>(after.cold_queries - before.cold_queries);
  out.add("shard.cold_share",
          batches > 0 ? static_cast<double>(after.cold_batches - before.cold_batches) /
                            batches
                      : 0.0,
          "fraction");
  out.add("shard.cold_forward_ms.p50", p50("fleet", "cold_forward"), "ms");
  out.add("shard.cold_shards_touched.mean",
          cold_q > 0 ? static_cast<double>(after.cold_shards_touched -
                                           before.cold_shards_touched) /
                           cold_q
                     : 0.0,
          "shards");
  out.add("shard.cold_frontier_rows.mean",
          cold_q > 0 ? static_cast<double>(after.cold_frontier_rows -
                                           before.cold_frontier_rows) /
                           cold_q
                     : 0.0,
          "rows");

  // Graph churn.
  out.add("shard.graph_update_ms", p50("drift", "graph_update"), "ms");
  out.add("shard.graph_update_call_ms", quantile(graph_call_ms, 0.5), "ms");
  out.add("shard.stale_nodes_per_update", mean(stale), "nodes");

  // Failover and promotion.
  double fence_ms = 0.0;
  for (const double d : spans.durations_ms("route", "promotion_fence_wait")) {
    fence_ms += d;
  }
  out.add("shard.fence_wait_ms.sum", fence_ms, "ms");
  out.add("shard.failovers", static_cast<double>(after.failovers - before.failovers),
          "count");
  out.add("shard.failover_ms", quantile(failover_ms, 0.5), "ms");
  out.add("shard.promote_unseal_ms", p50("promotion", "unseal"), "ms");
  out.add("shard.promote_adopt_ms", p50("promotion", "adopt"), "ms");
  out.add("shard.promote_install_ms", p50("promotion", "install_labels"), "ms");
  note("promotions re-materialized (stale standby): %zu",
       spans.find("promotion", "rematerialize").size());
  out.add("shard.rereplicate_ms", quantile(wait_ready_ms, 0.5), "ms");

  // Attested-channel halo traffic per refresh.
  double halo_send_s = 0.0;
  for (const double d : spans.durations_ms("fleet", "halo_send")) halo_send_s += d * 1e-3;
  out.add("sgxsim.halo_mb_per_refresh",
          refreshes ? static_cast<double>(emb) / 1e6 / static_cast<double>(refreshes)
                    : 0.0,
          "MB");
  out.add("sgxsim.halo_padding_ratio",
          payload > 0 ? static_cast<double>(padded) / static_cast<double>(payload) : 0.0,
          "ratio");
  out.add("sgxsim.aead_mb_s",
          halo_send_s > 0 ? static_cast<double>(padded) / 1e6 / halo_send_s : 0.0,
          "MB/s");
  note("fleet ops: %zu refreshes, %zu graph updates, %zu kills", refreshes, graphs,
       failover_ms.size());
}

}  // namespace vb
