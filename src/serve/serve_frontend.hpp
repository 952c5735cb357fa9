// ServeFrontEnd: the unified JobServe serving front end.
//
// Before this redesign, VaultServer and ShardedVaultServer each hand-rolled
// the same submit / submit_many / query / worker-loop / execute-batch
// machinery around a MicroBatchQueue and a FIFO ThreadPool.  ServeFrontEnd
// owns that machinery ONCE — both servers now compose it and plug in a
// ServeBackend that answers "what are the labels of these nodes":
//
//   callers ── submit(node) ─▶ LabelCache probe ─ hit ─▶ inline-ready token
//                   │ miss                                  (zero alloc)
//                   ▼
//            MicroBatchQueue  (coalescing, pooled slots — zero alloc after
//                   │          warm-up)
//                   │ a due miss and a free drainer slot: the submitting
//                   │ thread posts one INTERACTIVE drain job (max_wait > 0:
//                   ▼ the queue's deadline timer posts it when due)
//            JobSystem workers ── work-stealing, 3 priority classes;
//                   │             maintenance/cold work (migrations,
//                   │             recomputes) rides the SAME workers at
//                   ▼             lower priority, capped in flight
//            drain job ── pops due batches (<= max_batch) into its slot's
//                   │     pooled Batch + arena, back to back, until
//                   ▼     nothing is due
//            ServeBackend::execute  (one ecall / one routed fan-out)
//                   │
//            tokens resolve; labels cached; QueryLens stages recorded
//
// There is one drainer slot per worker, so a miss is cut into a batch the
// moment a worker can run it, and batches grow (up to max_batch) only while
// every worker is busy.
//
// The observability contract of the old worker loops survives verbatim:
// the per-entry `queue` stage, the async "serve/queue_wait" slice labeled
// with the oldest entry's query id, the QueryScope of the representative
// (first) entry, the "serve/batch_flush" span with batch_size/waiters args
// and the modeled-seconds delta, the `flush` stage, and record_batch
// landing BEFORE any token resolves.
//
// Shutdown ordering (stop()): (1) the queue rejects new work and fails
// queued waiters with the "server shutting down" Error; (2) its deadline
// timer, if any, is joined; (3) the job system cancels queued
// interactive/cold jobs — a cancelled drain job gives its slot back — while
// queued MAINTENANCE drains bounded by cfg.shutdown_drain; (4) a running
// drain job finishes its current batch, then finds the queue stopped.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/batch_queue.hpp"
#include "serve/job_system.hpp"
#include "serve/label_cache.hpp"
#include "serve/server_metrics.hpp"
#include "serve/submit_token.hpp"

namespace gv {

class EngineProbe;

struct ServerConfig {
  /// Most requests one batch carries.  A batch is full (and due) at this
  /// many pending requests.
  std::size_t max_batch = 32;
  /// How long the oldest pending request may wait for company before it is
  /// due.  0 (the default): cut a batch as soon as a worker is free.
  std::chrono::microseconds max_wait{0};
  /// JobSystem workers executing batch flushes and background jobs (each
  /// batch is one serialized ecall; extra workers overlap untrusted-side
  /// work with enclave execution).  Also the number of drainer slots: at
  /// most this many batches are popped and in flight at once.
  std::size_t worker_threads = 1;
  /// LRU label-cache entries; 0 disables caching.
  std::size_t cache_capacity = 1024;
  /// Maintenance jobs allowed in flight at once (tenant QoS: interactive
  /// work can never be starved of workers).  0 = max(1, worker_threads-1).
  std::size_t max_maintenance_in_flight = 0;
  /// Shutdown: how long queued MAINTENANCE jobs may keep draining after
  /// stop() before being cancelled.
  std::chrono::milliseconds shutdown_drain{200};
  /// Tenant this engine serves — the `engine` label on every EngineProbe
  /// instrument and the TenantLedger attribution key.  VaultRegistry
  /// admission overwrites it with the admitted tenant's name.
  std::string tenant = "default";
};

/// What a server plugs into the front end: the label computation (and the
/// cache-key digests that go with it).
class ServeBackend {
 public:
  struct BatchResult {
    /// False when the labels must not be cached (e.g. the ownership epoch
    /// moved mid-batch and digests can no longer vouch for them).
    bool cacheable = true;
  };

  virtual ~ServeBackend() = default;

  /// Cache-key digest of the node's current feature row (submit path).
  virtual Sha256Digest row_digest(std::uint32_t node) const = 0;

  /// Compute labels[i] for nodes[i] (one batch = one ecall / one routed
  /// fan-out).  When `digests` is non-empty (caching on), also fill
  /// digests[i] with the digest of the snapshot the label was computed
  /// against.  Runs on a JobSystem worker under the batch's QueryScope.
  virtual BatchResult execute(std::span<const std::uint32_t> nodes,
                              std::span<std::uint32_t> labels,
                              std::span<Sha256Digest> digests) = 0;

  /// Total modeled SGX seconds accumulated so far (batch_flush span delta).
  virtual double modeled_seconds_total() const = 0;
};

class ServeFrontEnd {
 public:
  /// `num_nodes` bounds submit()'s node ids (grows via set_num_nodes).
  /// The backend must outlive the front end.
  ServeFrontEnd(ServeBackend& backend, const ServerConfig& cfg,
                std::size_t num_nodes);
  ~ServeFrontEnd();

  ServeFrontEnd(const ServeFrontEnd&) = delete;
  ServeFrontEnd& operator=(const ServeFrontEnd&) = delete;

  /// Asynchronous per-node label query.  Cache hits return an inline-ready
  /// token; misses enqueue a pooled token — zero heap either way after
  /// warm-up.  Throws gv::Error after stop().
  SubmitToken submit(std::uint32_t node);

  /// Node-subset query: one token per node, preserving order.  All cache
  /// misses enqueue under ONE queue-lock acquisition.
  SubmitBatch submit_many(std::span<const std::uint32_t> nodes);

  /// Convenience blocking query.
  std::uint32_t query(std::uint32_t node);

  /// Background (non-interactive) work sharing the serving workers:
  /// kCold for demand recomputes, kMaintenance for migrations /
  /// replication / re-materialization sweeps.  `on_cancel` runs instead of
  /// `fn` if the job is shed at shutdown.
  void post_background(JobClass cls, std::function<void()> fn,
                       std::function<void()> on_cancel = nullptr);

  /// Make pending requests due without waiting for the deadline.
  void flush();
  /// Pending (queued, not yet popped) requests; coalesced duplicates count
  /// once.
  std::size_t pending() const;

  /// Shutdown (idempotent; also run by the destructor): fail queued
  /// interactive work, drain maintenance bounded by cfg.shutdown_drain,
  /// join the deadline timer and the workers.
  void stop();

  /// Grow the valid node-id range (update_graph node adds).
  void set_num_nodes(std::size_t n) { num_nodes_.store(n); }
  std::size_t num_nodes() const { return num_nodes_.load(); }

  LabelCache& cache() { return cache_; }
  const LabelCache& cache() const { return cache_; }
  ServerMetrics& metrics() { return metrics_; }
  const ServerMetrics& metrics() const { return metrics_; }
  JobSystem& jobs() { return jobs_; }
  const ServerConfig& config() const { return cfg_; }
  /// EngineScope probe for this engine (labeled `engine=cfg.tenant`).
  EngineProbe& probe() { return *probe_; }

 private:
  using Batch = MicroBatchQueue::Batch;

  /// Post the INTERACTIVE drain job of a claimed drainer slot.
  void post_drainer(std::size_t slot);
  /// Drain job body: run due batches in the slot's Batch until none is due.
  void drain(std::size_t slot);
  void execute_batch(Batch& b);
  /// Push the batch's arena growth since its last publish to the probe.
  void publish_arena(Batch& b);

  ServeBackend& backend_;
  ServerConfig cfg_;
  LabelCache cache_;
  ServerMetrics metrics_;
  std::atomic<std::size_t> num_nodes_;

  /// Declared BEFORE the engine pieces it observes: the token pool's
  /// detach-time observer callback and the dtor's final pull must find the
  /// probe alive while queue_/tokens_/jobs_ are torn down.
  std::unique_ptr<EngineProbe> probe_;

  /// One pooled batch per drainer slot (entry/waiter capacities and arena
  /// blocks retained across reuse); only the slot's drain job touches it.
  std::unique_ptr<Batch[]> batches_;

  MicroBatchQueue queue_;
  TokenPool tokens_;
  JobSystem jobs_;

  std::atomic<bool> stopped_{false};
};

}  // namespace gv
