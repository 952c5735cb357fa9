#include "serve/serve_frontend.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/engine_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/query_trace.hpp"
#include "obs/trace.hpp"

namespace gv {

ServeFrontEnd::ServeFrontEnd(ServeBackend& backend, const ServerConfig& cfg,
                             std::size_t num_nodes)
    : backend_(backend),
      cfg_(cfg),
      cache_(cfg.cache_capacity),
      num_nodes_(num_nodes),
      batches_(std::make_unique<Batch[]>(
          std::max<std::size_t>(1, cfg.worker_threads))),
      queue_(cfg.max_batch, cfg.max_wait,
             std::max<std::size_t>(1, cfg.worker_threads),
             [this](std::size_t slot) { post_drainer(slot); }),
      jobs_(std::max<std::size_t>(1, cfg.worker_threads),
            cfg.max_maintenance_in_flight) {
  cfg_.max_batch = queue_.max_batch();
  cfg_.worker_threads = jobs_.num_workers();
  cfg_.max_maintenance_in_flight = jobs_.max_maintenance_in_flight();
  probe_ =
      std::make_unique<EngineProbe>(MetricsRegistry::global(), cfg_.tenant);
  probe_->attach(&jobs_, &tokens_, &queue_);
  // Every drainer slot's batch is sized here, so serving never allocates
  // one: entries and waiter capacity for max_batch, plus one flush's
  // scratch (execute_batch: node ids, labels, digests, alignment slack).
  for (std::size_t i = 0; i < cfg_.worker_threads; ++i) {
    Batch& b = batches_[i];
    b.size_for(cfg_.max_batch);
    b.arena.reserve(cfg_.max_batch * (2 * sizeof(std::uint32_t) +
                                      sizeof(Sha256Digest)) +
                    64);
    publish_arena(b);
  }
  tokens_.set_observer(
      probe_.get(),
      [](void* ctx, std::size_t capacity, std::size_t free_count,
         std::size_t chunks) {
        static_cast<EngineProbe*>(ctx)->publish_token_pool(capacity,
                                                           free_count, chunks);
      });
}

ServeFrontEnd::~ServeFrontEnd() {
  stop();
  // Freeze the probe's last engine snapshot, then detach it so a concurrent
  // ops_report() pull cannot touch queue_/tokens_/jobs_ mid-teardown.
  // attach() blocks on the probe's pull mutex, so a pull that already read
  // the engine pointers finishes before detach returns and the members die
  // (the probe itself outlives them — it is declared first).
  probe_->pull();
  probe_->attach(nullptr, nullptr, nullptr);
}

void ServeFrontEnd::stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  // 1-2. Queue first: new submits throw, queued waiters fail with the
  //      "server shutting down" Error, and the deadline timer is joined,
  //      so nothing posts a drainer after this.
  queue_.stop();
  // 3. Job system: queued interactive/cold jobs are cancelled — a drain
  //    job's cancel handler gives its slot back — while queued MAINTENANCE
  //    drains bounded by the configured deadline.  In-flight jobs of every
  //    class complete; a running drain job finishes its batch and then
  //    finds the queue stopped.
  jobs_.stop(cfg_.shutdown_drain);
}

SubmitToken ServeFrontEnd::submit(std::uint32_t node) {
  GV_CHECK(node < num_nodes_.load(), "query node out of range");
  metrics_.record_request();
  Sha256Digest digest{};  // only computed (and consulted) when caching is on
  if (cache_.enabled()) {
    digest = backend_.row_digest(node);
    if (const auto hit = cache_.get(node, digest)) {
      metrics_.record_cache_hit();
      metrics_.record_latency_ms(0.0);
      return SubmitToken::ready_value(*hit);
    }
    metrics_.record_cache_miss();
  }
  TokenState* state = tokens_.acquire();
  bool coalesced = false;
  try {
    coalesced = queue_.submit(node, digest, state);
  } catch (...) {
    state->abandon();  // the queue never owned the producer reference
    throw;
  }
  if (coalesced) metrics_.record_coalesced();
  return SubmitToken(state);
}

SubmitBatch ServeFrontEnd::submit_many(std::span<const std::uint32_t> nodes) {
  SubmitBatch out;
  out.reserve(nodes.size());
  // Resolve cache hits up front, then enqueue every miss under ONE
  // queue-lock acquisition (the old front ends paid N submit round-trips).
  std::vector<std::uint32_t> miss_nodes;
  std::vector<Sha256Digest> miss_digests;
  std::vector<TokenState*> miss_states;
  miss_nodes.reserve(nodes.size());
  miss_digests.reserve(nodes.size());
  miss_states.reserve(nodes.size());
  for (const auto node : nodes) {
    GV_CHECK(node < num_nodes_.load(), "query node out of range");
    metrics_.record_request();
    Sha256Digest digest{};
    if (cache_.enabled()) {
      digest = backend_.row_digest(node);
      if (const auto hit = cache_.get(node, digest)) {
        metrics_.record_cache_hit();
        metrics_.record_latency_ms(0.0);
        out.push_back(SubmitToken::ready_value(*hit));
        continue;
      }
      metrics_.record_cache_miss();
    }
    TokenState* state = tokens_.acquire();
    miss_nodes.push_back(node);
    miss_digests.push_back(digest);
    miss_states.push_back(state);
    out.push_back(SubmitToken(state));
  }
  if (!miss_nodes.empty()) {
    std::size_t coalesced = 0;
    try {
      coalesced = queue_.submit_many(miss_nodes, miss_digests, miss_states);
    } catch (...) {
      // The queue consumed nothing: fail the pending tokens so callers see
      // the shutdown error instead of hanging, then rethrow.
      const auto err = std::current_exception();
      for (TokenState* s : miss_states) s->fail(err);
      throw;
    }
    for (std::size_t i = 0; i < coalesced; ++i) metrics_.record_coalesced();
  }
  return out;
}

std::uint32_t ServeFrontEnd::query(std::uint32_t node) {
  return submit(node).get();
}

void ServeFrontEnd::post_background(JobClass cls, std::function<void()> fn,
                                    std::function<void()> on_cancel) {
  jobs_.post(cls, std::move(fn), std::move(on_cancel));
}

void ServeFrontEnd::flush() { queue_.flush(); }

std::size_t ServeFrontEnd::pending() const { return queue_.pending(); }

void ServeFrontEnd::publish_arena(Batch& b) {
  // Gauge deltas (the gauges aggregate the whole pool).  Steady state:
  // three reads + three compares, no probe call, no heap — the warm-path
  // zero-alloc gate stays intact.
  const std::size_t reserved = b.arena.bytes_reserved();
  const std::size_t blocks = b.arena.num_blocks();
  const std::size_t high_water = b.arena.bytes_high_water();
  if (reserved != b.published_reserved || blocks != b.published_blocks ||
      high_water != b.published_high_water) {
    probe_->add_arena_delta(
        static_cast<double>(reserved) -
            static_cast<double>(b.published_reserved),
        static_cast<double>(blocks) - static_cast<double>(b.published_blocks),
        static_cast<double>(high_water) -
            static_cast<double>(b.published_high_water));
    b.published_reserved = reserved;
    b.published_blocks = blocks;
    b.published_high_water = high_water;
  }
}

void ServeFrontEnd::post_drainer(std::size_t slot) {
  // Batch flushes are INTERACTIVE jobs: they compete with (and beat)
  // cold/maintenance work on the same workers.
  jobs_.post(
      JobClass::kInteractive, [this, slot] { drain(slot); },
      [this, slot] { queue_.release_drainer(slot); });
}

void ServeFrontEnd::drain(std::size_t slot) {
  Batch& b = batches_[slot];
  while (queue_.pop_due(slot, &b)) {
    execute_batch(b);
    publish_arena(b);
  }
}

void ServeFrontEnd::execute_batch(Batch& b) {
  const std::size_t n = b.count;
  b.arena.reset();
  auto nodes = b.arena.alloc_array<std::uint32_t>(n);
  std::size_t waiters = 0;
  auto oldest = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = b.entries[i];
    nodes[i] = e.node;
    waiters += e.waiters.size();
    oldest = std::min(oldest, e.enqueued);
  }
  const auto flush_start = std::chrono::steady_clock::now();
  // Queue stage, per entry: enqueue -> flush start.  The oldest entry also
  // labels the async queue_wait slice with its query id.
  std::uint64_t oldest_qid = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = b.entries[i];
    if (e.enqueued == oldest) oldest_qid = e.query_id;
    record_query_stage(
        QueryStage::kQueue,
        std::chrono::duration<double>(flush_start - e.enqueued).count());
  }
  // The wait the batch's oldest request spent in the micro-batch queue,
  // reconstructed from its enqueue timestamp (no-op when tracing is off).
  TraceRecorder::instance().emit_async("serve", "queue_wait", oldest,
                                       flush_start, 0.0,
                                       {{"batch_size", double(n)},
                                        {"query_id", double(oldest_qid)}});
  // The flush runs in the scope of the batch's first entry — a multi-query
  // batch attributes its shared spans (routing, ecalls, any cold walk the
  // backend falls back to, halo pulls on peers) to that representative
  // query (the batch is one causal unit).
  QueryScope qscope(b.entries[0].query_id);
  TraceSpan span("serve", "batch_flush");
  span.arg("batch_size", double(n));
  span.arg("waiters", double(waiters));
  double modeled_before = 0.0;
  if (span.active()) modeled_before = backend_.modeled_seconds_total();
  try {
    auto labels = b.arena.alloc_array<std::uint32_t>(n);
    std::span<Sha256Digest> digests{};
    if (cache_.enabled()) digests = b.arena.alloc_array<Sha256Digest>(n);
    const auto result = backend_.execute(nodes, labels, digests);
    const auto done = std::chrono::steady_clock::now();
    record_query_stage(
        QueryStage::kFlush,
        std::chrono::duration<double>(done - flush_start).count());
    if (span.active()) {
      span.modeled_seconds(backend_.modeled_seconds_total() - modeled_before);
    }
    // Account the batch before resolving any token, so a caller observing
    // its token completed also observes the batch in stats().
    metrics_.record_batch(waiters);
    const bool cacheable = cache_.enabled() && result.cacheable;
    for (std::size_t i = 0; i < n; ++i) {
      if (cacheable) cache_.put(b.entries[i].node, digests[i], labels[i]);
      const double ms = std::chrono::duration<double, std::milli>(
                            done - b.entries[i].enqueued)
                            .count();
      for (std::size_t w = 0; w < b.entries[i].waiters.size(); ++w) {
        metrics_.record_latency_ms(ms);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (TokenState* w : b.entries[i].waiters) w->resolve(labels[i]);
      b.entries[i].waiters.clear();
    }
  } catch (...) {
    const auto err = std::current_exception();
    for (std::size_t i = 0; i < n; ++i) {
      for (TokenState* w : b.entries[i].waiters) w->fail(err);
      b.entries[i].waiters.clear();
    }
  }
}

}  // namespace gv
