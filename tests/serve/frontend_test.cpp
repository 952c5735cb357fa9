// ServeFrontEnd contract tests: completion tokens (then/wait_all), the
// zero-heap warm lookup path (the JobServe ROADMAP claim, asserted with a
// global operator-new counter), work-conserving batch formation, tenant QoS
// under a maintenance flood, and the staged shutdown ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "serve/serve_frontend.hpp"

// --- global allocation counter ----------------------------------------------
// Replacing ::operator new in this TU makes every heap allocation in the
// test binary observable.  The default operator new[] and the nothrow
// variants funnel through this overload, so plain counting here is enough
// for the "zero allocations per warm lookup" assertion below.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace gv {
namespace {

/// Allocation-free backend: labels[i] = 3 * nodes[i].
class MockBackend : public ServeBackend {
 public:
  Sha256Digest row_digest(std::uint32_t node) const override {
    Sha256Digest d{};
    std::memcpy(d.data(), &node, sizeof(node));
    return d;
  }

  BatchResult execute(std::span<const std::uint32_t> nodes,
                      std::span<std::uint32_t> labels,
                      std::span<Sha256Digest> digests) override {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      labels[i] = nodes[i] * 3u;
      if (!digests.empty()) digests[i] = row_digest(nodes[i]);
    }
    batches.fetch_add(1, std::memory_order_relaxed);
    return {};
  }

  double modeled_seconds_total() const override { return 0.0; }

  std::atomic<std::uint64_t> batches{0};
};

void spin_for(std::chrono::microseconds dur) {
  const auto until = std::chrono::steady_clock::now() + dur;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(ServeFrontEnd, SubmitManyPreservesOrderAcrossHitsAndMisses) {
  MockBackend backend;
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait = std::chrono::microseconds(500);
  cfg.worker_threads = 2;
  ServeFrontEnd fe(backend, cfg, /*num_nodes=*/100);

  // Warm node 5 so the batch below mixes inline-ready and pending tokens.
  EXPECT_EQ(fe.query(5), 15u);

  const std::uint32_t nodes[] = {5, 6, 7, 5, 8};
  SubmitBatch batch = fe.submit_many(nodes);
  ASSERT_EQ(batch.size(), 5u);
  fe.flush();
  batch.wait_all();
  const auto labels = batch.get_all();
  const std::vector<std::uint32_t> want = {15, 18, 21, 15, 24};
  EXPECT_EQ(labels, want);
}

TEST(ServeFrontEnd, ThenCallbackFiresOnPendingAndReadyTokens) {
  MockBackend backend;
  ServerConfig cfg;
  cfg.worker_threads = 2;
  ServeFrontEnd fe(backend, cfg, /*num_nodes=*/100);

  // Pending token: the callback runs on the resolving worker.
  std::promise<std::uint32_t> pending_value;
  SubmitToken t = fe.submit(42);
  t.then([&](std::uint32_t v, std::exception_ptr err) {
    if (!err) pending_value.set_value(v);
  });
  fe.flush();
  EXPECT_EQ(pending_value.get_future().get(), 126u);

  // Ready token (cache hit): the callback runs inline.
  bool inline_ran = false;
  SubmitToken hit = fe.submit(42);
  ASSERT_TRUE(hit.ready());
  hit.then([&](std::uint32_t v, std::exception_ptr err) {
    EXPECT_EQ(v, 126u);
    EXPECT_EQ(err, nullptr);
    inline_ran = true;
  });
  EXPECT_TRUE(inline_ran);
}

TEST(ServeFrontEnd, WarmCacheHitLookupMakesZeroHeapAllocations) {
  MockBackend backend;
  ServerConfig cfg;
  cfg.worker_threads = 2;
  ServeFrontEnd fe(backend, cfg, /*num_nodes=*/100);

  // Warm up: resolve the node once, then hit the cache a few times so every
  // lazily-grown structure on the hit path reaches steady state.
  EXPECT_EQ(fe.query(7), 21u);
  for (int i = 0; i < 100; ++i) fe.query(7);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t sum = 0;
  for (int i = 0; i < 1000; ++i) sum += fe.query(7);
  const std::uint64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(sum, 21000u);
  EXPECT_EQ(delta, 0u) << "cache-hit lookups touched the heap";
}

// The zero-allocation miss path, for the default (eager: a batch is cut as
// soon as a worker is free) and a deadline-batching max_wait.
class ServeFrontEndMaxWait
    : public ::testing::TestWithParam<std::chrono::microseconds> {};

TEST_P(ServeFrontEndMaxWait, WarmMissPathMakesZeroHeapAllocations) {
  MockBackend backend;
  ServerConfig cfg;
  cfg.max_batch = 32;
  cfg.max_wait = GetParam();
  cfg.worker_threads = 2;
  cfg.cache_capacity = 0;  // every lookup exercises the full miss machinery
  ServeFrontEnd fe(backend, cfg, /*num_nodes=*/100);

  std::vector<SubmitToken> tokens;
  tokens.reserve(32);
  const auto round = [&] {
    for (std::uint32_t i = 0; i < 32; ++i) tokens.push_back(fe.submit(i));
    fe.flush();
    std::uint64_t sum = 0;
    for (auto& t : tokens) sum += t.get();
    tokens.clear();
    return sum;
  };

  // Warm up: token pool chunks, queue slab, arena blocks, the job rings,
  // and the stage-histogram statics all reach steady state.  The first
  // burst queues all 32 misses under one lock, so the slab and coalescing
  // index reach the deepest queue a round can build however its drains
  // interleave with its submits (under CPU contention a round can queue
  // all 32 before any drain runs).
  {
    std::uint32_t nodes[32];
    for (std::uint32_t i = 0; i < 32; ++i) nodes[i] = i;
    SubmitBatch burst = fe.submit_many(nodes);
    fe.flush();
    burst.wait_all();
  }
  for (int i = 0; i < 30; ++i) round();

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t sum = 0;
  for (int i = 0; i < 10; ++i) sum += round();
  const std::uint64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(sum, 10u * 3u * (31u * 32u / 2u));
  EXPECT_EQ(delta, 0u) << "warm miss-path lookups touched the heap";
}

INSTANTIATE_TEST_SUITE_P(
    MaxWait, ServeFrontEndMaxWait,
    ::testing::Values(ServerConfig{}.max_wait, std::chrono::microseconds(200)),
    [](const ::testing::TestParamInfo<std::chrono::microseconds>& info) {
      return info.param.count() == 0
                 ? std::string("Default")
                 : "Wait" + std::to_string(info.param.count()) + "us";
    });

/// MockBackend whose first execute signals that it has entered and then
/// blocks until the test releases it; records every batch's size.
class GatedBackend : public MockBackend {
 public:
  BatchResult execute(std::span<const std::uint32_t> nodes,
                      std::span<std::uint32_t> labels,
                      std::span<Sha256Digest> digests) override {
    if (first_.exchange(false)) {
      entered.set_value();
      release_gate.wait();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      sizes_.push_back(nodes.size());
    }
    return MockBackend::execute(nodes, labels, digests);
  }

  std::vector<std::size_t> sizes() {
    std::lock_guard<std::mutex> lock(mu_);
    return sizes_;
  }

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_gate = release.get_future().share();

 private:
  std::atomic<bool> first_{true};
  std::mutex mu_;
  std::vector<std::size_t> sizes_;
};

// Work-conserving batching: with the default config a miss is cut into a
// batch at once, and misses arriving while every worker is busy pile up
// and leave together as the next batch — no deadline and no flush().
TEST(ServeFrontEnd, BatchesFormWhileTheWorkersAreBusy) {
  GatedBackend backend;
  ServerConfig cfg;
  cfg.worker_threads = 1;
  ServeFrontEnd fe(backend, cfg, /*num_nodes=*/100);

  SubmitToken first = fe.submit(1);
  backend.entered.get_future().wait();  // the only worker runs batch {1}
  std::vector<SubmitToken> rest;
  for (std::uint32_t node = 2; node <= 9; ++node) {
    rest.push_back(fe.submit(node));
  }
  rest.push_back(fe.submit(5));  // coalesces onto the queued node 5
  backend.release.set_value();

  EXPECT_EQ(first.get(), 3u);
  for (std::uint32_t node = 2; node <= 9; ++node) {
    EXPECT_EQ(rest[node - 2].get(), node * 3u);
  }
  EXPECT_EQ(rest.back().get(), 15u);
  EXPECT_EQ(backend.sizes(), (std::vector<std::size_t>{1, 8}));
  EXPECT_EQ(fe.metrics().snapshot().coalesced, 1u);
}

TEST(ServeFrontEnd, InteractiveLatencySurvivesMaintenanceFlood) {
  MockBackend backend;
  ServerConfig cfg;
  cfg.max_batch = 16;
  cfg.max_wait = std::chrono::microseconds(200);
  cfg.worker_threads = 4;  // default maintenance cap: 3 of 4 workers
  ServeFrontEnd fe(backend, cfg, /*num_nodes=*/1000);

  constexpr int kFlood = 100;
  std::atomic<int> maintenance_done{0};
  for (int i = 0; i < kFlood; ++i) {
    fe.post_background(JobClass::kMaintenance, [&] {
      spin_for(std::chrono::microseconds(2000));
      maintenance_done.fetch_add(1, std::memory_order_relaxed);
    });
  }

  // With the cap holding a worker free, interactive queries must complete
  // long before the flood drains — not behind it, as a FIFO pool would.
  const std::uint32_t nodes[] = {1, 2, 3, 4, 5, 6, 7, 8};
  SubmitBatch batch = fe.submit_many(nodes);
  fe.flush();
  batch.wait_all();
  const int done_at_completion = maintenance_done.load();
  EXPECT_LT(done_at_completion, kFlood)
      << "interactive work waited for the whole maintenance flood";

  fe.jobs().drain_idle();
  EXPECT_EQ(maintenance_done.load(), kFlood);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(batch[i].get(), (i + 1) * 3);
}

TEST(ServeFrontEnd, StopFailsQueuedInteractiveWithShutdownError) {
  MockBackend backend;
  ServerConfig cfg;
  cfg.max_batch = 64;                           // never fills
  cfg.max_wait = std::chrono::seconds(3600);    // never expires
  cfg.worker_threads = 1;
  ServeFrontEnd fe(backend, cfg, /*num_nodes=*/100);

  const std::uint32_t nodes[] = {1, 2, 3};
  SubmitBatch queued = fe.submit_many(nodes);
  EXPECT_EQ(fe.pending(), 3u);
  fe.stop();

  for (auto& t : queued) {
    EXPECT_THROW(t.get(), Error);
  }
  EXPECT_THROW(fe.submit(4), Error);
  EXPECT_EQ(backend.batches.load(), 0u);
}

TEST(ServeFrontEnd, StopDrainsMaintenanceButShedsQueuedColdWork) {
  MockBackend backend;
  ServerConfig cfg;
  cfg.worker_threads = 1;
  cfg.shutdown_drain = std::chrono::milliseconds(5000);
  ServeFrontEnd fe(backend, cfg, /*num_nodes=*/100);

  // Park the only worker so the background jobs below stay queued until
  // stop() has classified them.
  std::promise<void> started;
  std::promise<void> release;
  auto gate = release.get_future().share();
  fe.post_background(JobClass::kMaintenance, [&, gate] {
    started.set_value();
    gate.get();
  });
  started.get_future().get();

  std::atomic<bool> maintenance_ran{false};
  std::atomic<bool> cold_ran{false};
  std::atomic<bool> cold_cancelled{false};
  fe.post_background(JobClass::kMaintenance, [&] { maintenance_ran = true; });
  fe.post_background(
      JobClass::kCold, [&] { cold_ran = true; },
      [&] { cold_cancelled = true; });

  std::thread stopper([&] { fe.stop(); });
  // Let stop() reach the drain phase, then free the worker inside the
  // 5 s drain window.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release.set_value();
  stopper.join();

  EXPECT_TRUE(maintenance_ran.load());   // drained within the deadline
  EXPECT_FALSE(cold_ran.load());         // shed at shutdown...
  EXPECT_TRUE(cold_cancelled.load());    // ...through its cancel handler
}

}  // namespace
}  // namespace gv
