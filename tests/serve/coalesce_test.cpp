// Duplicate in-flight queries coalesce onto one micro-batch slot: one
// share of one ecall, result fanned out to every waiting token.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "serve/batch_queue.hpp"
#include "serve/submit_token.hpp"
#include "serve/vault_server.hpp"
#include "serve_test_util.hpp"

namespace gv {
namespace {

// One pooled state per submission, tokens kept alive for the test's scope.
struct TokenSource {
  TokenPool pool;
  std::vector<SubmitToken> tokens;
  TokenState* next() {
    TokenState* s = pool.acquire();
    tokens.emplace_back(s);
    return s;
  }
};

TEST(MicroBatchQueue, CoalescesSameNodeSameDigest) {
  PostedDrainers posted;
  MicroBatchQueue q(64, std::chrono::seconds(30), 1, posted.poster());
  TokenSource src;
  Sha256Digest d{};
  EXPECT_FALSE(q.submit(5, d, src.next()));
  EXPECT_TRUE(q.submit(5, d, src.next()));
  EXPECT_FALSE(q.submit(6, d, src.next()));
  EXPECT_EQ(q.pending(), 2u);
  q.flush();
  MicroBatchQueue::Batch batch;
  ASSERT_EQ(posted.size(), 1u);
  ASSERT_TRUE(q.pop_due(*posted.take(), &batch));
  ASSERT_EQ(batch.count, 2u);
  EXPECT_EQ(batch.entries[0].node, 5u);
  EXPECT_EQ(batch.entries[0].waiters.size(), 2u);
  EXPECT_EQ(batch.entries[1].waiters.size(), 1u);
  for (std::size_t i = 0; i < batch.count; ++i) {
    for (TokenState* w : batch.entries[i].waiters) w->resolve(0);
  }
}

TEST(MicroBatchQueue, DigestMismatchDoesNotCoalesce) {
  PostedDrainers posted;
  MicroBatchQueue q(64, std::chrono::seconds(30), 1, posted.poster());
  TokenSource src;
  Sha256Digest old_digest{};
  Sha256Digest new_digest{};
  new_digest[0] = 1;  // features changed between the two submissions
  EXPECT_FALSE(q.submit(5, old_digest, src.next()));
  EXPECT_FALSE(q.submit(5, new_digest, src.next()));
  // The newest entry owns the coalescing slot.
  EXPECT_TRUE(q.submit(5, new_digest, src.next()));
  EXPECT_EQ(q.pending(), 2u);
  q.stop();  // fail the queued waiters so their states recycle
}

TEST(MicroBatchQueue, SubmitAfterStopThrows) {
  PostedDrainers posted;
  MicroBatchQueue q(4, std::chrono::microseconds(100), 1, posted.poster());
  TokenPool pool;
  q.stop();
  TokenState* s = pool.acquire();
  EXPECT_THROW(q.submit(1, Sha256Digest{}, s), Error);
  s->abandon();
  q.flush();
  EXPECT_EQ(posted.size(), 0u);  // no batch is ever cut after stop()
}

TEST(VaultServer, DuplicateInFlightQueriesShareOneBatchSlot) {
  const Dataset ds = serve_dataset(51);
  TrainedVault tv = serve_vault(ds);
  const auto truth = tv.predict_rectified(ds.features);
  ServerConfig cfg;
  cfg.max_batch = 1024;
  cfg.max_wait = std::chrono::seconds(30);  // only flush() releases
  cfg.cache_capacity = 0;
  VaultServer server(ds, std::move(tv), {}, cfg);

  auto f1 = server.submit(9);
  auto f2 = server.submit(9);
  auto f3 = server.submit(9);
  auto f4 = server.submit(10);
  EXPECT_EQ(server.pending(), 2u);  // two slots for four requests
  server.flush();
  EXPECT_EQ(f1.get(), truth[9]);
  EXPECT_EQ(f2.get(), truth[9]);
  EXPECT_EQ(f3.get(), truth[9]);
  EXPECT_EQ(f4.get(), truth[10]);

  const auto s = server.stats();
  EXPECT_EQ(s.requests, 4u);
  EXPECT_EQ(s.completed, 4u);  // every waiter resolved
  EXPECT_EQ(s.coalesced, 2u);
  EXPECT_EQ(s.batches, 1u);   // one flush, one ecall
}

TEST(VaultServer, CoalescedStormCostsOneSlotPerFlush) {
  const Dataset ds = serve_dataset(52);
  TrainedVault tv = serve_vault(ds);
  const auto truth = tv.predict_rectified(ds.features);
  ServerConfig cfg;
  cfg.max_batch = 1024;
  cfg.max_wait = std::chrono::seconds(30);
  cfg.cache_capacity = 0;
  VaultServer server(ds, std::move(tv), {}, cfg);

  // A hot-node storm from several threads: everything coalesces while the
  // batch is open.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<SubmitToken> futs[kThreads];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) futs[t].push_back(server.submit(7));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(server.pending(), 1u);
  server.flush();
  for (int t = 0; t < kThreads; ++t) {
    for (auto& f : futs[t]) EXPECT_EQ(f.get(), truth[7]);
  }
  const auto s = server.stats();
  EXPECT_EQ(s.coalesced, static_cast<std::uint64_t>(kThreads * kPerThread - 1));
  EXPECT_EQ(s.mean_batch_size, static_cast<double>(kThreads * kPerThread));
}

}  // namespace
}  // namespace gv
