// MicroBatchQueue contract tests: drainer-slot claims, deadline handling
// under multi-drainer popping, and the shutdown path for still-queued
// waiters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "serve/batch_queue.hpp"
#include "serve/submit_token.hpp"
#include "serve_test_util.hpp"

namespace gv {
namespace {

TEST(MicroBatchQueue, StopFailsPendingWaitersWithShutdownError) {
  PostedDrainers posted;
  MicroBatchQueue q(8, std::chrono::seconds(30), 1, posted.poster());
  TokenPool pool;
  SubmitToken tok;
  {
    TokenState* s = pool.acquire();
    tok = SubmitToken(s);
    q.submit(1, Sha256Digest{}, s);
  }
  q.stop();
  // The waiter sees an explicit shutdown error, never a silent hang.
  try {
    tok.get();
    FAIL() << "expected a shutdown error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("shutting down"), std::string::npos)
        << e.what();
  }
  // New submissions are refused, and no batch is ever cut again.
  TokenState* s2 = pool.acquire();
  EXPECT_THROW(q.submit(2, Sha256Digest{}, s2), Error);
  s2->abandon();  // the queue never owned the producer reference
  q.flush();
  EXPECT_EQ(posted.size(), 0u);
  EXPECT_EQ(q.pending(), 0u);
  // Both states returned to the pool.
  EXPECT_EQ(pool.free_count() + 1, pool.capacity());  // tok still holds one
}

TEST(MicroBatchQueue, StopWakesTheDeadlineTimer) {
  PostedDrainers posted;
  MicroBatchQueue q(8, std::chrono::seconds(30), 1, posted.poster());
  TokenPool pool;
  TokenState* s = pool.acquire();
  SubmitToken tok(s);
  q.submit(1, Sha256Digest{}, s);  // the timer now sleeps towards 30 s
  const auto start = std::chrono::steady_clock::now();
  q.stop();  // must wake and join the timer, not wait the deadline out
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  EXPECT_THROW(tok.get(), Error);
  EXPECT_EQ(posted.size(), 0u);
}

// Default max_wait (0): every entry is due on arrival, so a submit claims a
// free drainer slot at once; while the slot is claimed, later entries wait
// for that drainer and ride its next batch.
TEST(MicroBatchQueue, EagerSubmitClaimsOneDrainerPerFreeSlot) {
  PostedDrainers posted;
  MicroBatchQueue q(8, std::chrono::microseconds(0), 1, posted.poster());
  TokenPool pool;
  std::vector<SubmitToken> tokens;
  const auto submit = [&](std::uint32_t node) {
    TokenState* s = pool.acquire();
    tokens.emplace_back(s);
    q.submit(node, Sha256Digest{}, s);
  };
  submit(1);
  ASSERT_EQ(posted.size(), 1u);
  submit(2);
  submit(3);
  EXPECT_EQ(posted.size(), 1u);  // the only slot is already claimed
  const std::size_t d = *posted.take();
  MicroBatchQueue::Batch b;
  ASSERT_TRUE(q.pop_due(d, &b));
  EXPECT_EQ(b.count, 3u);
  for (std::size_t i = 0; i < b.count; ++i) {
    for (TokenState* w : b.entries[i].waiters) w->resolve(0);
    b.entries[i].waiters.clear();
  }
  EXPECT_FALSE(q.pop_due(d, &b));  // nothing due: the slot goes back
  submit(4);
  EXPECT_EQ(posted.size(), 1u);  // ...and the next entry claims it again
  ASSERT_TRUE(q.pop_due(*posted.take(), &b));
  EXPECT_EQ(b.count, 1u);
  for (TokenState* w : b.entries[0].waiters) w->resolve(0);
  b.entries[0].waiters.clear();
  for (auto& t : tokens) EXPECT_EQ(t.get(), 0u);
}

// Deadline-drift regression: the deadline timer, asleep towards a full
// burst's (now stale) deadline after a drainer popped that burst, must not
// cut a FRESH entry early — the deadline is recomputed from the current
// oldest entry, so a fresh batch always gets its own full max_wait.
TEST(MicroBatchQueue, FreshBatchGetsItsOwnDeadlineAfterAnotherWorkerDrains) {
  constexpr auto kWait = std::chrono::milliseconds(200);
  constexpr std::size_t kMaxBatch = 4;
  PostedDrainers posted;
  MicroBatchQueue q(kMaxBatch, kWait, 2, posted.poster());
  TokenPool pool;

  std::atomic<bool> stopping{false};
  std::atomic<int> early{0};
  std::atomic<int> popped{0};
  auto worker = [&] {
    MicroBatchQueue::Batch b;
    while (const auto d = posted.take()) {
      while (q.pop_due(*d, &b)) {
        const auto now = std::chrono::steady_clock::now();
        // A batch below max_batch may be cut only once its OLDEST entry
        // has waited out max_wait (stop() short-circuits are exempt).
        if (!stopping.load() && b.count < kMaxBatch &&
            now - b.entries[0].enqueued < kWait / 2) {
          ++early;
        }
        for (std::size_t i = 0; i < b.count; ++i) {
          for (TokenState* w : b.entries[i].waiters) w->resolve(0);
          b.entries[i].waiters.clear();
        }
        popped.fetch_add(static_cast<int>(b.count));
      }
    }
  };
  std::thread w1(worker), w2(worker);

  int submitted = 0;
  std::vector<SubmitToken> tokens;
  const auto submit = [&](std::uint32_t node) {
    TokenState* s = pool.acquire();
    tokens.emplace_back(s);
    q.submit(node, Sha256Digest{}, s);
    ++submitted;
  };
  for (int round = 0; round < 8; ++round) {
    // A full burst: it is due at once and a drainer pops it, while the
    // timer may still be asleep towards the burst's first deadline.
    for (std::uint32_t i = 0; i < kMaxBatch; ++i) {
      submit(static_cast<std::uint32_t>(round * 100 + i));
    }
    // A fresh entry arriving well before the stale deadline expires: it
    // must get a full max_wait, not the leftover.
    std::this_thread::sleep_for(kWait * 3 / 5);
    submit(static_cast<std::uint32_t>(round * 100 + 50));
    while (popped.load() < submitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  stopping.store(true);
  q.stop();
  posted.close();
  w1.join();
  w2.join();
  EXPECT_EQ(early.load(), 0);
}

}  // namespace
}  // namespace gv
