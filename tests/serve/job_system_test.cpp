// JobSystem semantics the serving core depends on: every posted job runs
// exactly once (even under stealing), priority ordering within a worker,
// the maintenance in-flight cap, work stealing actually firing, and the
// staged shutdown contract (cancel interactive/cold, drain maintenance).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "serve/job_system.hpp"

namespace gv {
namespace {

void spin_for(std::chrono::microseconds dur) {
  const auto until = std::chrono::steady_clock::now() + dur;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(JobSystem, RunsEveryJobExactlyOnceUnderContention) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 250;
  JobSystem js(4);

  std::vector<std::atomic<int>> ran(kThreads * kPerThread);
  for (auto& r : ran) r.store(0);
  std::atomic<std::size_t> total{0};

  std::vector<std::thread> posters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    posters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t id = t * kPerThread + i;
        const JobClass cls = static_cast<JobClass>(id % kNumJobClasses);
        js.post(cls, [&, id] {
          ran[id].fetch_add(1, std::memory_order_relaxed);
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& p : posters) p.join();
  js.drain_idle();

  EXPECT_EQ(total.load(), kThreads * kPerThread);
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "job " << i;
  }
  const JobSystemStats s = js.stats();
  EXPECT_EQ(s.executed[0] + s.executed[1] + s.executed[2],
            kThreads * kPerThread);
  EXPECT_EQ(s.cancelled[0] + s.cancelled[1] + s.cancelled[2], 0u);
}

TEST(JobSystem, WorkStealingMovesJobsOffABusyWorker) {
  JobSystem js(4);
  std::atomic<std::size_t> done{0};

  // One producer job posts a burst from INSIDE the pool; those land on the
  // producer's own deque, so the only way another worker helps is a steal.
  std::promise<void> posted;
  js.post(JobClass::kInteractive, [&] {
    for (int i = 0; i < 400; ++i) {
      js.post(JobClass::kInteractive, [&] {
        spin_for(std::chrono::microseconds(50));
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
    posted.set_value();
  });
  posted.get_future().get();
  js.drain_idle();

  EXPECT_EQ(done.load(), 400u);
  EXPECT_GT(js.stats().stolen, 0u);
}

// A post wakes one parked worker, and a finished job wakes nobody: waking
// every parked worker on every post and completion cost each of them a
// futile steal scan and a re-park (about three unparks per job on two
// workers).  drain_idle() must still return in every round, so its waiter
// is woken when the system goes idle.
TEST(JobSystem, OnePostWakesOneParkedWorker) {
  constexpr int kRounds = 200;
  JobSystem js(2);
  std::atomic<int> ran{0};
  for (int round = 0; round < kRounds; ++round) {
    js.post(JobClass::kInteractive,
            [&] { ran.fetch_add(1, std::memory_order_relaxed); });
    js.drain_idle();
    ASSERT_EQ(ran.load(), round + 1);
  }
  EXPECT_LE(js.stats().unparks, 300u);
}

TEST(JobSystem, MaintenanceCapIsNeverExceeded) {
  JobSystem js(4, /*max_maintenance_in_flight=*/1);
  ASSERT_EQ(js.max_maintenance_in_flight(), 1u);

  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 32; ++i) {
    js.post(JobClass::kMaintenance, [&] {
      const int now = running.fetch_add(1, std::memory_order_acq_rel) + 1;
      int prev = peak.load(std::memory_order_relaxed);
      while (prev < now &&
             !peak.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
      }
      spin_for(std::chrono::microseconds(200));
      running.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  js.drain_idle();

  EXPECT_EQ(js.stats().executed[2], 32u);
  EXPECT_LE(peak.load(), 1);
}

TEST(JobSystem, DefaultMaintenanceCapLeavesAWorkerFree) {
  JobSystem js(4);
  EXPECT_EQ(js.max_maintenance_in_flight(), 3u);
  JobSystem solo(1);
  EXPECT_EQ(solo.max_maintenance_in_flight(), 1u);
}

TEST(JobSystem, OwnLanesDrainInteractiveFirst) {
  JobSystem js(1);

  // Park the only worker so the three queued jobs below cannot start until
  // all of them are enqueued; then the pop order is pure lane priority.
  std::promise<void> started;
  std::promise<void> release;
  auto gate = release.get_future().share();
  js.post(JobClass::kInteractive, [&, gate] {
    started.set_value();
    gate.get();
  });
  started.get_future().get();

  std::atomic<int> seq{0};
  std::atomic<int> order[kNumJobClasses] = {};
  js.post(JobClass::kMaintenance,
          [&] { order[2] = seq.fetch_add(1) + 1; });
  js.post(JobClass::kCold, [&] { order[1] = seq.fetch_add(1) + 1; });
  js.post(JobClass::kInteractive,
          [&] { order[0] = seq.fetch_add(1) + 1; });

  release.set_value();
  js.drain_idle();

  EXPECT_EQ(order[0].load(), 1);  // interactive ran first despite last post
  EXPECT_EQ(order[1].load(), 2);
  EXPECT_EQ(order[2].load(), 3);
}

TEST(JobSystem, StopCancelsQueuedInteractiveButDrainsMaintenance) {
  JobSystem js(1);

  std::promise<void> started;
  std::promise<void> release;
  auto gate = release.get_future().share();
  js.post(JobClass::kInteractive, [&, gate] {
    started.set_value();
    gate.get();
  });
  started.get_future().get();

  std::atomic<bool> interactive_ran{false};
  std::atomic<bool> interactive_cancelled{false};
  std::atomic<bool> maintenance_ran{false};
  std::atomic<bool> maintenance_cancelled{false};
  js.post(
      JobClass::kInteractive, [&] { interactive_ran = true; },
      [&] { interactive_cancelled = true; });
  js.post(
      JobClass::kMaintenance, [&] { maintenance_ran = true; },
      [&] { maintenance_cancelled = true; });

  std::thread stopper(
      [&] { js.stop(/*drain=*/std::chrono::milliseconds(5000)); });
  // Give stop() time to sweep the interactive lane (phase 1) while the
  // worker is still parked; then free the worker inside the drain window so
  // it can chew the queued maintenance job.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release.set_value();
  stopper.join();

  EXPECT_FALSE(interactive_ran.load());
  EXPECT_TRUE(interactive_cancelled.load());
  EXPECT_TRUE(maintenance_ran.load());  // drained within the deadline
  EXPECT_FALSE(maintenance_cancelled.load());

  const JobSystemStats s = js.stats();
  EXPECT_EQ(s.cancelled[0], 1u);
  EXPECT_GE(s.executed[2], 1u);
}

TEST(JobSystem, StopPastDeadlineCancelsQueuedMaintenance) {
  JobSystem js(1);

  std::promise<void> started;
  std::promise<void> release;
  auto gate = release.get_future().share();
  js.post(JobClass::kInteractive, [&, gate] {
    started.set_value();
    gate.get();
  });
  started.get_future().get();

  std::atomic<bool> maintenance_ran{false};
  std::atomic<bool> maintenance_cancelled{false};
  js.post(
      JobClass::kMaintenance, [&] { maintenance_ran = true; },
      [&] { maintenance_cancelled = true; });

  // Zero drain budget: the deadline is already past when stop() reaches
  // phase 2, so the queued maintenance job must be cancelled, not run.
  std::thread stopper([&] { js.stop(std::chrono::milliseconds(0)); });
  while (!maintenance_cancelled.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.set_value();
  stopper.join();

  EXPECT_FALSE(maintenance_ran.load());
  EXPECT_TRUE(maintenance_cancelled.load());
  EXPECT_EQ(js.stats().cancelled[2], 1u);
}

TEST(JobSystem, PostAfterStopRunsCancelInline) {
  JobSystem js(2);
  js.stop();

  bool ran = false;
  bool cancelled = false;
  js.post(
      JobClass::kInteractive, [&] { ran = true; }, [&] { cancelled = true; });
  EXPECT_FALSE(ran);
  EXPECT_TRUE(cancelled);
  EXPECT_GE(js.stats().cancelled[0], 1u);

  js.stop();  // idempotent
}

}  // namespace
}  // namespace gv
