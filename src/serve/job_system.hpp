// JobSystem: the work-stealing execution core of JobServe.
//
// Replaces the FIFO ThreadPool on the serving path.  N workers each own a
// three-lane deque (one ring per priority class); posts from a worker land
// on its own deque, posts from outside round-robin across workers.  A
// worker drains its own lanes INTERACTIVE-first, and when empty steals from
// a uniformly random victim (scanning the rest in order as fallback) —
// again highest class first, from the BACK of the victim's lane while the
// owner pops the FRONT, so steals and local pops rarely collide on the same
// job.
//
// Priority classes (tenant QoS):
//   kInteractive   drain jobs running batch flushes for live queries.
//                  Always runnable.
//   kCold          cold-path recomputes: post-promotion boundary rebuilds,
//                  forced re-materializations.  Runs when no interactive
//                  work is runnable on that worker.
//   kMaintenance   migrations / replication / re-materialization sweeps.
//                  Additionally capped: at most `max_maintenance_in_flight`
//                  maintenance jobs execute at once (default workers-1,
//                  min 1), so a maintenance storm can never occupy every
//                  worker and starve interactive latency.
//
// Wake-ups: a post wakes ONE parked worker (any worker can steal the job),
// a finished job wakes one only when it freed a maintenance-cap slot, and
// drain_idle() waiters are woken when the queued and running counts both
// reach 0.  A worker that finishes a job rescans every deque before it
// parks, so nothing else needs a wake.
//
// Shutdown (stop(drain)): new posts are rejected (their cancel handler runs
// immediately), queued INTERACTIVE and COLD jobs are cancelled — a serving
// drain job's cancel handler gives its drainer slot back — while queued
// MAINTENANCE jobs keep draining until
// the deadline, after which the stragglers are cancelled too.  Jobs already
// executing always run to completion (workers are joined).
//
// Lock ranks: every deque mutex and the idle-signal mutex rank kJobQueue
// (82) — above the serving-path leaves (kQueue=80), below kTokenState (84),
// so a flush job may resolve tokens after dropping all queue locks and any
// code holding a serving leaf may still legally post.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/thread_safety.hpp"

namespace gv {

enum class JobClass : std::uint8_t {
  kInteractive = 0,
  kCold = 1,
  kMaintenance = 2,
};
inline constexpr std::size_t kNumJobClasses = 3;

/// Fleet-wide fold of the per-worker counters (stats()).  EngineScope: the
/// counters behind this struct live in worker-local relaxed atomics — a
/// worker never touches a stats mutex on the execute/steal hot path; the
/// fold happens on the (rare) pull.
struct JobSystemStats {
  std::uint64_t executed[kNumJobClasses] = {0, 0, 0};
  std::uint64_t cancelled[kNumJobClasses] = {0, 0, 0};
  std::uint64_t stolen = 0;
  /// Steal scans that found no runnable job on any victim (stolen counts
  /// the hits; attempts = stolen + steal_misses).
  std::uint64_t steal_misses = 0;
  /// Park/unpark cycles: a worker parked when it found nothing runnable,
  /// and was woken by new work (or shutdown).
  std::uint64_t parks = 0;
  std::uint64_t unparks = 0;
};

/// Per-worker, per-lane probe snapshot (EngineProbe folds these into
/// labeled MetricsRegistry instruments).
struct JobWorkerSnapshot {
  std::uint64_t executed[kNumJobClasses] = {0, 0, 0};
  std::uint64_t steal_hits = 0;
  std::uint64_t steal_misses = 0;
  std::uint64_t parks = 0;
  std::uint64_t unparks = 0;
  /// Current and high-water queued depth per lane of this worker's deque.
  std::size_t depth[kNumJobClasses] = {0, 0, 0};
  std::size_t depth_high_water[kNumJobClasses] = {0, 0, 0};
};

class JobSystem {
 public:
  struct Job {
    std::function<void()> run;
    /// Invoked (instead of run) when the job is cancelled at shutdown or
    /// rejected after stop().  May be empty.
    std::function<void()> cancel;
    JobClass cls = JobClass::kInteractive;
  };

  /// `max_maintenance_in_flight == 0` means max(1, workers - 1).
  explicit JobSystem(std::size_t workers,
                     std::size_t max_maintenance_in_flight = 0);
  ~JobSystem();

  JobSystem(const JobSystem&) = delete;
  JobSystem& operator=(const JobSystem&) = delete;

  /// Enqueue a job.  After stop() the cancel handler (if any) runs inline
  /// and the job is counted cancelled.
  void post(JobClass cls, std::function<void()> run,
            std::function<void()> cancel = nullptr);

  /// Shut down: cancel queued interactive/cold work, drain queued
  /// maintenance until `drain` elapses, cancel the rest, join all workers.
  /// Idempotent.
  void stop(std::chrono::milliseconds drain = std::chrono::milliseconds(0));

  /// Block until every queued job has been executed (test/bench quiesce;
  /// does not prevent concurrent posts from re-filling the queues).
  void drain_idle();

  std::size_t num_workers() const { return workers_.size(); }
  std::size_t max_maintenance_in_flight() const { return maintenance_cap_; }
  JobSystemStats stats() const;

  /// Per-worker probe snapshots (one deque-lock acquisition per worker for
  /// the depth fields; counters are relaxed reads).  Pull path only.
  std::vector<JobWorkerSnapshot> worker_snapshots() const;
  /// Maintenance jobs executing right now / the most ever concurrent.
  std::size_t maintenance_in_flight() const {
    return maintenance_running_.load(std::memory_order_relaxed);
  }
  std::size_t maintenance_high_water() const {
    return maintenance_high_water_.load(std::memory_order_relaxed);
  }

 private:
  /// Fixed-capacity-after-warm-up ring buffer of jobs.  Owner pops the
  /// front (FIFO fairness for latency), thieves pop the back.
  class JobRing {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    void push_back(Job j);
    Job pop_front();
    Job pop_back();

   private:
    void grow();
    std::vector<Job> buf_;
    std::size_t head_ = 0;  // index of front
    std::size_t size_ = 0;
  };

  struct Worker {
    mutable Mutex mu GV_LOCK_RANK(gv::lockrank::kJobQueue){
        gv::lockrank::kJobQueue};
    JobRing lanes[kNumJobClasses] GV_GUARDED_BY(mu);
    /// High-water queued depth per lane (updated under mu on push — the
    /// lock is already held there, so this costs a compare).
    std::size_t depth_hw[kNumJobClasses] GV_GUARDED_BY(mu) = {0, 0, 0};
    std::thread thread;
    // xorshift steal-victim state, touched only by the owning thread.
    std::uint64_t rng = 0;
    // Worker-local telemetry: written by the owning thread only (relaxed
    // atomics so stats()/probe pulls may read concurrently).  No mutex is
    // ever taken to record a job execution or a steal.
    std::atomic<std::uint64_t> executed[kNumJobClasses]{};
    std::atomic<std::uint64_t> steal_hits{0};
    std::atomic<std::uint64_t> steal_misses{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> unparks{0};
  };

  void worker_loop(std::size_t self);
  /// Try to pop one runnable job anywhere (own lanes first, then steal).
  /// Returns false when nothing runnable exists right now.
  bool try_run_one(std::size_t self);
  bool pop_runnable(Worker& w, bool steal, Job* out, bool* reserved_maint)
      GV_REQUIRES(w.mu);
  void execute(Job job, bool reserved_maint, Worker& me);
  /// Bump the work signal and wake one parked worker (`all`: every one).
  void wake_workers(bool all);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t maintenance_cap_ = 1;
  std::atomic<std::size_t> maintenance_running_{0};
  std::atomic<std::size_t> maintenance_high_water_{0};
  std::atomic<std::size_t> next_post_{0};
  std::atomic<std::size_t> queued_total_{0};
  std::atomic<std::size_t> running_total_{0};
  std::atomic<bool> accepting_{true};

  mutable Mutex idle_mu_ GV_LOCK_RANK(gv::lockrank::kJobQueue){
      gv::lockrank::kJobQueue};
  CondVar idle_cv_;
  std::uint64_t work_signal_ GV_GUARDED_BY(idle_mu_) = 0;
  bool stopping_ GV_GUARDED_BY(idle_mu_) = false;

  /// Cancellations happen off the hot path (post-after-stop, shutdown
  /// sweeps), so plain shared atomics are fine here.
  std::atomic<std::uint64_t> cancelled_[kNumJobClasses]{};

  // Completion signal for drain_idle(): notified when the queued and
  // running counts both reach 0.
  CondVar drained_cv_;
};

}  // namespace gv
