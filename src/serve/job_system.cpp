#include "serve/job_system.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gv {

namespace {
// Which JobSystem (if any) owns the current thread, so posts from inside a
// job land on the posting worker's own deque (no cross-worker hop, no
// steal needed for the common produce-consume chain).
thread_local JobSystem* tls_system = nullptr;
thread_local std::size_t tls_worker = 0;
}  // namespace

// --- JobRing -----------------------------------------------------------------

void JobSystem::JobRing::grow() {
  const std::size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
  std::vector<Job> next(cap);
  for (std::size_t i = 0; i < size_; ++i) {
    next[i] = std::move(buf_[(head_ + i) % buf_.size()]);
  }
  buf_ = std::move(next);
  head_ = 0;
}

void JobSystem::JobRing::push_back(Job j) {
  if (size_ == buf_.size()) grow();
  buf_[(head_ + size_) % buf_.size()] = std::move(j);
  ++size_;
}

JobSystem::Job JobSystem::JobRing::pop_front() {
  Job j = std::move(buf_[head_]);
  head_ = (head_ + 1) % buf_.size();
  --size_;
  return j;
}

JobSystem::Job JobSystem::JobRing::pop_back() {
  Job j = std::move(buf_[(head_ + size_ - 1) % buf_.size()]);
  --size_;
  return j;
}

// --- JobSystem ---------------------------------------------------------------

JobSystem::JobSystem(std::size_t workers, std::size_t max_maintenance_in_flight) {
  const std::size_t n = std::max<std::size_t>(1, workers);
  maintenance_cap_ = max_maintenance_in_flight != 0
                         ? max_maintenance_in_flight
                         : std::max<std::size_t>(1, n - 1);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

JobSystem::~JobSystem() { stop(); }

void JobSystem::post(JobClass cls, std::function<void()> run,
                     std::function<void()> cancel) {
  const auto ci = static_cast<std::size_t>(cls);
  std::size_t target;
  if (tls_system == this) {
    target = tls_worker;
  } else {
    target = next_post_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  }
  bool accepted = false;
  {
    Worker& w = *workers_[target];
    MutexLock lock(w.mu);
    GV_RANK_SCOPE(lockrank::kJobQueue);
    // Checked under the deque lock: stop() flips accepting_ BEFORE sweeping
    // each deque under this same lock, so a post that lands after the sweep
    // is guaranteed to observe accepting_ == false here.
    if (accepting_.load(std::memory_order_acquire)) {
      Job j;
      j.run = std::move(run);
      j.cancel = std::move(cancel);
      j.cls = cls;
      w.lanes[ci].push_back(std::move(j));
      if (w.lanes[ci].size() > w.depth_hw[ci]) w.depth_hw[ci] = w.lanes[ci].size();
      queued_total_.fetch_add(1);
      accepted = true;
    }
  }
  if (!accepted) {
    if (cancel) cancel();
    cancelled_[ci].fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // One job needs one worker: waking every parked worker on every post
  // costs each of them a futile steal scan and a re-park.
  wake_workers(/*all=*/false);
}

bool JobSystem::pop_runnable(Worker& w, bool steal, Job* out,
                             bool* reserved_maint) {
  for (std::size_t c = 0; c < kNumJobClasses; ++c) {
    JobRing& lane = w.lanes[c];
    if (lane.empty()) continue;
    if (c == static_cast<std::size_t>(JobClass::kMaintenance)) {
      // Reserve a maintenance slot BEFORE popping so the cap is never
      // transiently exceeded across workers.
      std::size_t cur = maintenance_running_.load(std::memory_order_relaxed);
      bool got = false;
      while (cur < maintenance_cap_) {
        if (maintenance_running_.compare_exchange_weak(
                cur, cur + 1, std::memory_order_acq_rel)) {
          got = true;
          break;
        }
      }
      if (!got) continue;  // cap saturated: this lane is not runnable now
      *reserved_maint = true;
      // Cap-occupancy high-water (EngineProbe gauge); maintenance pops are
      // rare, so the CAS loop never spins in practice.
      std::size_t now = cur + 1;
      std::size_t hw = maintenance_high_water_.load(std::memory_order_relaxed);
      while (now > hw && !maintenance_high_water_.compare_exchange_weak(
                             hw, now, std::memory_order_relaxed)) {
      }
    }
    *out = steal ? lane.pop_back() : lane.pop_front();
    // Counted running before it stops being queued, so drain_idle() never
    // sees both counts at 0 while a job is between the two.
    running_total_.fetch_add(1);
    queued_total_.fetch_sub(1);
    return true;
  }
  return false;
}

bool JobSystem::try_run_one(std::size_t self) {
  Worker& me = *workers_[self];
  Job job;
  bool reserved = false;
  bool found = false;
  {
    MutexLock lock(me.mu);
    GV_RANK_SCOPE(lockrank::kJobQueue);
    found = pop_runnable(me, /*steal=*/false, &job, &reserved);
  }
  if (found) {
    execute(std::move(job), reserved, me);
    return true;
  }
  if (workers_.size() == 1) return false;
  // Steal: start at a random victim, fall back to scanning the rest.
  me.rng ^= me.rng << 13;
  me.rng ^= me.rng >> 7;
  me.rng ^= me.rng << 17;
  const std::size_t n = workers_.size();
  const std::size_t start = static_cast<std::size_t>(me.rng % n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = (start + k) % n;
    if (v == self) continue;
    Worker& victim = *workers_[v];
    {
      MutexLock lock(victim.mu);
      GV_RANK_SCOPE(lockrank::kJobQueue);
      found = pop_runnable(victim, /*steal=*/true, &job, &reserved);
    }
    if (found) {
      me.steal_hits.fetch_add(1, std::memory_order_relaxed);
      execute(std::move(job), reserved, me);
      return true;
    }
  }
  me.steal_misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void JobSystem::execute(Job job, bool reserved_maint, Worker& me) {
  try {
    if (job.run) job.run();
  } catch (...) {
    // Jobs own their error reporting (flush jobs fail their waiters); a
    // leaked exception must not take the worker down.
  }
  // Worker-local count: one relaxed add, no stats mutex on the hot path.
  // Counted before the job stops running, so drain_idle() callers see it.
  me.executed[static_cast<std::size_t>(job.cls)].fetch_add(
      1, std::memory_order_relaxed);
  if (reserved_maint) {
    maintenance_running_.fetch_sub(1, std::memory_order_acq_rel);
    // A freed maintenance-cap slot may make a queued maintenance job
    // runnable for a parked worker.
    wake_workers(/*all=*/false);
  }
  if (running_total_.fetch_sub(1) == 1 && queued_total_.load() == 0) {
    // Taking idle_mu_ orders this against a drain_idle() caller that has
    // checked the counts but not yet started waiting.
    MutexLock lock(idle_mu_);
    GV_RANK_SCOPE(lockrank::kJobQueue);
    drained_cv_.notify_all();
  }
}

void JobSystem::wake_workers(bool all) {
  {
    MutexLock lock(idle_mu_);
    GV_RANK_SCOPE(lockrank::kJobQueue);
    ++work_signal_;
  }
  if (all) {
    idle_cv_.notify_all();
  } else {
    idle_cv_.notify_one();
  }
}

void JobSystem::worker_loop(std::size_t self) {
  tls_system = this;
  tls_worker = self;
  Worker& me = *workers_[self];
  me.rng = 0x9e3779b97f4a7c15ull ^ (0xbf58476d1ce4e5b9ull * (self + 1));
  for (;;) {
    std::uint64_t seen;
    {
      MutexLock lock(idle_mu_);
      GV_RANK_SCOPE(lockrank::kJobQueue);
      seen = work_signal_;
    }
    if (try_run_one(self)) continue;
    MutexLock lock(idle_mu_);
    GV_RANK_SCOPE(lockrank::kJobQueue);
    bool parked = false;
    while (work_signal_ == seen && !stopping_) {
      if (!parked) {
        parked = true;
        me.parks.fetch_add(1, std::memory_order_relaxed);
      }
      idle_cv_.wait(idle_mu_);
    }
    if (parked) me.unparks.fetch_add(1, std::memory_order_relaxed);
    if (stopping_ && work_signal_ == seen) return;
    // stopping_ with a changed signal: drain whatever is still runnable
    // (the shutdown drain window) before exiting.
    if (stopping_) continue;
  }
}

void JobSystem::stop(std::chrono::milliseconds drain) {
  bool expected = true;
  if (!accepting_.compare_exchange_strong(expected, false)) return;

  // Phase 1: cancel queued INTERACTIVE and COLD work.  accepting_ is
  // already false, so post() cannot add to a lane after we sweep it.
  std::vector<Job> cancelled;
  for (auto& wp : workers_) {
    MutexLock lock(wp->mu);
    GV_RANK_SCOPE(lockrank::kJobQueue);
    for (std::size_t c = 0; c < 2; ++c) {
      JobRing& lane = wp->lanes[c];
      while (!lane.empty()) {
        cancelled.push_back(lane.pop_front());
        queued_total_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }

  // Phase 2: let queued MAINTENANCE drain, bounded by the deadline.
  const auto deadline = std::chrono::steady_clock::now() + drain;
  for (;;) {
    std::size_t queued_maint = 0;
    for (auto& wp : workers_) {
      MutexLock lock(wp->mu);
      GV_RANK_SCOPE(lockrank::kJobQueue);
      queued_maint +=
          wp->lanes[static_cast<std::size_t>(JobClass::kMaintenance)].size();
    }
    if (queued_maint == 0) break;
    if (std::chrono::steady_clock::now() >= deadline) break;
    wake_workers(/*all=*/true);  // keep every worker chewing
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  // Phase 3: cancel maintenance stragglers that missed the deadline.
  for (auto& wp : workers_) {
    MutexLock lock(wp->mu);
    GV_RANK_SCOPE(lockrank::kJobQueue);
    JobRing& lane = wp->lanes[static_cast<std::size_t>(JobClass::kMaintenance)];
    while (!lane.empty()) {
      cancelled.push_back(lane.pop_front());
      queued_total_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  for (auto& j : cancelled) {
    if (j.cancel) j.cancel();
  }
  for (const auto& j : cancelled) {
    cancelled_[static_cast<std::size_t>(j.cls)].fetch_add(
        1, std::memory_order_relaxed);
  }

  // Phase 4: wake everyone and join (in-flight jobs run to completion).
  {
    MutexLock lock(idle_mu_);
    GV_RANK_SCOPE(lockrank::kJobQueue);
    stopping_ = true;
    ++work_signal_;
  }
  idle_cv_.notify_all();
  for (auto& wp : workers_) {
    if (wp->thread.joinable()) wp->thread.join();
  }
  drained_cv_.notify_all();
}

void JobSystem::drain_idle() {
  MutexLock lock(idle_mu_);
  GV_RANK_SCOPE(lockrank::kJobQueue);
  while (queued_total_.load() != 0 || running_total_.load() != 0) {
    drained_cv_.wait(idle_mu_);
  }
}

JobSystemStats JobSystem::stats() const {
  JobSystemStats s;
  for (const auto& wp : workers_) {
    for (std::size_t c = 0; c < kNumJobClasses; ++c) {
      s.executed[c] += wp->executed[c].load(std::memory_order_relaxed);
    }
    s.stolen += wp->steal_hits.load(std::memory_order_relaxed);
    s.steal_misses += wp->steal_misses.load(std::memory_order_relaxed);
    s.parks += wp->parks.load(std::memory_order_relaxed);
    s.unparks += wp->unparks.load(std::memory_order_relaxed);
  }
  for (std::size_t c = 0; c < kNumJobClasses; ++c) {
    s.cancelled[c] = cancelled_[c].load(std::memory_order_relaxed);
  }
  return s;
}

std::vector<JobWorkerSnapshot> JobSystem::worker_snapshots() const {
  std::vector<JobWorkerSnapshot> out(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& w = *workers_[i];
    JobWorkerSnapshot& s = out[i];
    for (std::size_t c = 0; c < kNumJobClasses; ++c) {
      s.executed[c] = w.executed[c].load(std::memory_order_relaxed);
    }
    s.steal_hits = w.steal_hits.load(std::memory_order_relaxed);
    s.steal_misses = w.steal_misses.load(std::memory_order_relaxed);
    s.parks = w.parks.load(std::memory_order_relaxed);
    s.unparks = w.unparks.load(std::memory_order_relaxed);
    MutexLock lock(w.mu);
    GV_RANK_SCOPE(lockrank::kJobQueue);
    for (std::size_t c = 0; c < kNumJobClasses; ++c) {
      s.depth[c] = w.lanes[c].size();
      s.depth_high_water[c] = w.depth_hw[c];
    }
  }
  return out;
}

}  // namespace gv
