#include "serve/batch_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "obs/query_trace.hpp"

namespace gv {

MicroBatchQueue::MicroBatchQueue(std::size_t max_batch,
                                 std::chrono::microseconds max_wait,
                                 std::size_t drainers, PostDrainer post)
    : max_batch_(std::max<std::size_t>(1, max_batch)),
      max_wait_(max_wait),
      post_(std::move(post)) {
  GV_CHECK(static_cast<bool>(post_), "MicroBatchQueue needs a drainer poster");
  index_.reserve(64);
  const std::size_t n = std::max<std::size_t>(1, drainers);
  free_drainers_.reserve(n);
  // Stacked so that drainer 0 is claimed first.
  for (std::size_t d = n; d-- > 0;) {
    free_drainers_.push_back(static_cast<std::uint32_t>(d));
  }
  if (max_wait_.count() > 0) timer_ = std::thread([this] { timer_loop(); });
}

MicroBatchQueue::~MicroBatchQueue() { stop(); }

void MicroBatchQueue::Batch::size_for(std::size_t max_batch) {
  if (entries.size() >= max_batch) return;
  entries.reserve(max_batch);
  while (entries.size() < max_batch) {
    entries.emplace_back();
    entries.back().waiters.reserve(1);
  }
}

std::uint32_t MicroBatchQueue::acquire_slot_locked() {
  if (free_head_ == kNone) {
    // Warm-up growth; recycled slots keep the slab stable afterwards.  The
    // new slot's waiter vector gets room for one waiter, like every batch
    // entry it will swap with.
    slots_.emplace_back();
    slots_.back().entry.waiters.reserve(1);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t idx = free_head_;
  free_head_ = slots_[idx].next;
  --free_slot_count_;
  return idx;
}

void MicroBatchQueue::release_slot_locked(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.entry.waiters.clear();  // capacity retained for the next occupant
  s.prev = kNone;
  s.next = free_head_;
  free_head_ = idx;
  ++free_slot_count_;
}

bool MicroBatchQueue::submit_locked(std::uint32_t node,
                                    const Sha256Digest& digest,
                                    TokenState* waiter) {
  const auto it = index_.find(node);
  if (it != index_.end() && slots_[it->second].entry.digest == digest) {
    // Same node, same feature snapshot: ride the existing slot.
    slots_[it->second].entry.waiters.push_back(waiter);
    return true;
  }
  const std::uint32_t idx = acquire_slot_locked();
  Slot& s = slots_[idx];
  s.entry.node = node;
  s.entry.digest = digest;
  s.entry.waiters.push_back(waiter);
  s.entry.enqueued = std::chrono::steady_clock::now();
  s.entry.query_id = next_query_id();
  // Append to the FIFO tail.
  s.next = kNone;
  s.prev = tail_;
  if (tail_ != kNone) {
    slots_[tail_].next = idx;
  } else {
    head_ = idx;
  }
  tail_ = idx;
  ++size_;
  if (size_ > depth_hw_) depth_hw_ = size_;
  // Point the index at the newest entry for this node (a digest mismatch
  // means the features changed between the two submissions; the stale
  // entry simply stops coalescing).
  if (it != index_.end()) {
    it->second = idx;
  } else {
    index_.emplace(node, idx);
  }
  return false;
}

bool MicroBatchQueue::due_locked() const {
  if (size_ == 0) return false;
  if (max_wait_.count() <= 0 || flush_requested_ || size_ >= max_batch_) {
    return true;
  }
  return std::chrono::steady_clock::now() >=
         slots_[head_].entry.enqueued + max_wait_;
}

std::uint32_t MicroBatchQueue::claim_locked() {
  if (free_drainers_.empty()) return kNone;
  const std::uint32_t drainer = free_drainers_.back();
  free_drainers_.pop_back();
  return drainer;
}

std::uint32_t MicroBatchQueue::after_enqueue_locked(bool was_empty,
                                                    bool* wake_timer) {
  const std::uint32_t drainer = due_locked() ? claim_locked() : kNone;
  // A first entry gives the timer a deadline to sleep towards.
  *wake_timer = drainer == kNone && was_empty && max_wait_.count() > 0;
  return drainer;
}

bool MicroBatchQueue::submit(std::uint32_t node, const Sha256Digest& digest,
                             TokenState* waiter) {
  bool coalesced = false;
  bool wake_timer = false;
  std::uint32_t drainer = kNone;
  {
    MutexLock lock(mu_);
    GV_RANK_SCOPE(lockrank::kQueue);
    GV_CHECK(!stopping_, "queue is shutting down");
    const bool was_empty = size_ == 0;
    coalesced = submit_locked(node, digest, waiter);
    drainer = after_enqueue_locked(was_empty, &wake_timer);
  }
  if (wake_timer) cv_.notify_one();
  if (drainer != kNone) post_(drainer);
  return coalesced;
}

std::size_t MicroBatchQueue::submit_many(
    std::span<const std::uint32_t> nodes,
    std::span<const Sha256Digest> digests,
    std::span<TokenState* const> waiters) {
  GV_CHECK(nodes.size() == digests.size() && nodes.size() == waiters.size(),
           "submit_many spans must be parallel");
  std::size_t coalesced = 0;
  bool wake_timer = false;
  std::uint32_t drainer = kNone;
  {
    // The whole client batch rides ONE lock acquisition and claims at most
    // one drainer.
    MutexLock lock(mu_);
    GV_RANK_SCOPE(lockrank::kQueue);
    GV_CHECK(!stopping_, "queue is shutting down");
    const bool was_empty = size_ == 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (submit_locked(nodes[i], digests[i], waiters[i])) ++coalesced;
    }
    drainer = after_enqueue_locked(was_empty, &wake_timer);
  }
  if (wake_timer) cv_.notify_one();
  if (drainer != kNone) post_(drainer);
  return coalesced;
}

bool MicroBatchQueue::pop_due(std::size_t drainer, Batch* out) {
  out->count = 0;
  out->size_for(max_batch_);
  bool wake_timer = false;
  {
    MutexLock lock(mu_);
    GV_RANK_SCOPE(lockrank::kQueue);
    if (due_locked()) {
      const std::size_t take = std::min(size_, max_batch_);
      for (std::size_t i = 0; i < take; ++i) {
        const std::uint32_t idx = head_;
        Slot& s = slots_[idx];
        const auto it = index_.find(s.entry.node);
        if (it != index_.end() && it->second == idx) index_.erase(it);
        Entry& dst = out->entries[i];
        dst.node = s.entry.node;
        dst.digest = s.entry.digest;
        dst.enqueued = s.entry.enqueued;
        dst.query_id = s.entry.query_id;
        // Swap waiter vectors: the slot inherits the batch entry's retained
        // capacity, the batch entry takes the waiters — capacities circulate
        // between slab and batch pool without ever hitting the heap.
        dst.waiters.swap(s.entry.waiters);
        head_ = s.next;
        if (head_ != kNone) {
          slots_[head_].prev = kNone;
        } else {
          tail_ = kNone;
        }
        release_slot_locked(idx);
        --size_;
      }
      out->count = take;
      if (size_ == 0) flush_requested_ = false;
      return true;
    }
    free_drainers_.push_back(static_cast<std::uint32_t>(drainer));
    // The timer may be waiting for a slot to come back, or for a deadline
    // of an entry this drainer just popped: either way it must recompute
    // from the current head.
    wake_timer = size_ != 0 && max_wait_.count() > 0;
  }
  if (wake_timer) cv_.notify_one();
  return false;
}

void MicroBatchQueue::release_drainer(std::size_t drainer) {
  {
    MutexLock lock(mu_);
    GV_RANK_SCOPE(lockrank::kQueue);
    free_drainers_.push_back(static_cast<std::uint32_t>(drainer));
  }
  cv_.notify_one();
}

void MicroBatchQueue::timer_loop() {
  for (;;) {
    std::uint32_t drainer = kNone;
    {
      MutexLock lock(mu_);
      GV_RANK_SCOPE(lockrank::kQueue);
      while (drainer == kNone) {
        if (stopping_) return;
        if (size_ == 0) {
          cv_.wait(mu_);
        } else if (!due_locked()) {
          // Recomputed from the current head on every wake-up: a fresh
          // entry behind a drained batch gets its own full wait.
          cv_.wait_until(mu_, slots_[head_].entry.enqueued + max_wait_);
        } else {
          drainer = claim_locked();
          // Every drainer is claimed: each pops what is due before giving
          // its slot back, and a give-back wakes this loop.
          if (drainer == kNone) cv_.wait(mu_);
        }
      }
    }
    post_(drainer);
  }
}

void MicroBatchQueue::flush() {
  std::uint32_t drainer = kNone;
  {
    MutexLock lock(mu_);
    GV_RANK_SCOPE(lockrank::kQueue);
    if (size_ == 0) return;
    flush_requested_ = true;
    drainer = claim_locked();
  }
  if (drainer != kNone) post_(drainer);
}

void MicroBatchQueue::stop() {
  std::vector<TokenState*> orphans;
  {
    MutexLock lock(mu_);
    GV_RANK_SCOPE(lockrank::kQueue);
    if (stopping_) return;
    stopping_ = true;
    for (std::uint32_t idx = head_; idx != kNone;) {
      Slot& s = slots_[idx];
      for (TokenState* w : s.entry.waiters) orphans.push_back(w);
      const std::uint32_t next = s.next;
      release_slot_locked(idx);
      idx = next;
    }
    head_ = tail_ = kNone;
    size_ = 0;
    index_.clear();
  }
  cv_.notify_all();
  // Entries that never made it into a batch must not die silently when the
  // queue is destroyed: fail their waiters with an explicit shutdown error
  // they can report.
  const auto err = std::make_exception_ptr(Error("server shutting down"));
  for (TokenState* w : orphans) w->fail(err);
  if (timer_.joinable()) timer_.join();
}

std::size_t MicroBatchQueue::pending() const {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kQueue);
  return size_;
}

std::size_t MicroBatchQueue::depth_high_water() const {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kQueue);
  return depth_hw_;
}

std::size_t MicroBatchQueue::slot_capacity() const {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kQueue);
  return slots_.size();
}

std::size_t MicroBatchQueue::free_slots() const {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kQueue);
  return free_slot_count_;
}

std::size_t MicroBatchQueue::index_size() const {
  MutexLock lock(mu_);
  GV_RANK_SCOPE(lockrank::kQueue);
  return index_.size();
}

}  // namespace gv
