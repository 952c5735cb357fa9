// MicroBatchQueue: the work-conserving micro-batching queue at the heart of
// the JobServe ServeFrontEnd.
//
// A queued request is cut into a batch as soon as a drainer can run it.
// There are at most `drainers` drainers (one per JobSystem worker); each is
// a drain job that pops DUE batches (at most max_batch entries each) and
// runs them back to back, and gives its slot back once nothing is due.
// While every drainer is busy, new requests pile up and coalesce, so a
// batch grows exactly as far as the workers have fallen behind.
//
// An entry is due when the batch is full, when `max_wait` has passed since
// the oldest entry was enqueued, or after flush().  With the default
// max_wait of 0 every entry is due on arrival.  A positive max_wait keeps
// requests queued for up to that long to batch them; a deadline timer
// thread (started only then) sleeps until the oldest entry is due and posts
// a drainer for it.  The deadline is recomputed from the current oldest
// entry on every wake-up, so a fresh entry always gets its own full wait.
//
// Whoever makes an entry due — submit(), submit_many(), flush() or the
// timer — claims a free drainer slot under the queue lock and calls the
// `post` callback after unlocking.  A drainer gives its slot back under the
// same lock only when nothing is due, so a due entry is never left queued
// with no drainer coming.
//
// Duplicate in-flight queries for the SAME node (and feature digest)
// coalesce onto one entry: the node occupies one slot in the batch — one
// share of one ecall — and the result fans out to every waiting token.
//
// Allocation: waiters are pooled TokenState pointers (serve/submit_token.hpp);
// entries live in a stable slot slab threaded onto an intrusive FIFO list
// plus an index free list, and their waiter vectors keep their capacity
// across recycles; pop_due() fills a caller-owned pooled Batch by swapping
// waiter vectors.  After warm-up neither submitting nor draining touches
// the heap.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/arena.hpp"
#include "common/thread_safety.hpp"
#include "serve/submit_token.hpp"
#include "sgxsim/sha256.hpp"

namespace gv {

class MicroBatchQueue {
 public:
  struct Entry {
    std::uint32_t node = 0;
    Sha256Digest digest{};
    /// All tokens waiting on this node (>= 1; > 1 when coalesced).  The
    /// queue owns their producer references until the entry is popped into
    /// a batch (or failed by stop()).
    std::vector<TokenState*> waiters;
    std::chrono::steady_clock::time_point enqueued;
    /// QueryLens causal-trace id, allocated at enqueue; coalesced waiters
    /// ride the slot's id (one ecall share, one causal chain).
    std::uint64_t query_id = 0;
  };

  /// One popped micro-batch.  Pooled by the ServeFrontEnd (one per drainer
  /// slot): entries are pre-sized to max_batch and recycle their
  /// waiter-vector capacity, and the embedded arena scratches the flush
  /// path (reset per flush, blocks retained).
  struct Batch {
    /// Grow to `max_batch` entries, each with room for one waiter.  Waiter
    /// vectors circulate between slots and entries by swap (pop_due), so
    /// one entering with zero capacity would make a later submit allocate;
    /// sizing at creation keeps a batch first used after warm-up heap-free.
    void size_for(std::size_t max_batch);

    std::vector<Entry> entries;  // [0, count) valid
    std::size_t count = 0;
    Arena arena;
    /// Arena figures last pushed to the EngineProbe gauges for this batch
    /// (ServeFrontEnd publishes deltas only when they moved — which stops
    /// happening once the arena reaches steady state).
    std::size_t published_reserved = 0;
    std::size_t published_blocks = 0;
    std::size_t published_high_water = 0;
  };

  /// Starts a drain job for the claimed drainer slot `drainer` (in
  /// [0, drainers)).  Called without the queue lock held, on the thread
  /// that made an entry due.  The job must call pop_due(drainer, ...) until
  /// it returns false, or release_drainer(drainer) if it never runs.
  using PostDrainer = std::function<void(std::size_t drainer)>;

  MicroBatchQueue(std::size_t max_batch, std::chrono::microseconds max_wait,
                  std::size_t drainers, PostDrainer post);
  /// stop(): fails queued waiters and joins the deadline timer.
  ~MicroBatchQueue();

  MicroBatchQueue(const MicroBatchQueue&) = delete;
  MicroBatchQueue& operator=(const MicroBatchQueue&) = delete;

  /// Enqueue a waiter, taking ownership of its producer reference.  Returns
  /// true when it coalesced onto an already queued entry for the same
  /// (node, digest).  Throws gv::Error after stop() — the caller keeps the
  /// producer reference in that case.
  bool submit(std::uint32_t node, const Sha256Digest& digest,
              TokenState* waiter);

  /// Enqueue a whole client batch under one lock acquisition.  Returns the
  /// number of waiters that coalesced.  Throws gv::Error after stop()
  /// without consuming any producer reference.
  std::size_t submit_many(std::span<const std::uint32_t> nodes,
                          std::span<const Sha256Digest> digests,
                          std::span<TokenState* const> waiters);

  /// Drainer body: pop the oldest due entries (at most max_batch) into
  /// `out` and return true; when nothing is due, give the slot back and
  /// return false.  `out` is sized on first use and recycled after.
  bool pop_due(std::size_t drainer, Batch* out);
  /// Give back the slot of a drain job that never ran (cancelled at
  /// shutdown).
  void release_drainer(std::size_t drainer);

  /// Make every pending entry due now.
  void flush();
  /// Reject new submissions, fail every queued waiter with an explicit
  /// "server shutting down" gv::Error — never a silent drop — and join the
  /// deadline timer.  Idempotent.
  void stop();

  /// Queued (not yet popped) entries; coalesced duplicates count once.
  std::size_t pending() const;
  /// Most entries ever queued at once (EngineScope depth gauge).
  std::size_t depth_high_water() const;
  /// Slot-slab occupancy (EngineScope): total slots ever allocated, slots
  /// on the free list, and live coalescing-index entries.
  std::size_t slot_capacity() const;
  std::size_t free_slots() const;
  std::size_t index_size() const;

  std::size_t max_batch() const { return max_batch_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Slab slot: an Entry plus intrusive FIFO links.  `next` doubles as the
  /// free-list link when the slot is unused.
  struct Slot {
    Entry entry;
    std::uint32_t next = kNone;
    std::uint32_t prev = kNone;
  };

  std::uint32_t acquire_slot_locked() GV_REQUIRES(mu_);
  void release_slot_locked(std::uint32_t idx) GV_REQUIRES(mu_);
  bool submit_locked(std::uint32_t node, const Sha256Digest& digest,
                     TokenState* waiter) GV_REQUIRES(mu_);
  bool due_locked() const GV_REQUIRES(mu_);
  /// A free drainer slot, or kNone when every drainer is claimed.
  std::uint32_t claim_locked() GV_REQUIRES(mu_);
  /// After an enqueue: claim a drainer for a due head, or wake the timer
  /// when the queue just stopped being empty.
  std::uint32_t after_enqueue_locked(bool was_empty, bool* wake_timer)
      GV_REQUIRES(mu_);
  void timer_loop();

  const std::size_t max_batch_;
  const std::chrono::microseconds max_wait_;
  const PostDrainer post_;

  mutable Mutex mu_ GV_LOCK_RANK(gv::lockrank::kQueue){gv::lockrank::kQueue};
  /// Wakes the deadline timer (only waiter).
  CondVar cv_;
  /// Stable slot slab; grows during warm-up only (index-addressed, so
  /// vector reallocation is safe).
  std::vector<Slot> slots_ GV_GUARDED_BY(mu_);
  std::uint32_t free_head_ GV_GUARDED_BY(mu_) = kNone;
  std::uint32_t head_ GV_GUARDED_BY(mu_) = kNone;  // FIFO front (oldest)
  std::uint32_t tail_ GV_GUARDED_BY(mu_) = kNone;
  std::size_t size_ GV_GUARDED_BY(mu_) = 0;
  std::size_t depth_hw_ GV_GUARDED_BY(mu_) = 0;
  std::size_t free_slot_count_ GV_GUARDED_BY(mu_) = 0;
  /// node -> its newest queued slot (coalescing index); node-recycling
  /// allocator so erase/insert churn stays heap-free after warm-up.
  std::unordered_map<std::uint32_t, std::uint32_t, std::hash<std::uint32_t>,
                     std::equal_to<std::uint32_t>,
                     RecyclingAllocator<std::pair<const std::uint32_t,
                                                  std::uint32_t>>>
      index_ GV_GUARDED_BY(mu_);
  /// Unclaimed drainer slots (capacity reserved for all of them, so a
  /// give-back never allocates).
  std::vector<std::uint32_t> free_drainers_ GV_GUARDED_BY(mu_);
  bool stopping_ GV_GUARDED_BY(mu_) = false;
  bool flush_requested_ GV_GUARDED_BY(mu_) = false;

  /// Deadline timer; runs only when max_wait > 0.
  std::thread timer_;
};

}  // namespace gv
