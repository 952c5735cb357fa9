// MicroBatchQueue: the dynamic micro-batching queue at the heart of the
// JobServe ServeFrontEnd.
//
// Requests accumulate until the batch is full or the oldest request's
// deadline passes (or a flush/shutdown short-circuits the wait).  Duplicate
// in-flight queries for the SAME node (and feature digest) coalesce onto
// one entry: the node occupies one slot in the flushed batch — one share of
// one ecall — and the result fans out to every waiting token.  Hot nodes
// (the celebrity-profile lookup every feed is rendering) therefore cost one
// enclave computation per flush instead of one per caller.
//
// JobServe redesign notes:
//   * Waiters are pooled TokenState pointers (serve/submit_token.hpp), not
//     std::promise values: enqueuing allocates nothing.
//   * Entries live in a stable SLOT SLAB threaded onto an intrusive FIFO
//     list plus an index free list; slots recycle, and their waiter vectors
//     keep their capacity across recycles — after warm-up a submit touches
//     zero heap.
//   * submit_many() enqueues an entire client batch under ONE lock
//     acquisition (the old front ends paid N lock round-trips).
//   * next_batch() fills a caller-owned pooled Batch (swapping waiter
//     vector capacities with the slots) instead of returning a fresh
//     std::vector of entries.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
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

  /// One flushed micro-batch.  Pooled by the ServeFrontEnd: entries are
  /// pre-sized to max_batch and recycle their waiter-vector capacity, and
  /// the embedded arena scratches the flush path (reset per flush, blocks
  /// retained).
  struct Batch {
    /// Grow to `max_batch` entries, each with room for one waiter.  Waiter
    /// vectors circulate between slots and entries by swap (next_batch),
    /// so one entering with zero capacity would make a later submit
    /// allocate; sizing at creation keeps a batch first used after
    /// warm-up heap-free.
    void size_for(std::size_t max_batch);

    std::vector<Entry> entries;  // [0, count) valid
    std::size_t count = 0;
    Arena arena;
    /// Arena figures last pushed to the EngineProbe gauges for this batch
    /// (ServeFrontEnd::release_batch publishes deltas only when they moved
    /// — which stops happening once the arena reaches steady state).
    std::size_t published_reserved = 0;
    std::size_t published_blocks = 0;
    std::size_t published_high_water = 0;
  };

  MicroBatchQueue(std::size_t max_batch, std::chrono::microseconds max_wait);

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

  /// Block until a batch is ready and pop it into `out` (at most max_batch
  /// entries; `out` is sized on first use and recycled after).
  /// Returns false only when the queue is stopped — the dispatcher's exit
  /// condition.
  bool next_batch(Batch* out);

  /// Flush pending entries without waiting for the deadline.
  void flush();
  /// Reject new submissions and wake every waiting worker.  Entries still
  /// queued (never popped into a batch) have their waiters failed with an
  /// explicit "server shutting down" gv::Error — never a silent drop.
  void stop();

  /// Queued (unflushed) entries; coalesced duplicates count once.
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

  const std::size_t max_batch_;
  const std::chrono::microseconds max_wait_;

  mutable Mutex mu_ GV_LOCK_RANK(gv::lockrank::kQueue){gv::lockrank::kQueue};
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
  bool stopping_ GV_GUARDED_BY(mu_) = false;
  bool flush_requested_ GV_GUARDED_BY(mu_) = false;
};

}  // namespace gv
