// Arena and recycling allocators for the serving hot path.
//
// The JobServe serving core promises ZERO heap allocations per warm lookup
// after warm-up (ROADMAP "allocations per lookup -> 0").  Three pieces make
// that true, all of them here:
//
//   Arena              chunked bump allocator.  allocate() carves from the
//                      current block; reset() rewinds to empty but RETAINS
//                      every block, so a steady-state workload stops
//                      touching the heap once the high-water mark is
//                      reached.  One Arena rides inside every pooled batch
//                      (MicroBatchQueue::Batch) and scratches the flush
//                      path's node/label/digest arrays.
//
//   ArenaAllocator<T>  std-allocator adapter over an Arena for containers
//                      whose lifetime is one batch.  deallocate() is a
//                      no-op; reset() reclaims everything at once.
//
//   RecyclingAllocator<T>
//                      std-allocator for LONG-LIVED node-based containers
//                      (the micro-batch queue's coalescing index, the LRU
//                      label-cache index) whose size oscillates around a
//                      steady state.  Single-element deallocations push the
//                      node onto a per-container free list keyed by size
//                      class; the next allocation of that size pops it —
//                      erase/insert churn stops hitting operator new once
//                      the container has seen its peak size.  Multi-element
//                      allocations (hash bucket arrays) pass through to the
//                      heap: they only ever churn on rehash, which a
//                      reserve() at construction makes a warm-up-only
//                      event.
//
// None of these are thread-safe; each instance belongs to one batch, one
// worker, or one externally synchronized container.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace gv {

class Arena {
 public:
  /// `first_block_bytes` sizes the first block; later blocks double until
  /// kMaxBlockBytes (oversized requests get a dedicated block).
  explicit Arena(std::size_t first_block_bytes = 4096)
      : next_block_bytes_(first_block_bytes < 64 ? 64 : first_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocate the first block now (at least `bytes`), so an owner that
  /// knows its per-use scratch size makes even its first use heap-free.
  /// No-op once the arena holds a block.
  void reserve(std::size_t bytes) {
    if (blocks_.empty()) add_block(bytes);
  }

  void* allocate(std::size_t bytes, std::size_t align) {
    GV_CHECK(align != 0 && (align & (align - 1)) == 0,
             "arena alignment must be a power of two");
    if (bytes == 0) bytes = 1;
    while (cur_ < blocks_.size()) {
      Block& b = blocks_[cur_];
      const std::size_t aligned = aligned_offset(b, align);
      if (aligned + bytes <= b.size) {
        b.used = aligned + bytes;
        return b.data.get() + aligned;
      }
      // Block exhausted for this request: move on (its tail stays unused
      // until the next reset; blocks double, so the waste is bounded).
      ++cur_;
    }
    add_block(bytes + align);
    Block& b = blocks_[cur_];
    const std::size_t aligned = aligned_offset(b, align);
    b.used = aligned + bytes;
    return b.data.get() + aligned;
  }

  /// Typed array of `n` default-initialized elements.  Restricted to
  /// trivially destructible types: reset() never runs destructors.
  template <typename T>
  std::span<T> alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    if (n == 0) return {};
    T* p = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < n; ++i) ::new (static_cast<void*>(p + i)) T();
    return {p, n};
  }

  /// Rewind to empty, retaining every block for reuse.  Also folds the
  /// rewound usage into the high-water mark (EngineScope occupancy gauge):
  /// the loop already walks every block, so tracking costs one add/compare
  /// per block on a cool path.
  void reset() {
    std::size_t used = 0;
    for (auto& b : blocks_) {
      used += b.used;
      b.used = 0;
    }
    if (used > bytes_high_water_) bytes_high_water_ = used;
    cur_ = 0;
  }

  /// Bytes handed out since the last reset.
  std::size_t bytes_used() const {
    std::size_t sum = 0;
    for (const auto& b : blocks_) sum += b.used;
    return sum;
  }
  /// Bytes held across resets (the high-water footprint).
  std::size_t bytes_reserved() const {
    std::size_t sum = 0;
    for (const auto& b : blocks_) sum += b.size;
    return sum;
  }
  std::size_t num_blocks() const { return blocks_.size(); }
  /// Largest bytes_used() observed at a reset() (live usage between resets
  /// is not folded in until the next reset).
  std::size_t bytes_high_water() const {
    const std::size_t used = bytes_used();
    return used > bytes_high_water_ ? used : bytes_high_water_;
  }

 private:
  static constexpr std::size_t kMaxBlockBytes = std::size_t{1} << 20;

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  /// First block offset >= b.used whose ABSOLUTE address is align-aligned
  /// (block bases only carry the default operator-new alignment).
  static std::size_t aligned_offset(const Block& b, std::size_t align) {
    const auto base = reinterpret_cast<std::uintptr_t>(b.data.get());
    const std::uintptr_t p =
        (base + b.used + align - 1) & ~(static_cast<std::uintptr_t>(align) - 1);
    return static_cast<std::size_t>(p - base);
  }

  void add_block(std::size_t at_least) {
    std::size_t size = next_block_bytes_;
    if (size < at_least) size = at_least;
    if (next_block_bytes_ < kMaxBlockBytes) next_block_bytes_ *= 2;
    blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size, 0});
    cur_ = blocks_.size() - 1;
  }

  std::vector<Block> blocks_;
  std::size_t cur_ = 0;
  std::size_t next_block_bytes_;
  std::size_t bytes_high_water_ = 0;
};

/// std-allocator adapter over an Arena (per-batch container lifetime).
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena& arena) : arena_(&arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) {}  // reclaimed wholesale by reset()

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& o) const {
    return arena_ == o.arena();
  }

 private:
  Arena* arena_;
};

namespace detail {

/// Size-classed free lists shared by one container's allocator rebinds.
/// Freed single-element blocks are threaded through their own storage.
struct RecyclePool {
  struct SizeClass {
    std::size_t bytes = 0;
    void* head = nullptr;
  };
  // A container instantiates at most a couple of node types; linear scan
  // over an inline vector beats any map here.
  std::vector<SizeClass> classes;

  void* pop(std::size_t bytes) {
    for (auto& c : classes) {
      if (c.bytes == bytes && c.head != nullptr) {
        void* p = c.head;
        c.head = *static_cast<void**>(p);
        return p;
      }
    }
    return nullptr;
  }

  void push(std::size_t bytes, void* p) {
    for (auto& c : classes) {
      if (c.bytes == bytes) {
        *static_cast<void**>(p) = c.head;
        c.head = p;
        return;
      }
    }
    classes.push_back(SizeClass{bytes, nullptr});
    *static_cast<void**>(p) = nullptr;
    classes.back().head = p;
  }

  ~RecyclePool() {
    for (auto& c : classes) {
      while (c.head != nullptr) {
        void* next = *static_cast<void**>(c.head);
        ::operator delete(c.head);
        c.head = next;
      }
    }
  }
};

}  // namespace detail

/// Recycles single-node allocations of long-lived node-based containers.
/// Copies (and rebinds) share one pool, so a container's internal node
/// churn — erase here, insert there — reuses memory instead of round-
/// tripping through the heap.
template <typename T>
class RecyclingAllocator {
 public:
  using value_type = T;

  RecyclingAllocator() : pool_(std::make_shared<detail::RecyclePool>()) {}
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>& other) : pool_(other.pool()) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = node_bytes(n);
    if (n == 1) {
      if (void* p = pool_->pop(bytes)) return static_cast<T*>(p);
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) {
    if (n == 1) {
      pool_->push(node_bytes(1), p);
      return;
    }
    ::operator delete(p);
  }

  const std::shared_ptr<detail::RecyclePool>& pool() const { return pool_; }

  template <typename U>
  bool operator==(const RecyclingAllocator<U>& o) const {
    return pool_ == o.pool();
  }

 private:
  static std::size_t node_bytes(std::size_t n) {
    // Freed blocks store the free-list next pointer in-place.
    const std::size_t raw = n * sizeof(T);
    return raw < sizeof(void*) ? sizeof(void*) : raw;
  }

  std::shared_ptr<detail::RecyclePool> pool_;
};

}  // namespace gv
