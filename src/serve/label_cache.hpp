// LRU cache of served labels.
//
// A GNN label depends on the node's (private) multi-hop neighbourhood, not
// just its own feature row, so the node id must be part of the key.  Each
// entry additionally stores a SHA-256 digest of the node's feature row: a
// lookup whose digest no longer matches is treated as a miss and evicted,
// so a label never outlives a change to its own row.  A feature update
// keeps the entries of unchanged rows (invalidate_stale), even though a
// changed neighbour can change their labels; callers that need strict
// freshness clear() instead.  Thread-safe — the server's worker threads
// fill it while request threads probe it.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/annotations.hpp"
#include "common/arena.hpp"
#include "sgxsim/sha256.hpp"
#include "tensor/csr.hpp"

namespace gv {

/// Digest of row `row` of a sparse feature matrix (column indices + values).
Sha256Digest feature_row_digest(const CsrMatrix& features, std::uint32_t row);

class LabelCache {
 public:
  /// `capacity` = maximum resident entries; 0 disables the cache entirely.
  explicit LabelCache(std::size_t capacity) : capacity_(capacity) {
    // Bucket growth is a warm-up event, not a steady-state one: the map
    // never holds more than `capacity` keys.
    if (capacity_ > 0) index_.reserve(capacity_);
  }

  /// Look up a node's label; moves the entry to the front on a hit.
  /// A digest mismatch (stale features) evicts the entry and misses.
  std::optional<std::uint32_t> get(std::uint32_t node, const Sha256Digest& digest);

  /// Insert/refresh an entry, evicting the least recently used if full.
  void put(std::uint32_t node, const Sha256Digest& digest, std::uint32_t label);

  /// Feature-update sweep: evict every entry whose stored digest no longer
  /// matches its node's row in `features`.  Entries for untouched rows stay
  /// resident — the deliberate locality approximation of the digest scheme
  /// (a label also depends on the multi-hop neighbourhood's features; a
  /// caller that changed many rows and wants strict freshness should
  /// clear() instead).  Returns the number of evicted entries.
  std::size_t invalidate_stale(const CsrMatrix& features);

  /// Graph-update sweep: evict the entries of exactly these nodes.  A graph
  /// mutation changes labels through the (private) neighbourhood while the
  /// feature rows — and therefore the digests — stay put, so the digest
  /// scheme cannot catch it; the caller passes the delta-derived affected
  /// set instead.  Returns the number of evicted entries.
  std::size_t invalidate_nodes(std::span<const std::uint32_t> nodes);

  void clear();
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }

 private:
  struct Entry {
    std::uint32_t node;
    Sha256Digest digest;
    std::uint32_t label;
  };

  // Node-recycling allocators (common/arena.hpp): the evict-one/insert-one
  // churn of a full cache — and the erase/insert traffic of the stale-digest
  // sweeps — round-trips through a free list instead of the heap, keeping
  // the serving path allocation-free after warm-up.
  using Lru = std::list<Entry, RecyclingAllocator<Entry>>;
  using Index = std::unordered_map<
      std::uint32_t, Lru::iterator, std::hash<std::uint32_t>,
      std::equal_to<std::uint32_t>,
      RecyclingAllocator<std::pair<const std::uint32_t, Lru::iterator>>>;

  std::size_t capacity_;
  mutable std::mutex mu_ GV_LOCK_RANK(gv::lockrank::kQueue);
  Lru lru_;  // front = most recently used
  Index index_;
};

}  // namespace gv
