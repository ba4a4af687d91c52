// Sharded LRU page cache with a byte budget.
//
// The cache is *the* memory knob of MicroNN's disk-resident design (paper
// §2.2.1, Figures 5/8: the Small/Large device profiles differ in cache
// budget). Entries are keyed by (page id, version) where version is the WAL
// frame that produced the page image (0 = main file), so readers at
// different snapshots never see each other's versions.
//
// The cache is split into shards, each with its own mutex, LRU list, and
// slice of the byte budget, so concurrent snapshot readers do not contend
// on a single lock (the pre-shard design serialized every page lookup in
// the scan hot path). A page's versions all live in one shard — sharding
// is by page id — which keeps InvalidatePage a single-shard operation.
// The shard count is fixed at construction and scales with the budget
// (tiny caches — a handful of pages — get a single shard so eviction is
// exact global LRU; production-sized budgets get a wide shard fan-out).
// Hits, misses and evictions are reported through IoStats.
#ifndef MICRONN_STORAGE_PAGE_CACHE_H_
#define MICRONN_STORAGE_PAGE_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>

#include "common/memory_tracker.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace micronn {

/// Thread-safe sharded LRU cache of immutable page images.
class PageCache {
 public:
  static constexpr size_t kMaxShards = 64;  // power of two
  // A shard only pulls its weight when its budget slice holds at least
  // this many pages; below that, fewer shards with exact LRU win.
  static constexpr size_t kMinPagesPerShard = 8;
  // Budget accounting per cached page: payload + bookkeeping.
  static constexpr size_t kEntryBytes = kPageSize + 64;

  /// `budget_bytes` bounds the sum of cached page payloads across all
  /// shards. A budget of 0 disables caching entirely (every read goes to
  /// disk). `shard_override` (unit tests) pins the shard count (rounded
  /// down to a power of two, clamped to [1, kMaxShards]); 0 picks it from
  /// the budget.
  explicit PageCache(size_t budget_bytes, size_t shard_override = 0);
  ~PageCache();

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// One insert of a multi-insert batch (see PutBatch).
  struct Insert {
    PageId page = kInvalidPage;
    uint64_t version = 0;
    PagePtr data;
  };

  /// Looks up (page, version); returns nullptr on miss. The first hit on
  /// an entry inserted by a prefetch counts once in
  /// IoStats::prefetch_hits.
  PagePtr Get(PageId page, uint64_t version);

  /// True if (page, version) is resident. No LRU bump, no hit/miss
  /// accounting — the batch-read planner uses this to skip resident pages
  /// without skewing the miss counters a real read would produce.
  bool Contains(PageId page, uint64_t version) const;

  /// Inserts a page image; evicts LRU entries beyond the shard budget.
  /// Returns the cached pointer (callers keep using the returned value,
  /// which may be an existing entry on double-insert races).
  PagePtr Put(PageId page, uint64_t version, PagePtr data);

  /// Multi-insert: groups the batch by shard and takes each shard lock
  /// once (a batched read lands up to prefetch-depth partitions' pages at
  /// a time; per-page locking would pay shard_count lock round-trips).
  /// With `prefetched` set, entries are flagged so their first Get hit is
  /// counted in IoStats::prefetch_hits.
  void PutBatch(std::span<Insert> inserts, bool prefetched);

  /// Drops every cached version of `page`.
  void InvalidatePage(PageId page);

  /// Drops all entries with version != 0 (used after WAL checkpoint, when
  /// frame numbers are recycled).
  void DropVersioned();

  /// Drops everything (cold-start simulation).
  void Clear();

  size_t budget_bytes() const {
    return budget_.load(std::memory_order_relaxed);
  }
  /// Adjusts the byte budget. The shard count is fixed at construction;
  /// only the per-shard budget slice changes.
  void set_budget_bytes(size_t budget);
  size_t size_bytes() const;
  size_t entry_count() const;
  size_t shard_count() const { return shard_count_; }

  /// Routes hit/miss/eviction accounting into `stats` (pages_cache_hit,
  /// cache_misses, prefetch_hits, cache_evictions). Set once at pager
  /// bring-up, before any reader runs.
  void set_io_stats(IoStats* stats) { stats_ = stats; }

 private:
  struct Key {
    PageId page;
    uint64_t version;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(k.page) << 32) ^
                                   (k.version * 0x9e3779b97f4a7c15ULL));
    }
  };
  struct Entry {
    Key key;
    PagePtr data;
    // Set by a prefetch insert, cleared (and counted) on first Get hit.
    bool prefetched = false;
  };
  using LruList = std::list<Entry>;

  struct Shard {
    mutable std::mutex mutex;
    size_t bytes = 0;
    LruList lru;  // front = most recently used
    std::unordered_map<Key, LruList::iterator, KeyHash> map;
  };

  size_t ShardIndex(PageId page) const {
    // Mix before masking: sequential page ids would otherwise stripe
    // perfectly, but B+Tree access is not sequential, so spread by hash.
    const uint64_t h = page * 0x9e3779b97f4a7c15ULL;
    return (h >> 32) & (shard_count_ - 1);
  }
  Shard& ShardFor(PageId page) { return shards_[ShardIndex(page)]; }
  // Per-shard budget slice, floored at one page per shard (unless caching
  // is disabled outright): the shard count is fixed at construction, so a
  // later set_budget_bytes below shard granularity would otherwise make
  // every Put evict itself immediately, silently disabling the cache. The
  // floor trades at most shard_count_ pages of budget overshoot for a
  // still-functional small cache.
  size_t ShardBudget() const {
    const size_t total = budget_bytes();
    if (total == 0) return 0;
    return std::max(total / shard_count_, kEntryBytes);
  }
  void EvictIfNeededLocked(Shard& shard);

  std::atomic<size_t> budget_;
  size_t shard_count_;  // power of two in [1, kMaxShards]
  IoStats* stats_ = nullptr;
  Shard shards_[kMaxShards];
};

}  // namespace micronn

#endif  // MICRONN_STORAGE_PAGE_CACHE_H_
