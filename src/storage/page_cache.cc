#include "storage/page_cache.h"

#include <utility>
#include <vector>

namespace micronn {

namespace {

size_t PickShardCount(size_t budget_bytes, size_t shard_override) {
  if (shard_override > 0) {
    // Pinned: round down to a power of two within [1, kMaxShards].
    size_t shards = 1;
    while (shards * 2 <= std::min(shard_override, PageCache::kMaxShards)) {
      shards *= 2;
    }
    return shards;
  }
  const size_t capacity_pages = budget_bytes / PageCache::kEntryBytes;
  size_t shards = 1;
  while (shards < PageCache::kMaxShards &&
         capacity_pages / (shards * 2) >= PageCache::kMinPagesPerShard) {
    shards *= 2;
  }
  return shards;
}

}  // namespace

PageCache::PageCache(size_t budget_bytes, size_t shard_override)
    : budget_(budget_bytes),
      shard_count_(PickShardCount(budget_bytes, shard_override)) {}

PageCache::~PageCache() { Clear(); }

PagePtr PageCache::Get(PageId page, uint64_t version) {
  Shard& shard = ShardFor(page);
  PagePtr result;
  bool prefetch_hit = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(Key{page, version});
    if (it != shard.map.end()) {
      // Move to front (most recently used).
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      result = it->second->data;
      if (it->second->prefetched) {
        // First demand hit on a prefetched page: the read-ahead paid off.
        it->second->prefetched = false;
        prefetch_hit = true;
      }
    }
  }
  if (stats_ != nullptr) {
    if (result != nullptr) {
      stats_->pages_cache_hit.fetch_add(1, std::memory_order_relaxed);
      if (prefetch_hit) {
        stats_->prefetch_hits.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      stats_->cache_misses.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return result;
}

bool PageCache::Contains(PageId page, uint64_t version) const {
  const Shard& shard = shards_[ShardIndex(page)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.map.find(Key{page, version}) != shard.map.end();
}

PagePtr PageCache::Put(PageId page, uint64_t version, PagePtr data) {
  if (budget_bytes() == 0) return data;
  Shard& shard = ShardFor(page);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const Key key{page, version};
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->data;
  }
  PagePtr result = data;  // survives even if eviction removes the entry
  shard.lru.push_front(Entry{key, std::move(data)});
  shard.map[key] = shard.lru.begin();
  shard.bytes += PageCache::kEntryBytes;
  MemoryTracker::Global().Allocate(MemoryCategory::kPageCache, PageCache::kEntryBytes);
  EvictIfNeededLocked(shard);
  return result;
}

void PageCache::PutBatch(std::span<Insert> inserts, bool prefetched) {
  if (budget_bytes() == 0 || inserts.empty()) return;
  // Group by shard so each shard mutex is taken once per batch; eviction
  // also runs once per touched shard, after all of its inserts landed.
  std::vector<std::pair<size_t, size_t>> order;  // (shard, insert index)
  order.reserve(inserts.size());
  for (size_t i = 0; i < inserts.size(); ++i) {
    order.emplace_back(ShardIndex(inserts[i].page), i);
  }
  std::sort(order.begin(), order.end());
  size_t i = 0;
  while (i < order.size()) {
    const size_t s = order[i].first;
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (; i < order.size() && order[i].first == s; ++i) {
      Insert& ins = inserts[order[i].second];
      const Key key{ins.page, ins.version};
      auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        // Raced with a demand read; keep the resident entry (and its
        // prefetched flag — a demand insert means the page was wanted).
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        continue;
      }
      shard.lru.push_front(Entry{key, std::move(ins.data), prefetched});
      shard.map[key] = shard.lru.begin();
      shard.bytes += PageCache::kEntryBytes;
      MemoryTracker::Global().Allocate(MemoryCategory::kPageCache,
                                       PageCache::kEntryBytes);
    }
    EvictIfNeededLocked(shard);
  }
}

void PageCache::InvalidatePage(PageId page) {
  Shard& shard = ShardFor(page);
  std::lock_guard<std::mutex> lock(shard.mutex);
  for (auto it = shard.lru.begin(); it != shard.lru.end();) {
    if (it->key.page == page) {
      shard.map.erase(it->key);
      it = shard.lru.erase(it);
      shard.bytes -= PageCache::kEntryBytes;
      MemoryTracker::Global().Release(MemoryCategory::kPageCache, PageCache::kEntryBytes);
    } else {
      ++it;
    }
  }
}

void PageCache::DropVersioned() {
  // Only the first shard_count_ shards can hold entries (ShardFor masks
  // into that range); the loops below skip the permanently empty rest.
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->key.version != 0) {
        shard.map.erase(it->key);
        it = shard.lru.erase(it);
        shard.bytes -= PageCache::kEntryBytes;
        MemoryTracker::Global().Release(MemoryCategory::kPageCache,
                                        PageCache::kEntryBytes);
      } else {
        ++it;
      }
    }
  }
}

void PageCache::Clear() {
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    MemoryTracker::Global().Release(MemoryCategory::kPageCache, shard.bytes);
    shard.bytes = 0;
    shard.lru.clear();
    shard.map.clear();
  }
}

void PageCache::set_budget_bytes(size_t budget) {
  budget_.store(budget, std::memory_order_relaxed);
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    EvictIfNeededLocked(shard);
  }
}

size_t PageCache::size_bytes() const {
  size_t total = 0;
  for (size_t s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.bytes;
  }
  return total;
}

size_t PageCache::entry_count() const {
  size_t total = 0;
  for (size_t s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.map.size();
  }
  return total;
}

void PageCache::EvictIfNeededLocked(Shard& shard) {
  const size_t shard_budget = ShardBudget();
  uint64_t evicted = 0;
  while (shard.bytes > shard_budget && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    shard.bytes -= PageCache::kEntryBytes;
    MemoryTracker::Global().Release(MemoryCategory::kPageCache, PageCache::kEntryBytes);
    ++evicted;
  }
  if (evicted > 0 && stats_ != nullptr) {
    stats_->cache_evictions.fetch_add(evicted, std::memory_order_relaxed);
  }
}

}  // namespace micronn
