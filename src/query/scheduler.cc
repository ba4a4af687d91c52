#include "query/scheduler.h"

#include "core/options.h"

namespace micronn {

namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

std::vector<QueryGroupEntry*> QueryScheduler::CollectGroupLocked() {
  std::vector<QueryGroupEntry*> group;
  size_t queries = 0;
  while (!queue_.empty()) {
    QueryGroupEntry* entry = queue_.front();
    // Always admit at least one submission; after that, stop where the
    // query cap would be exceeded (a submission is never split).
    if (!group.empty() && queries + entry->n > kMaxGroupQueries) break;
    queue_.pop_front();
    queued_queries_ -= entry->n;
    group.push_back(entry);
    queries += entry->n;
  }
  return group;
}

Result<std::vector<SearchResponse>> QueryScheduler::Submit(
    const SearchRequest* requests, size_t n) {
  QueryGroupEntry entry;
  entry.requests = requests;
  entry.n = n;
  entry.enqueued_at = std::chrono::steady_clock::now();

  std::unique_lock<std::mutex> lock(mutex_);
  stats_.submissions.fetch_add(1, std::memory_order_relaxed);
  queue_.push_back(&entry);
  queued_queries_ += n;
  // Arrivals wake a lingering leader only once its group is full; the
  // waiters that share cv_ re-check and sleep on.
  if (leader_lingering_ && queued_queries_ >= kMaxGroupQueries) {
    cv_.notify_all();
  }

  while (!entry.done) {
    if (leader_active_) {
      cv_.wait(lock);
      continue;
    }
    leader_active_ = true;
    if (queue_.size() > 1) {
      // Peers already staged mean traffic is flowing: linger for the
      // clients of the group that just finished.
      leader_lingering_ = true;
      cv_.wait_for(lock, kLinger,
                   [this] { return queued_queries_ >= kMaxGroupQueries; });
      leader_lingering_ = false;
    }
    std::vector<QueryGroupEntry*> group = CollectGroupLocked();
    const auto start = std::chrono::steady_clock::now();
    for (QueryGroupEntry* e : group) {
      e->wait_us = MicrosSince(e->enqueued_at, start);
      e->group_entries = static_cast<uint32_t>(group.size());
    }
    stats_.groups.fetch_add(1, std::memory_order_relaxed);
    if (group.size() > 1) {
      stats_.coalesced_groups.fetch_add(1, std::memory_order_relaxed);
    }
    lock.unlock();
    executor_(group);
    lock.lock();
    for (QueryGroupEntry* e : group) e->done = true;
    leader_active_ = false;
    // Wake every waiter: finished entries return, and one of the
    // still-pending ones (queued behind the cap or during execution)
    // takes over as the next leader.
    cv_.notify_all();
  }

  if (!entry.status.ok()) return entry.status;
  return std::move(entry.responses);
}

}  // namespace micronn
