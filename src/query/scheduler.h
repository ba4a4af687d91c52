// Query admission scheduler: cross-request multi-query optimization.
//
// PR 3's executor shares partition scans across a *caller-assembled* batch
// (§3.4); server-style traffic instead issues independent DB::Search calls
// from many threads, each of which used to run its own planner + executor
// group and share nothing. The scheduler converts that concurrency into
// batch efficiency with SQLite-group-commit-style leader election — no
// dedicated thread, no bypass:
//
//   - Every Search/BatchSearch submission enqueues into a staging queue.
//     The first arrival with no active leader becomes the leader.
//   - A leader alone in the queue executes its submission at once: a lone
//     client pays one uncontended mutex round-trip over calling the
//     executor directly.
//   - A leader that finds peers already staged (they arrived while the
//     previous group executed) lingers up to kLinger so the clients that
//     group just released can come back, then takes everything staged (up
//     to kMaxGroupQueries queries, never splitting a submission). Without
//     the linger a closed loop of clients splits into two alternating
//     half-size groups, which share half as many scans.
//   - The leader runs the whole group through one GroupExecutor call (one
//     read snapshot, one planner, one QueryExecutor::Execute — so scan
//     sharing, predicate dedup, and shared attribute decodes all span
//     submissions), distributes per-submission responses, hands
//     leadership to the next waiter, and returns to its caller.
//
// docs/ARCHITECTURE.md ("Request scheduler") walks the design; the
// EXPLAIN fields `coalesced_group_size` / `coalesce_wait_us` make the
// coalescing observable per response.
#ifndef MICRONN_QUERY_SCHEDULER_H_
#define MICRONN_QUERY_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace micronn {

struct SearchRequest;
struct SearchResponse;

/// One caller's pending submission (a Search is a submission of one; a
/// BatchSearch is a submission of `n`). The scheduler fills the wait/group
/// metadata before execution; the GroupExecutor fills status + responses.
struct QueryGroupEntry {
  const SearchRequest* requests = nullptr;
  size_t n = 0;

  /// Outcome, per submission: entries keep their own status so one
  /// caller's invalid request cannot fail a coalesced peer.
  Status status;
  std::vector<SearchResponse> responses;

  /// Microseconds spent in the staging queue before the group snapshot.
  uint64_t wait_us = 0;
  /// Submissions merged into the executed group, this one included.
  uint32_t group_entries = 1;

 private:
  friend class QueryScheduler;
  std::chrono::steady_clock::time_point enqueued_at;
  bool done = false;  // status/responses are final (guarded by the mutex)
};

/// Monotonic scheduler counters (observability + tests).
struct SchedulerStats {
  std::atomic<uint64_t> submissions{0};       // staged through the queue
  std::atomic<uint64_t> groups{0};            // executor groups run
  std::atomic<uint64_t> coalesced_groups{0};  // groups with >= 2 entries
};

class QueryScheduler {
 public:
  /// Cap on the total queries merged into one executed group. A larger
  /// submission still runs whole, as a group of its own. Reaching it also
  /// ends a leader's linger early.
  static constexpr size_t kMaxGroupQueries = 64;
  /// How long a leader that finds peers staged waits for more.
  static constexpr std::chrono::microseconds kLinger{100};

  /// Executes one merged group: fills every entry's status + responses.
  /// Called on the leader's thread, outside the scheduler mutex.
  using GroupExecutor =
      std::function<void(const std::vector<QueryGroupEntry*>&)>;

  explicit QueryScheduler(GroupExecutor executor)
      : executor_(std::move(executor)) {}

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Blocks until the submission's group has executed; returns its
  /// responses (one per request) or its per-submission error.
  Result<std::vector<SearchResponse>> Submit(const SearchRequest* requests,
                                             size_t n);

  const SchedulerStats& stats() const { return stats_; }

 private:
  // Takes up to kMaxGroupQueries staged queries off the queue front.
  // Caller holds mutex_.
  std::vector<QueryGroupEntry*> CollectGroupLocked();

  GroupExecutor executor_;

  std::mutex mutex_;
  // Signalled when a group finishes (waiters check their entry / take
  // leadership) and when arrivals fill a lingering leader's group.
  std::condition_variable cv_;
  std::deque<QueryGroupEntry*> queue_;
  size_t queued_queries_ = 0;
  bool leader_active_ = false;
  bool leader_lingering_ = false;

  SchedulerStats stats_;
};

}  // namespace micronn

#endif  // MICRONN_QUERY_SCHEDULER_H_
