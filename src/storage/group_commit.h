// GroupCommit: the durability gate of pipelined group commit.
//
// A synced commit publishes its frames and releases the writer slot
// *before* it waits here, so the next committer can stage its frames
// while this one's fsync is in flight. One waiter at a time becomes the
// leader: it lands every staged commit with one contiguous WAL write and
// one fdatasync, and every commit published before it started is covered
// by that sync; followers whose commit it covered return without I/O of
// their own.
//
// The sticky rule (docs/DURABILITY.md rule 6): once a WAL write or fsync
// fails with commits already published, durability is unknowable for the
// rest of this gate's life, so no further commit is acknowledged. The
// gate owns that rule; the checkpoint and wrap paths report their own
// WAL failures through Poison.
#ifndef MICRONN_STORAGE_GROUP_COMMIT_H_
#define MICRONN_STORAGE_GROUP_COMMIT_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/status.h"
#include "storage/wal.h"

namespace micronn {

class GroupCommit {
 public:
  /// A gate over `wal` (which must outlive it) whose log is already
  /// durable through commit `durable_seq` — what recovery found.
  GroupCommit(Wal* wal, uint64_t durable_seq)
      : wal_(wal), durable_seq_(durable_seq) {}

  /// Returns once the WAL is durable through `commit_seq`, flushing and
  /// fsyncing as leader if no other waiter's sync covers it. IOError once
  /// the gate is poisoned.
  Status WaitForDurable(uint64_t commit_seq);

  /// Records a WAL fsync issued outside the gate (the checkpoint's) that
  /// made the log durable through `seq`.
  void PublishDurable(uint64_t seq);

  /// Records a failed WAL write or fsync with commits already published
  /// and wakes every waiter. Returns `st`.
  Status Poison(Status st);

 private:
  // Applies the outcome `st` of a WAL sync that covered commits through
  // `covers` and wakes every waiter. Caller holds mutex_.
  void SettleLocked(const Status& st, uint64_t covers);

  Wal* const wal_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool sync_in_flight_ = false;  // a leader is flushing and syncing
  bool failed_ = false;          // sticky; see SettleLocked
  uint64_t durable_seq_;         // WAL fsynced through this commit seq
};

}  // namespace micronn

#endif  // MICRONN_STORAGE_GROUP_COMMIT_H_
