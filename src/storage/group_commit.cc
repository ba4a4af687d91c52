#include "storage/group_commit.h"

namespace micronn {

Status GroupCommit::WaitForDurable(uint64_t commit_seq) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (durable_seq_ >= commit_seq) {
      return Status::OK();  // a leader's fsync (ours or another's) covered us
    }
    if (failed_) {
      // A previous WAL fsync failed. Unlike the pre-group-commit path,
      // the frames cannot be truncated away here — later commits may
      // already have appended past them — so the commit stays replayable
      // by recovery even though it is reported failed. Refusing all
      // further synced commits keeps an application-level retry from
      // applying it twice in this process; a reopen re-validates the log
      // from disk.
      return Status::IOError(
          "WAL fsync previously failed; commit durability unknown until "
          "the database is reopened");
    }
    if (sync_in_flight_) {
      cv_.wait(lock);
      continue;
    }
    // Leader: one flush + fsync covers every commit fully published by
    // now. The coverage target is captured before unlocking; any commit
    // at-or-below it was either written immediately (unsynced commits:
    // publish follows the write) or staged before the capture — and the
    // FlushStaged below drains everything staged so far in one contiguous
    // write, so the fdatasync covers it either way. On success the checks
    // above then decide for the leader exactly as for its followers.
    sync_in_flight_ = true;
    const uint64_t covers = wal_->last_committed_seq();
    lock.unlock();
    Status st = wal_->FlushStaged();
    if (st.ok()) st = wal_->Sync();
    lock.lock();
    sync_in_flight_ = false;
    SettleLocked(st, covers);
    if (!st.ok()) return st;
  }
}

void GroupCommit::PublishDurable(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  SettleLocked(Status::OK(), seq);
}

Status GroupCommit::Poison(Status st) {
  std::lock_guard<std::mutex> lock(mutex_);
  SettleLocked(st, 0);
  return st;
}

void GroupCommit::SettleLocked(const Status& st, uint64_t covers) {
  if (!st.ok()) {
    // Post-failure fsync state is undefined (the kernel may have dropped
    // the dirty pages); stop acknowledging synced commits for this
    // gate's lifetime instead of pretending a later fsync can make the
    // earlier writes durable. A failed batched *flush* poisons the group
    // identically — none of its commits (leader or follower) is ever
    // acknowledged, which is exactly the per-submission failure isolation
    // group commit promises.
    failed_ = true;
  } else if (!failed_ && covers > durable_seq_) {
    // A sync that completes after a failure may sit behind dropped dirty
    // pages, so durable_seq_ only ever reflects pre-failure syncs;
    // WaitForDurable's fast path relies on this.
    durable_seq_ = covers;
  }
  cv_.notify_all();
}

}  // namespace micronn
