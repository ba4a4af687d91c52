// Deterministic fault injection for the storage stack.
//
// FaultInjectionFile decorates any FileHandle and fails (or degrades)
// operations on a preset schedule: "the 3rd write errors", "the 2nd read
// comes back short", "the next Append writes only half its bytes and then
// reports failure" (a torn tail), "every 2nd read hits EINTR-and-retries".
// Installed under the pager via PagerOptions::file_wrapper, it turns the
// crash matrix of wal_recovery_test into an in-process, fully
// deterministic sweep — no process kill, no copy-while-open timing.
//
// Counters are 1-based and count *attempts*: an op that is failed by the
// schedule still consumes its slot.
#ifndef MICRONN_TESTS_SUPPORT_FAULT_INJECTION_FILE_H_
#define MICRONN_TESTS_SUPPORT_FAULT_INJECTION_FILE_H_

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "storage/file.h"

namespace micronn {

/// One file's fault schedule. 0 = never for every field.
struct FaultSchedule {
  /// Fail the Nth ReadAt (and any batch op that lands on it) with IOError.
  uint64_t fail_read_at = 0;
  /// The Nth ReadAt returns IOError("short read") — the same failure a
  /// truncated file produces.
  uint64_t short_read_at = 0;
  /// Every Nth read is "interrupted" and transparently restarted (the
  /// base read runs twice, first result discarded) — the EINTR-restart
  /// pattern; callers must produce identical results under it.
  uint64_t eintr_every = 0;
  /// Fail the Nth WriteAt with IOError.
  uint64_t fail_write_at = 0;
  /// Fail the Nth WriteAt *after* writing the first `torn_write_bytes`
  /// bytes — a torn tail, as when power dies mid-write. The WAL places
  /// commit frames with positional writes, so this is the torn-commit
  /// injection point.
  uint64_t torn_write_at = 0;
  size_t torn_write_bytes = 0;
  /// Same tear for the Nth Append.
  uint64_t torn_append_at = 0;
  size_t torn_append_bytes = 0;
  /// Fail the Nth Append cleanly (nothing written).
  uint64_t fail_append_at = 0;
  /// Fail the Nth Sync with IOError (the write may or may not be durable —
  /// exactly the ambiguity real fsync failures have).
  uint64_t fail_sync_at = 0;
  /// Fail the Nth Truncate with IOError.
  uint64_t fail_truncate_at = 0;
  /// Every Sync sleeps this long before it delegates — a slow disk, so
  /// concurrent committers always overlap an fsync in flight.
  std::chrono::microseconds sync_delay{0};

  // --- Integrity / degraded-mode fault modes ---

  /// The Nth ReadAt succeeds but XORs `corrupt_read_xor` into the byte at
  /// index `corrupt_read_byte % len` of the returned buffer — a bit-flip
  /// between the platter and the page cache. Checksummed readers must
  /// surface Corruption, never the flipped data.
  uint64_t corrupt_read_at = 0;
  size_t corrupt_read_byte = 0;
  uint8_t corrupt_read_xor = 0xFF;
  /// From the Nth write-side op onward (WriteAt and Append share the
  /// count), every write-side op fails with ResourceExhausted — a full
  /// disk stays full until space is freed (set_schedule with 0).
  uint64_t enospc_after = 0;
  /// From the Nth ReadAt onward every read fails with IOError — dying
  /// media. Permanent per the taxonomy: retries must NOT mask it.
  uint64_t sticky_eio_read_at = 0;
  /// The Nth ReadAt — and the next `transient_read_failures - 1` attempts
  /// after it — fail with Unavailable, then reads succeed again. The
  /// retry layer must absorb these within its budget.
  uint64_t transient_read_at = 0;
  uint64_t transient_read_failures = 1;
};

/// Operation counts observed so far (for assertions and for deriving the
/// next sweep's schedule from a fault-free run).
struct FaultCounters {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t appends = 0;
  uint64_t syncs = 0;
  uint64_t truncates = 0;
};

class FaultInjectionFile final : public FileHandle {
 public:
  FaultInjectionFile(std::unique_ptr<FileHandle> base, FaultSchedule schedule)
      : base_(std::move(base)), schedule_(schedule) {}

  Status ReadAt(uint64_t offset, void* buf, size_t n) override {
    bool interrupted = false;
    bool corrupt = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.reads;
      if (counters_.reads == schedule_.fail_read_at) {
        return Status::IOError("injected read fault in " + base_->path());
      }
      if (counters_.reads == schedule_.short_read_at) {
        return Status::IOError("injected short read in " + base_->path());
      }
      if (schedule_.sticky_eio_read_at > 0 &&
          counters_.reads >= schedule_.sticky_eio_read_at) {
        return Status::IOError("injected sticky EIO in " + base_->path());
      }
      if (schedule_.transient_read_at > 0 &&
          counters_.reads >= schedule_.transient_read_at &&
          counters_.reads <
              schedule_.transient_read_at + schedule_.transient_read_failures) {
        return Status::Unavailable("injected transient read fault in " +
                                   base_->path());
      }
      interrupted = schedule_.eintr_every > 0 &&
                    counters_.reads % schedule_.eintr_every == 0;
      corrupt = counters_.reads == schedule_.corrupt_read_at;
    }
    if (interrupted) {
      base_->ReadAt(offset, buf, n).ok();  // interrupted attempt, restarted
    }
    Status st = base_->ReadAt(offset, buf, n);
    if (corrupt && st.ok() && n > 0) {
      // Bit-flip between the platter and the caller's buffer.
      static_cast<uint8_t*>(buf)[schedule_.corrupt_read_byte % n] ^=
          schedule_.corrupt_read_xor;
    }
    return st;
  }

  // Each batched op consumes one read slot, so a schedule derived from a
  // blocking-backend run fires at the same logical read regardless of how
  // the ops were grouped.
  Status ReadBatch(ReadOp* ops, size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      ops[i].status = ReadAt(ops[i].offset, ops[i].buf, ops[i].len);
    }
    return Status::OK();
  }

  Status WriteAt(uint64_t offset, const void* buf, size_t n) override {
    bool torn = false;
    size_t torn_bytes = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.writes;
      if (counters_.writes == schedule_.fail_write_at) {
        return Status::IOError("injected write fault in " + base_->path());
      }
      if (schedule_.enospc_after > 0 &&
          counters_.writes + counters_.appends >= schedule_.enospc_after) {
        return Status::ResourceExhausted("injected ENOSPC in " +
                                         base_->path());
      }
      torn = counters_.writes == schedule_.torn_write_at;
      torn_bytes = schedule_.torn_write_bytes;
    }
    if (torn) {
      const size_t keep = std::min(torn_bytes, n);
      if (keep > 0) {
        base_->WriteAt(offset, buf, keep).ok();  // the tear's surviving prefix
      }
      return Status::IOError("injected torn write in " + base_->path());
    }
    return base_->WriteAt(offset, buf, n);
  }

  Status Append(const void* buf, size_t n) override {
    bool torn = false;
    size_t torn_bytes = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.appends;
      if (counters_.appends == schedule_.fail_append_at) {
        return Status::IOError("injected append fault in " + base_->path());
      }
      if (schedule_.enospc_after > 0 &&
          counters_.writes + counters_.appends >= schedule_.enospc_after) {
        return Status::ResourceExhausted("injected ENOSPC in " +
                                         base_->path());
      }
      torn = counters_.appends == schedule_.torn_append_at;
      torn_bytes = schedule_.torn_append_bytes;
    }
    if (torn) {
      const size_t keep = std::min(torn_bytes, n);
      if (keep > 0) {
        base_->Append(buf, keep).ok();  // the surviving prefix of the tear
      }
      return Status::IOError("injected torn append in " + base_->path());
    }
    return base_->Append(buf, n);
  }

  Status Sync() override {
    std::chrono::microseconds delay;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.syncs;
      if (counters_.syncs == schedule_.fail_sync_at) {
        return Status::IOError("injected sync fault in " + base_->path());
      }
      delay = schedule_.sync_delay;
    }
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
    return base_->Sync();
  }

  Status Truncate(uint64_t size) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.truncates;
      if (counters_.truncates == schedule_.fail_truncate_at) {
        return Status::IOError("injected truncate fault in " + base_->path());
      }
    }
    return base_->Truncate(size);
  }

  uint64_t size() const override { return base_->size(); }
  const std::string& path() const override { return base_->path(); }
  void set_io_stats(IoStats* stats) override { base_->set_io_stats(stats); }

  FaultCounters counters() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
  }

  /// Replace the schedule mid-run. Counters keep running, so tests can read
  /// counters() after setup and arm a fault at exactly the next operation.
  void set_schedule(const FaultSchedule& schedule) {
    std::lock_guard<std::mutex> lock(mutex_);
    schedule_ = schedule;
  }

 private:
  std::unique_ptr<FileHandle> base_;
  FaultSchedule schedule_;
  mutable std::mutex mutex_;
  FaultCounters counters_;
};

}  // namespace micronn

#endif  // MICRONN_TESTS_SUPPORT_FAULT_INJECTION_FILE_H_
