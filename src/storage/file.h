// Pluggable random-access file layer.
//
// Everything the storage engine does to a disk file goes through the
// FileHandle interface: positional reads/writes, appends, syncs, and the
// batched read API the pager's prefetcher is built on. Implementations:
//   - PosixFile (this header): blocking pread/pwrite, the default.
//   - UringFile (storage/io_backend.cc, build-gated): batched reads via
//     io_uring, one submitting syscall per batch.
//   - FaultInjectionFile (tests/support/fault_injection_file.h): a
//     decorator that fails the Nth operation on a deterministic schedule,
//     installed through PagerOptions::file_wrapper.
#ifndef MICRONN_STORAGE_FILE_H_
#define MICRONN_STORAGE_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/io_stats.h"

namespace micronn {

/// Classifies an errno value from `op` on `path` into the I/O error
/// taxonomy (docs/DURABILITY.md "Integrity & degraded modes"):
///   - ENOSPC / EDQUOT  -> ResourceExhausted (out of space: not retryable
///     at the file layer; the pager flips into read-only degraded mode)
///   - EAGAIN / EWOULDBLOCK -> Unavailable (transient; retried by
///     RetryingFile with bounded exponential backoff)
///   - everything else  -> IOError (permanent: fail fast)
/// EINTR never reaches this function — the syscall loops retry it inline.
Status StatusFromIoErrno(int err, const std::string& op,
                         const std::string& path);

/// One positional read of a batch. `status` receives the per-op outcome
/// from ReadBatch so best-effort callers (the prefetcher) can skip failed
/// ops while strict callers check every one.
struct ReadOp {
  uint64_t offset = 0;
  void* buf = nullptr;
  size_t len = 0;
  Status status;
};

/// One positional write of a batch. Mirrors ReadOp: `status` receives the
/// per-op outcome from WriteBatch; the return value is transport-level.
struct WriteOp {
  uint64_t offset = 0;
  const void* buf = nullptr;
  size_t len = 0;
  Status status;
};

/// Handle to an in-flight SubmitRead batch. The ticket, the ops array it
/// points at, and every op buffer must stay alive and address-stable until
/// done() — the backend keeps raw pointers to all three. A ticket belongs
/// to the file it was submitted on and must be reaped there. One thread
/// drives a given ticket at a time; distinct tickets on the same file may
/// be driven from distinct threads (on the uring backend a reap harvests
/// whatever completions arrive, including other tickets' — hence the
/// atomic completion count).
struct IoTicket {
  /// True once every op has a final status. The driving thread may call
  /// this without holding the backend's lock; completions published by
  /// other threads' reaps are made visible by the release increment.
  bool done() const {
    return completed.load(std::memory_order_acquire) >= count;
  }

  ReadOp* ops = nullptr;
  size_t count = 0;
  /// Ops with a final status (set at reap time).
  std::atomic<size_t> completed{0};
  /// Ops handed to the kernel so far (uring backend; the emulated backend
  /// leaves this at 0 until the reap performs the whole batch).
  size_t submitted = 0;
};

/// A random-access file handle. Reads are safe from multiple threads
/// concurrently; writes are serialized by callers (the storage engine has
/// a single writer).
class FileHandle {
 public:
  virtual ~FileHandle() = default;
  FileHandle(const FileHandle&) = delete;
  FileHandle& operator=(const FileHandle&) = delete;

  /// Reads exactly `n` bytes at `offset`. Fails with IOError on short read.
  virtual Status ReadAt(uint64_t offset, void* buf, size_t n) = 0;

  /// Issues `n` positional reads. Per-op outcomes land in ops[i].status;
  /// the return value reports only transport-level failure (an OK return
  /// with some failed ops is normal). The base implementation loops
  /// ReadAt; backends override it with real batch submission.
  virtual Status ReadBatch(ReadOp* ops, size_t n);

  /// Starts `n` positional reads without waiting for them. On the uring
  /// backend the ops are pushed onto the ring immediately (as many as fit;
  /// the rest follow during reaps) so the device works while the caller
  /// computes. The base implementation emulates with an internal
  /// completion queue: nothing happens here, the whole batch is performed
  /// at reap time via this->ReadBatch — same bytes, same per-op statuses,
  /// no overlap. Either way EINTR/short-read fallback and per-op status
  /// assignment happen at reap time, and results are bit-identical to a
  /// blocking ReadBatch of the same ops. See IoTicket for lifetime rules.
  virtual Status SubmitRead(ReadOp* ops, size_t n, IoTicket* ticket);

  /// Drives `ticket` toward completion. With wait=true, blocks until
  /// ticket->done(). With wait=false, harvests whatever completions have
  /// already arrived without blocking (the emulated backend has no
  /// background progress, so wait=false performs the batch right away —
  /// its "completion queue" drains on first reap). Per-op statuses are
  /// final once done(); the return value is transport-level, as with
  /// ReadBatch. Safe to call on a done ticket (no-op).
  virtual Status ReapCompletions(IoTicket* ticket, bool wait);

  /// Writes exactly `n` bytes at `offset`.
  virtual Status WriteAt(uint64_t offset, const void* buf, size_t n) = 0;

  /// Issues `n` positional writes with per-op outcomes in ops[i].status,
  /// mirroring ReadBatch. All writes are durably *submitted* on return
  /// (blocking semantics — callers sequence Sync() after it, so there is
  /// nothing to overlap with). The base implementation loops WriteAt;
  /// PosixFile coalesces offset-adjacent ops into pwritev, the uring
  /// backend batches them onto the ring.
  virtual Status WriteBatch(WriteOp* ops, size_t n);

  /// Appends `n` bytes at the current logical end (tracked size).
  virtual Status Append(const void* buf, size_t n) = 0;

  /// Flushes file data (and metadata) to stable storage.
  virtual Status Sync() = 0;

  /// Truncates the file to `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// Current size in bytes (as tracked; matches the OS size). Safe to call
  /// from reader threads concurrently with the single writer's appends.
  virtual uint64_t size() const = 0;

  virtual const std::string& path() const = 0;

  /// Routes syscall accounting into `stats` (IoStats::read_syscalls).
  /// Set once at bring-up, before concurrent readers exist. Decorators
  /// forward to the wrapped handle.
  virtual void set_io_stats(IoStats* stats) { stats_ = stats; }

 protected:
  FileHandle() = default;

  void CountReadSyscall() {
    if (stats_ != nullptr) {
      stats_->read_syscalls.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void CountWriteSyscall() {
    if (stats_ != nullptr) {
      stats_->write_syscalls.fetch_add(1, std::memory_order_relaxed);
    }
  }

  IoStats* stats_ = nullptr;
};

/// The blocking pread/pwrite implementation.
class PosixFile : public FileHandle {
 public:
  /// Opens (creating if needed) `path` for read/write.
  static Result<std::unique_ptr<PosixFile>> Open(const std::string& path);

  ~PosixFile() override;

  Status ReadAt(uint64_t offset, void* buf, size_t n) override;
  Status WriteAt(uint64_t offset, const void* buf, size_t n) override;
  Status WriteBatch(WriteOp* ops, size_t n) override;
  Status Append(const void* buf, size_t n) override;
  Status Sync() override;
  Status Truncate(uint64_t size) override;
  uint64_t size() const override {
    return size_.load(std::memory_order_acquire);
  }
  const std::string& path() const override { return path_; }

 protected:
  // Shared with UringFile (storage/io_backend.cc), which reuses the fd
  // and every non-batched operation.
  PosixFile(int fd, std::string path, uint64_t size)
      : fd_(fd), path_(std::move(path)), size_(size) {}

  int fd_;
  std::string path_;
  std::atomic<uint64_t> size_;

 private:
  // One pwritev over an offset-contiguous run of ops (all get the same
  // status); partial writes resume mid-iovec, EINTR retries.
  Status WriteRun(WriteOp* ops, size_t n);
};

/// Historical name for the default file implementation; call sites that
/// don't care about backends keep using File::Open.
using File = PosixFile;

/// Decorator that absorbs transient (Unavailable) I/O errors with a
/// bounded exponential-backoff retry loop. Sits outermost in the pager's
/// file stack — above the backend and above any test fault wrapper, so
/// injected transient faults are retried exactly like real ones. Only
/// Unavailable is retried: ResourceExhausted (ENOSPC) and IOError are
/// permanent and fail fast; Sync and Truncate are never retried (a failed
/// fsync has undefined kernel state — the pager's sticky poisoning owns
/// that, see DURABILITY.md rule 6). Each absorbed retry counts in
/// IoStats::io_retries. SubmitRead/ReapCompletions forward to the inner
/// handle (preserving real async overlap on io_uring) and re-issue
/// transiently-failed ops at reap time, once the ticket is done.
class RetryingFile : public FileHandle {
 public:
  /// Retries per operation after the initial attempt.
  static constexpr uint32_t kMaxRetries = 3;
  /// Sleep before the first retry; doubles on each further retry.
  static constexpr uint32_t kInitialBackoffUs = 100;

  explicit RetryingFile(std::unique_ptr<FileHandle> inner)
      : inner_(std::move(inner)) {}

  Status ReadAt(uint64_t offset, void* buf, size_t n) override;
  Status ReadBatch(ReadOp* ops, size_t n) override;
  Status SubmitRead(ReadOp* ops, size_t n, IoTicket* ticket) override;
  Status ReapCompletions(IoTicket* ticket, bool wait) override;
  Status WriteAt(uint64_t offset, const void* buf, size_t n) override;
  Status WriteBatch(WriteOp* ops, size_t n) override;
  Status Append(const void* buf, size_t n) override;
  Status Sync() override { return inner_->Sync(); }
  Status Truncate(uint64_t size) override { return inner_->Truncate(size); }
  uint64_t size() const override { return inner_->size(); }
  const std::string& path() const override { return inner_->path(); }
  void set_io_stats(IoStats* stats) override {
    stats_ = stats;
    inner_->set_io_stats(stats);
  }

 private:
  // Sleeps for the attempt's backoff slice and counts the retry;
  // returns false once the budget is spent.
  bool BackoffForRetry(uint32_t attempt);
  // Re-issues ops whose status is Unavailable through inner_->ReadBatch,
  // up to the budget. Used by both ReadBatch and reap-time repair.
  void RetryFailedReads(ReadOp* ops, size_t n);

  std::unique_ptr<FileHandle> inner_;
};

/// Deletes a file if it exists; OK if missing.
Status RemoveFileIfExists(const std::string& path);

/// True if the path exists.
bool FileExists(const std::string& path);

}  // namespace micronn

#endif  // MICRONN_STORAGE_FILE_H_
