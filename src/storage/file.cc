#include "storage/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

namespace micronn {

namespace {
std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + " failed for " + path + ": " + std::strerror(errno);
}
}  // namespace

Status StatusFromIoErrno(int err, const std::string& op,
                         const std::string& path) {
  std::string msg = op + " failed for " + path + ": " + std::strerror(err);
  switch (err) {
    case ENOSPC:
#ifdef EDQUOT
    case EDQUOT:
#endif
      return Status::ResourceExhausted(std::move(msg));
    case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
      return Status::Unavailable(std::move(msg));
    default:
      return Status::IOError(std::move(msg));
  }
}

Status FileHandle::ReadBatch(ReadOp* ops, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    ops[i].status = ReadAt(ops[i].offset, ops[i].buf, ops[i].len);
  }
  return Status::OK();
}

Status FileHandle::SubmitRead(ReadOp* ops, size_t n, IoTicket* ticket) {
  // Emulated async: park the batch on the ticket; the internal completion
  // queue "fills" at reap time, when ReapCompletions performs the reads
  // through the virtual ReadBatch. Routing through the virtual keeps
  // decorators (fault injection, bench latency shims) on the path, so
  // their faults fire at reap time exactly like a real completion error.
  ticket->ops = ops;
  ticket->count = n;
  ticket->completed.store(0, std::memory_order_relaxed);
  ticket->submitted = 0;
  return Status::OK();
}

Status FileHandle::ReapCompletions(IoTicket* ticket, bool wait) {
  (void)wait;  // no background progress to poll; drain everything now
  if (ticket->done()) return Status::OK();
  const Status st = ReadBatch(ticket->ops, ticket->count);
  ticket->submitted = ticket->count;
  ticket->completed.store(ticket->count, std::memory_order_release);
  return st;
}

Status FileHandle::WriteBatch(WriteOp* ops, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    ops[i].status = WriteAt(ops[i].offset, ops[i].buf, ops[i].len);
  }
  return Status::OK();
}

Result<std::unique_ptr<PosixFile>> PosixFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("open", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("fstat", path));
  }
  return std::unique_ptr<PosixFile>(
      new PosixFile(fd, path, static_cast<uint64_t>(st.st_size)));
}

PosixFile::~PosixFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PosixFile::ReadAt(uint64_t offset, void* buf, size_t n) {
  uint8_t* dst = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(fd_, dst + done, n - done,
                              static_cast<off_t>(offset + done));
    CountReadSyscall();
    if (r < 0) {
      if (errno == EINTR) continue;
      return StatusFromIoErrno(errno, "pread", path_);
    }
    if (r == 0) {
      // A short read is transient in the taxonomy (a racing truncate or a
      // file grown by an unsynced writer): Unavailable, so the retry loop
      // gets a shot before the caller treats it as failure.
      return Status::Unavailable("short read at offset " +
                                 std::to_string(offset) + " in " + path_);
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status PosixFile::WriteAt(uint64_t offset, const void* buf, size_t n) {
  const uint8_t* src = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t w = ::pwrite(fd_, src + done, n - done,
                               static_cast<off_t>(offset + done));
    CountWriteSyscall();
    if (w < 0) {
      if (errno == EINTR) continue;
      return StatusFromIoErrno(errno, "pwrite", path_);
    }
    done += static_cast<size_t>(w);
  }
  if (offset + n > size()) {
    size_.store(offset + n, std::memory_order_release);
  }
  return Status::OK();
}

Status PosixFile::WriteBatch(WriteOp* ops, size_t n) {
  // IOV_MAX is 1024 everywhere we run; stay well under it so a run never
  // fails the vectored call outright.
  constexpr size_t kMaxRun = 256;
  size_t i = 0;
  while (i < n) {
    size_t j = i + 1;
    uint64_t end = ops[i].offset + ops[i].len;
    while (j < n && j - i < kMaxRun && ops[j].offset == end) {
      end += ops[j].len;
      ++j;
    }
    const Status st = WriteRun(ops + i, j - i);
    for (size_t k = i; k < j; ++k) ops[k].status = st;
    i = j;
  }
  return Status::OK();
}

Status PosixFile::WriteRun(WriteOp* ops, size_t n) {
  if (n == 1) return WriteAt(ops[0].offset, ops[0].buf, ops[0].len);
  struct iovec iov[256];
  uint64_t total = 0;
  for (size_t k = 0; k < n; ++k) {
    iov[k].iov_base = const_cast<void*>(ops[k].buf);
    iov[k].iov_len = ops[k].len;
    total += ops[k].len;
  }
  uint64_t offset = ops[0].offset;
  size_t idx = 0;  // first iovec with unwritten bytes
  while (idx < n) {
    const ssize_t w = ::pwritev(fd_, iov + idx, static_cast<int>(n - idx),
                                static_cast<off_t>(offset));
    CountWriteSyscall();
    if (w < 0) {
      if (errno == EINTR) continue;
      return StatusFromIoErrno(errno, "pwritev", path_);
    }
    offset += static_cast<uint64_t>(w);
    size_t done = static_cast<size_t>(w);
    while (idx < n && done >= iov[idx].iov_len) {
      done -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < n && done > 0) {
      iov[idx].iov_base = static_cast<uint8_t*>(iov[idx].iov_base) + done;
      iov[idx].iov_len -= done;
    }
  }
  const uint64_t run_end = ops[0].offset + total;
  if (run_end > size()) {
    size_.store(run_end, std::memory_order_release);
  }
  return Status::OK();
}

Status PosixFile::Append(const void* buf, size_t n) {
  return WriteAt(size(), buf, n);
}

Status PosixFile::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(ErrnoMessage("fdatasync", path_));
  }
  return Status::OK();
}

Status PosixFile::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return StatusFromIoErrno(errno, "ftruncate", path_);
  }
  size_.store(size, std::memory_order_release);
  return Status::OK();
}

bool RetryingFile::BackoffForRetry(uint32_t attempt) {
  if (attempt >= kMaxRetries) return false;
  std::this_thread::sleep_for(
      std::chrono::microseconds(uint64_t{kInitialBackoffUs} << attempt));
  if (stats_ != nullptr) {
    stats_->io_retries.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

Status RetryingFile::ReadAt(uint64_t offset, void* buf, size_t n) {
  Status st = inner_->ReadAt(offset, buf, n);
  for (uint32_t a = 0; st.IsUnavailable() && BackoffForRetry(a); ++a) {
    st = inner_->ReadAt(offset, buf, n);
  }
  return st;
}

void RetryingFile::RetryFailedReads(ReadOp* ops, size_t n) {
  // Collect the transiently-failed subset and re-issue it as a (smaller)
  // batch; repeat while the budget allows and ops keep failing that way.
  std::vector<ReadOp*> failed;
  for (size_t i = 0; i < n; ++i) {
    if (ops[i].status.IsUnavailable()) failed.push_back(&ops[i]);
  }
  for (uint32_t a = 0; !failed.empty() && BackoffForRetry(a); ++a) {
    std::vector<ReadOp> again(failed.size());
    for (size_t i = 0; i < failed.size(); ++i) {
      again[i].offset = failed[i]->offset;
      again[i].buf = failed[i]->buf;
      again[i].len = failed[i]->len;
    }
    (void)inner_->ReadBatch(again.data(), again.size());
    std::vector<ReadOp*> still;
    for (size_t i = 0; i < failed.size(); ++i) {
      failed[i]->status = again[i].status;
      if (again[i].status.IsUnavailable()) still.push_back(failed[i]);
    }
    failed.swap(still);
  }
}

Status RetryingFile::ReadBatch(ReadOp* ops, size_t n) {
  const Status st = inner_->ReadBatch(ops, n);
  if (!st.ok()) return st;
  RetryFailedReads(ops, n);
  return st;
}

Status RetryingFile::SubmitRead(ReadOp* ops, size_t n, IoTicket* ticket) {
  // Forward straight to the backend so real async submission (and its
  // overlap) is preserved; transient failures are repaired at reap time.
  return inner_->SubmitRead(ops, n, ticket);
}

Status RetryingFile::ReapCompletions(IoTicket* ticket, bool wait) {
  const Status st = inner_->ReapCompletions(ticket, wait);
  if (st.ok() && ticket->done()) {
    RetryFailedReads(ticket->ops, ticket->count);
  }
  return st;
}

Status RetryingFile::WriteAt(uint64_t offset, const void* buf, size_t n) {
  Status st = inner_->WriteAt(offset, buf, n);
  for (uint32_t a = 0; st.IsUnavailable() && BackoffForRetry(a); ++a) {
    st = inner_->WriteAt(offset, buf, n);
  }
  return st;
}

Status RetryingFile::WriteBatch(WriteOp* ops, size_t n) {
  Status st = inner_->WriteBatch(ops, n);
  if (!st.ok()) return st;
  // Writes retry per-op, not as a re-batch: a WriteBatch is only issued
  // by the single writer, so there is no concurrency to amortize, and
  // per-op WriteAt keeps the coalescing logic out of the retry path.
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t a = 0; ops[i].status.IsUnavailable() && BackoffForRetry(a);
         ++a) {
      ops[i].status = inner_->WriteAt(ops[i].offset, ops[i].buf, ops[i].len);
    }
  }
  return st;
}

Status RetryingFile::Append(const void* buf, size_t n) {
  Status st = inner_->Append(buf, n);
  for (uint32_t a = 0; st.IsUnavailable() && BackoffForRetry(a); ++a) {
    st = inner_->Append(buf, n);
  }
  return st;
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(ErrnoMessage("unlink", path));
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace micronn
