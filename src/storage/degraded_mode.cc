#include "storage/degraded_mode.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "storage/page.h"

namespace micronn {

Status DegradedMode::NoteWriteError(Status st) {
  if (st.IsResourceExhausted() &&
      !read_only_.exchange(true, std::memory_order_acq_rel)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      cause_ = st.ToString();
      since_ = std::chrono::steady_clock::now();
    }
    MICRONN_LOG(kWarn) << "out of disk space; " << path_
                       << " entering read-only degraded mode: "
                       << st.ToString();
  }
  return st;
}

Status DegradedMode::Probe(const WriterSlot& /*slot*/, FileHandle* file) {
  // Writes resume automatically once space returns and fail fast
  // (ResourceExhausted, no partial work) while it has not. After a failed
  // probe the next attempts inside the (exponentially growing) backoff
  // window skip the syscalls entirely: a full disk should not turn every
  // rejected write into two extra filesystem operations.
  if (!read_only_.load(std::memory_order_acquire)) return Status::OK();
  const auto now = std::chrono::steady_clock::now();
  if (probe_backoff_ms_ > 0 && now < next_probe_) {
    return Status::ResourceExhausted(
        "database is read-only (degraded after out-of-space); space probe "
        "backed off");
  }
  stats_->enospc_probes.fetch_add(1, std::memory_order_relaxed);
  const uint64_t end = file->size();
  std::vector<uint8_t> probe(kPageSize, 0);
  Status st = file->WriteAt(end, probe.data(), kPageSize);
  Status restore = file->Truncate(end);  // undo the probe either way
  if (st.ok()) st = restore;
  if (!st.ok()) {
    // A 0 initial backoff keeps the window at 0: probe on every attempt.
    probe_backoff_ms_ =
        probe_backoff_ms_ == 0
            ? backoff_ms_
            : static_cast<uint32_t>(std::min<uint64_t>(
                  2ull * probe_backoff_ms_,
                  std::max(max_backoff_ms_, backoff_ms_)));
    next_probe_ = now + std::chrono::milliseconds(probe_backoff_ms_);
    return Status::ResourceExhausted(
        "database is read-only (degraded after out-of-space); space probe "
        "failed: " +
        st.ToString());
  }
  probe_backoff_ms_ = 0;
  read_only_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cause_.clear();
    since_ = {};
  }
  MICRONN_LOG(kInfo) << path_
                     << ": disk space available again; leaving read-only "
                        "degraded mode";
  return Status::OK();
}

DegradedMode::State DegradedMode::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  State s;
  s.read_only = read_only_.load(std::memory_order_acquire);
  s.cause = cause_;
  if (since_ != std::chrono::steady_clock::time_point{}) {
    s.for_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - since_)
            .count());
  }
  return s;
}

}  // namespace micronn
