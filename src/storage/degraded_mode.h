// DegradedMode: the pager's ENOSPC read-only mode (docs/DURABILITY.md
// "Integrity & degraded modes").
//
// A commit, WAL flush, checkpoint or scrub write that fails with
// ResourceExhausted turns the mode on. Reads keep serving every committed
// snapshot; each write attempt first probes the filesystem for space and
// fails fast with ResourceExhausted while there is none. A probe that
// succeeds turns the mode off, so writes resume once space returns.
#ifndef MICRONN_STORAGE_DEGRADED_MODE_H_
#define MICRONN_STORAGE_DEGRADED_MODE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>

#include "common/status.h"
#include "storage/file.h"
#include "storage/io_stats.h"

namespace micronn {

class WriterSlot;

class DegradedMode {
 public:
  /// What the health report shows of the mode.
  struct State {
    bool read_only = false;
    std::string cause;    // the error that turned it on; empty when off
    uint64_t for_ms = 0;  // monotonic time since it turned on; 0 when off
  };

  /// `path` names the database in log lines. A failed probe backs off for
  /// `backoff_ms`, doubling per further failure up to `max_backoff_ms`;
  /// probes count in `stats->enospc_probes`.
  DegradedMode(std::string path, uint32_t backoff_ms, uint32_t max_backoff_ms,
               IoStats* stats)
      : path_(std::move(path)),
        backoff_ms_(backoff_ms),
        max_backoff_ms_(max_backoff_ms),
        stats_(stats) {}

  /// Turns the mode on when `st` is ResourceExhausted; returns `st`.
  Status NoteWriteError(Status st);

  /// OK when the mode is off. Otherwise probes `file` for space — one
  /// page written past its end, truncated straight back — and turns the
  /// mode off on success; ResourceExhausted while space is still missing
  /// or a failed probe's backoff window is open. The held writer slot
  /// keeps the probe from racing a write and guards the backoff state.
  Status Probe(const WriterSlot& slot, FileHandle* file);

  State state() const;

 private:
  const std::string path_;
  const uint32_t backoff_ms_;
  const uint32_t max_backoff_ms_;
  IoStats* const stats_;

  // Probe's lock-free fast path; every write attempt reads it.
  std::atomic<bool> read_only_{false};
  mutable std::mutex mutex_;  // guards cause_ and since_
  std::string cause_;
  std::chrono::steady_clock::time_point since_{};
  // Probe backoff, touched only under the writer slot.
  uint32_t probe_backoff_ms_ = 0;  // 0 until a probe fails
  std::chrono::steady_clock::time_point next_probe_{};
};

}  // namespace micronn

#endif  // MICRONN_STORAGE_DEGRADED_MODE_H_
