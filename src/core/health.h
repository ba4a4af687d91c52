// Health reporting and quarantine bookkeeping for the self-healing layer.
//
// DB::Health() aggregates the degraded/quarantine state scattered
// across the stack — pager ENOSPC read-only mode, checksum strictness,
// the executor's SQ8/attribute quarantine, the incremental-scrub cursor,
// and the integrity counters — into one cheap, copyable snapshot a host
// application (or the BackgroundService loop) can poll per request.
// docs/DURABILITY.md "Health & self-healing" states the semantics of each
// field and of the overall verdict.
#ifndef MICRONN_CORE_HEALTH_H_
#define MICRONN_CORE_HEALTH_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace micronn {

/// Overall serving state, most severe condition wins:
///   kReadOnly        — ENOSPC degraded mode: reads serve every committed
///                      snapshot, writes fail fast.
///   kDegradedServing — results are still correct but something needs
///                      healing: quarantined partitions (float fallback),
///                      lenient checksum mode on a v4 database (sidecar
///                      damage), or unrepairable pages from the last scrub.
///   kHealthy         — none of the above.
enum class HealthVerdict { kHealthy, kDegradedServing, kReadOnly };

const char* HealthVerdictName(HealthVerdict v);

/// Point-in-time health snapshot (DB::Health()). Plain values only — safe
/// to copy across threads, cheap to build (a handful of atomic loads plus
/// two small mutexed copies).
struct HealthReport {
  HealthVerdict verdict = HealthVerdict::kHealthy;

  // ENOSPC read-only degraded mode (docs/DURABILITY.md).
  bool read_only = false;
  std::string read_only_cause;   // error that flipped the mode; "" if none
  uint64_t read_only_for_ms = 0; // monotonic ms since entering; 0 if none

  // Checksum-strictness mode: false while the lazy v3->v4 upgrade or a
  // recreated (damaged) sidecar leaves coverage incomplete.
  bool strict_checksums = false;
  uint32_t format_version = 0;

  // Quarantine: partitions whose SQ8 representation a query observed
  // corrupt (served by the float fallback until re-verified), plus the
  // lifetime count of rows skipped for corrupt attribute records.
  std::vector<uint32_t> quarantined_sq8_partitions;
  uint64_t quarantined_attribute_rows = 0;

  // Incremental-scrub state machine (Pager::ScrubState).
  bool scrub_active = false;
  uint64_t scrub_next_page = 0;
  uint64_t scrub_pages_verified = 0;
  uint64_t scrub_passes_completed = 0;
  uint64_t scrub_pages_repaired = 0;   // last completed pass
  uint64_t scrub_unrepairable = 0;     // last completed pass

  // Integrity subset of IoStats.
  uint64_t corruptions_detected = 0;
  uint64_t io_retries = 0;
  uint64_t wal_wraps = 0;
  uint64_t enospc_probes = 0;

  const char* VerdictName() const { return HealthVerdictName(verdict); }
  /// One-line JSON rendering (tools/health_dump, bench artifacts).
  std::string ToJson() const;
};

/// DB-level record of partitions a query quarantined (thread-safe). The
/// registry is observational: the corruption lives on disk, so a reopened
/// database re-populates it the first time a query touches the damage.
/// ClearVerified() empties it after a scrub pass re-verifies every page
/// cleanly — at that point the quantized representation is trustworthy
/// again (or was rewritten by repair) and queries leave quarantine on
/// their own.
class QuarantineRegistry {
 public:
  void NoteSq8Partition(uint32_t partition) {
    std::lock_guard<std::mutex> lock(mutex_);
    sq8_.insert(partition);
  }
  void NoteAttributeRows(uint64_t rows) {
    if (rows == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    attribute_rows_ += rows;
  }
  bool empty() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sq8_.empty();
  }
  std::vector<uint32_t> Sq8Partitions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::vector<uint32_t>(sq8_.begin(), sq8_.end());
  }
  uint64_t attribute_rows() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return attribute_rows_;
  }
  void ClearVerified() {
    std::lock_guard<std::mutex> lock(mutex_);
    sq8_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::set<uint32_t> sq8_;
  uint64_t attribute_rows_ = 0;
};

}  // namespace micronn

#endif  // MICRONN_CORE_HEALTH_H_
