// The background service loop (paper Figure 1's "Index Monitor": tracks
// index quality upon updates and triggers re-indexing when necessary),
// which also runs the auto-recovery half of the health subsystem (see
// docs/DURABILITY.md "Health & self-healing").
//
// One service thread. Each tick, in order:
//   1. reads DB::Health(); in ENOSPC read-only mode it re-probes the
//      filesystem via Pager::TryRecoverDegraded() (the pager's exponential
//      probe backoff keeps that cheap), so a write-idle database leaves
//      degraded mode without waiting for the next write;
//   2. unless the store is read-only, runs DB::Maintain() when it is due:
//      the delta store holds at least `delta_trigger` rows, or rows exist
//      but no index has been built (Maintain escalates to a full rebuild
//      on the growth threshold on its own);
//   3. drives budgeted incremental scrub batches (DB::ScrubStep) when
//      corruption or quarantine has been observed, pacing the verification
//      reads with a token bucket so repair runs *beside* traffic instead
//      of instead of it. A clean pass clears the quarantine registry,
//      returning queries to quantized plans with no operator action.
// Maintenance and scrub share the thread, so they never compete for the
// writer slot. Host applications that prefer explicit control simply
// never start one and call Maintain()/Scrub() themselves.
#ifndef MICRONN_CORE_MAINTAINER_H_
#define MICRONN_CORE_MAINTAINER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <thread>

#include "core/db.h"

namespace micronn {

class BackgroundService {
 public:
  struct Options {
    /// How often the loop ticks.
    std::chrono::milliseconds interval{250};
    /// Run maintenance once the delta store holds at least this many
    /// vectors. UINT64_MAX turns maintenance off (a healing-only service).
    uint64_t delta_trigger = 1000;
    /// Pages verified per ScrubStep — the writer-slot hold is bounded by
    /// one such batch; commits interleave between batches.
    uint32_t scrub_batch_pages = 256;
    /// Token-bucket refill rate for scrub verification reads (default
    /// 8 MiB/s, roughly background-priority on phone-class flash).
    /// 0 disables throttling.
    uint64_t scrub_io_budget_bytes_per_sec = 8ull << 20;
    /// Also run one full verification pass when the service starts, even
    /// with no symptom observed. Reads are WAL-first, so damage to folded
    /// main-file pages is invisible to queries until the frame index is
    /// gone — a cold-start coverage pass is the only way to find (and
    /// repair, while the WAL still holds the pristine frames) such latent
    /// corruption. Costs one budgeted read of the whole file.
    bool scrub_verify_on_start = false;
  };

  /// Starts the service thread immediately. `db` must outlive this object.
  BackgroundService(DB* db, const Options& options);
  ~BackgroundService();

  BackgroundService(const BackgroundService&) = delete;
  BackgroundService& operator=(const BackgroundService&) = delete;

  /// Stops the thread (idempotent; also run by the destructor). Returns
  /// promptly even while a throttled scrub waits on its token bucket.
  void Stop();

  /// Wakes the thread for an immediate tick.
  void TriggerNow();

  /// Number of maintenance passes executed.
  uint64_t maintenance_runs() const {
    return runs_.load(std::memory_order_relaxed);
  }
  /// Total delta rows flushed by this service.
  uint64_t total_flushed() const {
    return flushed_.load(std::memory_order_relaxed);
  }
  /// Full rebuilds the maintenance policy escalated to.
  uint64_t full_rebuilds() const {
    return full_rebuilds_.load(std::memory_order_relaxed);
  }
  /// Scrub batches this service drove.
  uint64_t scrub_steps() const {
    return scrub_steps_.load(std::memory_order_relaxed);
  }
  /// Whole-file scrub passes this service completed.
  uint64_t passes_completed() const {
    return passes_completed_.load(std::memory_order_relaxed);
  }
  /// ENOSPC degraded-mode exits this service's probing achieved.
  uint64_t enospc_recoveries() const {
    return enospc_recoveries_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr uint64_t kMaintenanceOff =
      std::numeric_limits<uint64_t>::max();

  void Loop();
  // Step 2: Maintain() when DB::MaintenanceDue says so.
  void MaybeMaintain();
  // Whether the observed state calls for (more) scrubbing. Event-driven:
  // beyond finishing an in-flight pass, triggers only when the corruption
  // counter moved past the post-pass baseline (or a degraded-serving
  // state predates any pass), so unrepairable damage does not send the
  // service into a permanent rescrub loop.
  bool ScrubWanted(const HealthReport& h) const;
  // Step 3: budgeted scrub batches until the pass completes or traffic
  // defers the rest to the next tick. Returns false when stopping.
  bool ScrubPass();
  // Blocks (stop-aware) until the token bucket holds `bytes`; returns
  // false when stopping. Unbudgeted = immediate true.
  bool WaitForBudget(uint64_t bytes);
  // Sleeps up to `timeout` or until stopped; returns false when stopping.
  bool SleepUnlessStopped(std::chrono::milliseconds timeout);

  DB* db_;
  Options options_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool poke_ = false;
  std::atomic<uint64_t> runs_{0};
  std::atomic<uint64_t> flushed_{0};
  std::atomic<uint64_t> full_rebuilds_{0};
  std::atomic<uint64_t> scrub_steps_{0};
  std::atomic<uint64_t> passes_completed_{0};
  std::atomic<uint64_t> enospc_recoveries_{0};
  // Loop-thread-only state: corruption counter at the end of the last
  // completed pass, and the token bucket.
  uint64_t scrubbed_corruptions_ = 0;
  double tokens_ = 0;
  std::chrono::steady_clock::time_point last_refill_{};
  std::thread thread_;
};

}  // namespace micronn

#endif  // MICRONN_CORE_MAINTAINER_H_
