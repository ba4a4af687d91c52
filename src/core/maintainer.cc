#include "core/maintainer.h"

#include <algorithm>

#include "common/logging.h"

namespace micronn {

BackgroundService::BackgroundService(DB* db, const Options& options)
    : db_(db), options_(options), thread_([this] { Loop(); }) {}

BackgroundService::~BackgroundService() { Stop(); }

void BackgroundService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void BackgroundService::TriggerNow() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    poke_ = true;
  }
  cv_.notify_all();
}

bool BackgroundService::SleepUnlessStopped(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  return !cv_.wait_for(lock, timeout, [this] { return stop_; });
}

void BackgroundService::Loop() {
  last_refill_ = std::chrono::steady_clock::now();
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, options_.interval, [this] { return stop_ || poke_; });
      if (stop_) return;
      poke_ = false;
    }
    HealthReport h = db_->Health();
    if (h.read_only) {
      // The pager's exponential probe backoff makes this cheap to call
      // every tick: within the backoff window it is a clock read, no
      // filesystem syscalls.
      Status st = db_->engine()->pager()->TryRecoverDegraded();
      if (st.ok() && !db_->engine()->pager()->degraded_state().read_only) {
        enospc_recoveries_.fetch_add(1, std::memory_order_relaxed);
        h = db_->Health();
      }
    }
    if (!h.read_only) {
      MaybeMaintain();
      h = db_->Health();  // a failed Maintain may have changed the state
    }
    if (ScrubWanted(h) && !ScrubPass()) return;  // stopping
  }
}

void BackgroundService::MaybeMaintain() {
  if (options_.delta_trigger == kMaintenanceOff) return;
  Result<bool> due = db_->MaintenanceDue(options_.delta_trigger);
  if (!due.ok()) {
    MICRONN_LOG(kWarn) << "background service: maintenance check failed: "
                       << due.status().ToString();
    return;
  }
  if (!*due) return;
  Result<MaintenanceReport> report = db_->Maintain();
  if (!report.ok()) {
    MICRONN_LOG(kWarn) << "background service: maintain failed: "
                       << report.status().ToString();
    return;
  }
  runs_.fetch_add(1, std::memory_order_relaxed);
  flushed_.fetch_add(report->delta_flushed, std::memory_order_relaxed);
  if (report->full_rebuild) {
    full_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool BackgroundService::ScrubWanted(const HealthReport& h) const {
  if (h.read_only) return false;  // slot writes would fail; space first
  if (h.scrub_active) return true;  // finish the in-flight pass
  if (h.corruptions_detected > scrubbed_corruptions_) return true;
  // Cold-start coverage: latent main-file damage hides behind WAL-first
  // reads, so an operator can ask for one unconditional pass per service
  // lifetime to surface (and repair) it.
  if (options_.scrub_verify_on_start && passes_completed_.load() == 0) {
    return true;
  }
  // A degraded-serving state that predates any pass (e.g. a recreated
  // sidecar demoted strictness at open): one pass re-covers it.
  return h.verdict == HealthVerdict::kDegradedServing &&
         h.scrub_passes_completed == 0;
}

bool BackgroundService::WaitForBudget(uint64_t bytes) {
  const double rate =
      static_cast<double>(options_.scrub_io_budget_bytes_per_sec);
  if (rate <= 0) return SleepUnlessStopped(std::chrono::milliseconds(0));
  // Burst cap: one batch or one second of budget, whichever is larger —
  // enough to never deadlock on a large batch, small enough that an idle
  // bucket cannot bankroll an unthrottled burst much past the rate.
  const double cap = std::max(static_cast<double>(bytes), rate);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    tokens_ = std::min(
        cap, tokens_ + rate * std::chrono::duration<double>(now - last_refill_)
                                 .count());
    last_refill_ = now;
    if (tokens_ >= static_cast<double>(bytes)) {
      tokens_ -= static_cast<double>(bytes);
      return true;
    }
    const auto wait = std::chrono::duration<double>(
        (static_cast<double>(bytes) - tokens_) / rate);
    if (!SleepUnlessStopped(
            std::chrono::duration_cast<std::chrono::milliseconds>(wait) +
            std::chrono::milliseconds(1))) {
      return false;
    }
  }
}

bool BackgroundService::ScrubPass() {
  const uint64_t batch_bytes =
      static_cast<uint64_t>(options_.scrub_batch_pages) * kPageSize;
  int consecutive_busy = 0;
  for (;;) {
    if (!WaitForBudget(batch_bytes)) return false;
    Result<bool> step = db_->ScrubStep(options_.scrub_batch_pages);
    if (!step.ok()) {
      if (step.status().IsBusy() && ++consecutive_busy < 50) {
        // A commit holds the writer slot right now. Refund the unused
        // budget and retry shortly; heavy write traffic eventually
        // defers the rest of the pass to the next tick.
        tokens_ += static_cast<double>(batch_bytes);
        if (!SleepUnlessStopped(std::chrono::milliseconds(1))) return false;
        continue;
      }
      if (!step.status().IsBusy()) {
        MICRONN_LOG(kWarn) << "background service: scrub step failed: "
                           << step.status().ToString();
      }
      return true;
    }
    consecutive_busy = 0;
    scrub_steps_.fetch_add(1, std::memory_order_relaxed);
    if (*step) {
      passes_completed_.fetch_add(1, std::memory_order_relaxed);
      // Baseline for the next trigger: everything the pass itself
      // counted (it increments corruptions_detected per corrupt page)
      // is now accounted for; only *new* observations re-arm the
      // service, so unrepairable damage cannot cause a rescrub loop.
      scrubbed_corruptions_ = db_->Health().corruptions_detected;
      return true;
    }
  }
}

}  // namespace micronn
