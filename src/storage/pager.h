// Pager: the transactional page manager.
//
// Composes the main database file, the WAL, and the page cache into the
// concurrency model the paper inherits from SQLite (§3.2, §3.6):
//   - many concurrent snapshot readers (each pinned to a commit sequence),
//   - one writer at a time, buffering private page copies until commit,
//   - commit = append page images to the WAL (+ optional group fsync),
//   - checkpoint = incrementally fold WAL frames at-or-below the oldest
//     live reader horizon back into the main file; the WAL itself is
//     truncated only once everything is folded and no reader remains.
//
// Readers run lock-free against the pager: page resolution goes through
// the WAL's shared-mutex frame index, payloads come from positional preads
// or the sharded page cache, and no lock is ever held across the commit
// fsync on any path a reader touches. The only pager-wide mutex guards the
// reader registry and the published commit horizon, both O(1) critical
// sections.
//
// Page 0 is the database header and carries the freelist and catalog root;
// it is read and written through the same transactional machinery as any
// other page, which is what makes crash recovery uniform.
//
// docs/ARCHITECTURE.md walks the whole stack; docs/DURABILITY.md states
// the crash-recovery guarantees each knob below buys.
#ifndef MICRONN_STORAGE_PAGER_H_
#define MICRONN_STORAGE_PAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/checksums.h"
#include "storage/degraded_mode.h"
#include "storage/file.h"
#include "storage/group_commit.h"
#include "storage/io_backend.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_cache.h"
#include "storage/wal.h"

namespace micronn {

/// Tuning knobs for the storage layer. Every field has a safe default;
/// the comments state it explicitly so callers can reason about what an
/// override changes.
struct PagerOptions {
  /// Page cache budget in bytes (default 8 MiB). This is the main memory
  /// knob for the "constrained memory" experiments (Small vs Large device
  /// profiles). 0 disables caching entirely; every read then goes to the
  /// WAL or the main file.
  size_t cache_bytes = 8ull << 20;

  /// fdatasync the WAL before a commit is acknowledged (full durability;
  /// default false). Concurrent committers share writes and fsyncs via
  /// group commit: each stages its serialized frames in memory and
  /// publishes at once; one leader lands every staged commit with one
  /// contiguous WAL write and one fdatasync, and followers whose commit
  /// that covered return without I/O of their own. A failed batched write
  /// or sync fails the acknowledgement of every commit it covered, sticky
  /// until reopen. When false, durability is deferred to checkpoints —
  /// SQLite's `synchronous=NORMAL`-in-WAL-mode behaviour; atomicity and
  /// isolation are unaffected, and a crash loses at most the
  /// un-checkpointed WAL suffix.
  bool sync_on_commit = false;

  /// Best-effort checkpoint after a commit leaves the WAL with more than
  /// this many frames (default 16384 ≈ 64 MiB of 4 KiB frames; 0 disables
  /// auto-checkpointing). The checkpoint folds frames at-or-below the
  /// oldest live reader snapshot and never blocks foreground work; with a
  /// pinned old reader it simply stops at that horizon and resumes later.
  uint64_t auto_checkpoint_frames = 16384;

  /// Hard WAL backpressure (default 65536 frames ≈ 256 MiB; 0 disables).
  /// When a commit leaves the WAL with more than this many frames, the
  /// committer performs a *blocking* full checkpoint before returning:
  /// it holds the writer slot (so the WAL cannot grow further), folds up
  /// to the reader horizon, and waits up to `wal_backpressure_wait_ms`
  /// for the reader registry to drain so the WAL can be reset. Must be
  /// >= auto_checkpoint_frames to be meaningful.
  uint64_t wal_backpressure_frames = 65536;

  /// Upper bound (default 1000 ms) on how long a backpressure checkpoint
  /// waits for readers to drain before settling for the partial backfill
  /// it already achieved. The bound exists so a caller that commits while
  /// itself holding a read snapshot (e.g. the chunked index rebuild)
  /// degrades to a warning instead of deadlocking.
  uint32_t wal_backpressure_wait_ms = 1000;

  /// Read-I/O backend for the main file and WAL (default kAuto: io_uring
  /// when the build and kernel support it, else blocking pread). The
  /// MICRONN_IO_BACKEND environment variable ("pread"/"uring"/"auto")
  /// overrides this, and an unavailable uring degrades to pread — page
  /// images and query results are bit-identical across backends; only
  /// the syscall pattern of batched reads (Pager::PrefetchPages) differs.
  IoBackend io_backend = IoBackend::kAuto;

  /// Verify the CRC32C of every page read from the main file against the
  /// sidecar checksum file (default true; see docs/DURABILITY.md
  /// "Integrity & degraded modes"). Turning it off only skips read-side
  /// *verification* — checkpoint folds keep maintaining the sidecar either
  /// way, so the knob can be toggled without leaving stale checksums
  /// behind. A mismatch surfaces as Status::Corruption and counts in
  /// IoStats::corruptions_detected; it is never served as page content.
  bool checksum_pages = true;

  /// ENOSPC handling: a commit, WAL flush, or checkpoint that fails with
  /// ResourceExhausted flips the pager into a *read-only degraded mode* —
  /// reads keep serving every committed snapshot, writes fail fast with
  /// ResourceExhausted, and the next BeginWrite probes the filesystem (one
  /// page written and truncated back at EOF) to auto-recover once space
  /// returns.
  ///
  /// Exponential backoff of the degraded-mode space probe. After a probe
  /// fails (disk still full), the next BeginWrite within the backoff
  /// window fails fast with ResourceExhausted and *no* filesystem
  /// syscalls; the window starts at `enospc_probe_backoff_ms` (default
  /// 10 ms) and doubles per failed probe up to
  /// `enospc_probe_max_backoff_ms` (default 5000 ms). A successful probe
  /// resets it. 0 initial backoff disables the rate limit (probe on
  /// every BeginWrite — the pre-backoff behavior). Probes issued count
  /// in IoStats::enospc_probes.
  uint32_t enospc_probe_backoff_ms = 10;
  uint32_t enospc_probe_max_backoff_ms = 5000;

  /// Test hook: wraps each file handle the pager opens (role is "db",
  /// "wal", or "sum" for the page-checksum sidecar) — the seam the
  /// fault-injection harness installs through
  /// (tests/support/fault_injection_file.h). Default empty: handles are
  /// used as opened. Not for production use.
  std::function<std::unique_ptr<FileHandle>(std::unique_ptr<FileHandle>,
                                            std::string_view role)>
      file_wrapper;
};

/// Header page field offsets (page 0).
struct DbHeader {
  static constexpr uint64_t kMagic = 0x314E4E4F5243494DULL;  // "MICRONN1"
  /// Format version with mandatory page checksums: every main-file page
  /// has a sidecar slot and an absent slot is Corruption. Databases at
  /// older versions open normally, accumulate slots lazily (checkpoint
  /// folds cover whatever they touch), and are flipped to v4 by Scrub
  /// once every page is covered.
  static constexpr uint32_t kFormatWithPageChecksums = 4;
  static constexpr size_t kOffMagic = 0;
  static constexpr size_t kOffVersion = 8;
  static constexpr size_t kOffPageSize = 12;
  static constexpr size_t kOffPageCount = 16;
  static constexpr size_t kOffFreelistHead = 20;
  static constexpr size_t kOffFreelistCount = 24;
  static constexpr size_t kOffCatalogRoot = 28;
  static constexpr size_t kOffCommitSeq = 32;
};

class Pager;

/// A held claim on the pager's single writer slot. Write transactions,
/// checkpoints, scrub steps and the degraded-mode space probe all run
/// under one, so at most one of them mutates the files at a time; helpers
/// that need the slot held take a `const WriterSlot&`. Move-only; the
/// destructor releases the slot and wakes one waiter.
class WriterSlot {
 public:
  /// The slot's shared state, one per pager. Only WriterSlot reads or
  /// writes it.
  class Gate {
   private:
    friend class WriterSlot;
    std::mutex writer_mutex_;
    std::condition_variable writer_cv_;
    bool writer_active_ = false;
  };

  /// Blocks until the slot is free.
  static WriterSlot Acquire(Gate* gate);
  /// Busy (with `what` as the message) if the slot is held.
  static Result<WriterSlot> TryAcquire(Gate* gate, const char* what);

  WriterSlot(WriterSlot&& other) noexcept
      : gate_(std::exchange(other.gate_, nullptr)) {}
  WriterSlot& operator=(WriterSlot&&) = delete;
  ~WriterSlot();

 private:
  explicit WriterSlot(Gate* gate) : gate_(gate) {}

  Gate* gate_;  // null once moved from
};

/// Private state of an open write transaction. Created by
/// Pager::BeginWrite and consumed by CommitWrite; dropping it uncommitted
/// discards its pages and releases the writer slot it owns. Not
/// thread-safe; a write transaction belongs to one thread.
class WriteTxnState {
 private:
  friend class Pager;
  explicit WriteTxnState(WriterSlot slot) : slot_(std::move(slot)) {}

  WriterSlot slot_;
  uint64_t base_seq_ = 0;     // snapshot the writer reads through
  uint32_t page_count_ = 0;   // file page count including txn allocations
  std::map<PageId, std::unique_ptr<Page>> dirty_;
};

/// Abstract page access for B+Tree code: implemented by read snapshots and
/// write transactions.
class PageView {
 public:
  virtual ~PageView() = default;
  /// Reads a page image (immutable).
  virtual Result<PagePtr> Read(PageId id) = 0;
  /// Returns a mutable page (write transactions only).
  virtual Result<Page*> Mutable(PageId id) {
    (void)id;
    return Status::NotSupported("read-only transaction");
  }
  /// Allocates a fresh page (write transactions only).
  virtual Result<PageId> Allocate() {
    return Status::NotSupported("read-only transaction");
  }
  /// Returns a page to the freelist (write transactions only).
  virtual Status Free(PageId id) {
    (void)id;
    return Status::NotSupported("read-only transaction");
  }
  virtual bool writable() const = 0;
};

/// Shared state of one in-flight main-file read: a read-ahead batch (the
/// pending pages, their ReadOps, and the backend ticket) or a single
/// demand read. Owned jointly by its reader and the pager's in-flight
/// registry so that a joining demand reader can wait for it or, for a
/// read-ahead, drive the reap itself (Pager::DriveInflight). Defined in
/// pager.cc.
struct InflightBatch;

/// An in-flight read-ahead, returned by Pager::PrefetchPages. The
/// main-file reads it covers were already submitted to the backend when
/// the handle was created; Finish() reaps the completions, verifies
/// checksums, and installs the pages that arrived into the page cache
/// (best-effort: failed pages are skipped). The destructor finishes if
/// the caller did not. A demand read that misses on one of the in-flight
/// pages joins this batch (driving the reap if nobody is) instead of
/// issuing a duplicate read, so Finish() may find the work already done.
///
/// The snapshot the pages were resolved under must stay registered until
/// Finish() returns: that is what keeps the checkpoint backfill from
/// rewriting a version-0 page while its read is in flight (the fold only
/// touches frames at-or-below the oldest registered snapshot). The handle
/// must also not outlive the Pager.
class AsyncPrefetch {
 public:
  ~AsyncPrefetch();
  AsyncPrefetch(const AsyncPrefetch&) = delete;
  AsyncPrefetch& operator=(const AsyncPrefetch&) = delete;

  /// Blocks until every submitted read completed, then installs the
  /// successful pages. Idempotent; per-page failures are dropped (the
  /// demand read will surface them).
  void Finish();

 private:
  friend class Pager;
  AsyncPrefetch() = default;

  Pager* pager_ = nullptr;
  std::shared_ptr<InflightBatch> batch_;
};

/// What Pager::Scrub found and fixed. `unrepairable` pages failed
/// verification with no WAL frame still holding their content — real data
/// loss, reported but not masked.
struct ScrubReport {
  uint64_t pages_scanned = 0;     // main-file pages verified
  uint64_t pages_shadowed = 0;    // skipped: live WAL frame is authoritative
  uint64_t slots_backfilled = 0;  // absent slots computed (lazy upgrade)
  uint64_t corruptions_found = 0;
  uint64_t pages_repaired = 0;    // corrupt pages re-folded from the WAL
  bool upgraded_format = false;   // header flipped to v4 this scrub
  std::vector<PageId> unrepairable;
};

/// Resumable cursor of the incremental scrub (Pager::ScrubStep). A *pass*
/// walks every main-file page once, in steps of at most `max_pages` pages
/// each; the writer slot is held only within a step, so commits interleave
/// between steps. `in_progress` accumulates the active pass's report;
/// `last_report` is the report of the most recently *completed* pass
/// (what Pager::Scrub returns). Snapshot with Pager::scrub_state().
struct ScrubState {
  bool active = false;          // a pass is underway (cursor mid-file)
  PageId next_page = 0;         // first page the next step will visit
  uint64_t pages_verified = 0;  // pages walked this pass (incl. shadowed)
  uint64_t bytes_verified = 0;  // main-file bytes read and checksummed
  uint64_t steps = 0;           // lifetime ScrubStep calls that progressed
  uint64_t passes_completed = 0;
  /// Largest number of pages any single step walked while holding the
  /// writer slot — the bound the scrub-under-traffic test asserts against
  /// its scrub_batch_pages budget.
  uint32_t max_step_pages = 0;
  ScrubReport in_progress;
  ScrubReport last_report;
};

/// The page manager. Thread-safe for concurrent readers plus one writer.
class Pager {
 public:
  /// Opens (creating if needed) the database at `path` with its WAL at
  /// `path + "-wal"`, running crash recovery if the WAL is non-empty.
  static Result<std::unique_ptr<Pager>> Open(const std::string& path,
                                             const PagerOptions& options);

  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Checkpoints (best effort) and closes.
  Status Close();

  // --- Snapshots (readers) ---

  /// Registers a reader and returns its snapshot sequence.
  uint64_t BeginSnapshot();
  /// Deregisters a reader.
  void EndSnapshot(uint64_t seq);
  /// Reads `id` as of `snapshot_seq`.
  Result<PagePtr> ReadPage(PageId id, uint64_t snapshot_seq);

  /// Best-effort batched read-ahead: resolves each page against the WAL
  /// index, skips the cache-resident ones and those already in flight,
  /// serves WAL-frame misses immediately (one WAL batch, synchronously,
  /// under the frame pin — frame reads must not outlive the pin, and the
  /// WAL is the fast minority), submits the main-file misses as one batch
  /// without waiting (FileHandle::SubmitRead — a single submitting
  /// syscall on the uring backend), and returns a handle whose Finish()
  /// reaps the completions and installs the pages. Calling Finish() right
  /// away costs the same syscalls as one blocking batched read; reaping
  /// later lets the reads proceed in the kernel while the caller scores
  /// (the emulated pread backend performs them at Finish() — bit-identical
  /// results, no overlap). Failed pages are skipped (the demand read will
  /// surface them), and installed pages are flagged so
  /// IoStats::pages_prefetched / prefetch_hits track read-ahead efficacy.
  /// Returns nullptr when there is nothing to wait for (cache-resident,
  /// zero cache budget, empty ids) — callers treat nullptr as an
  /// already-finished handle. The caller's snapshot must stay registered
  /// until Finish() returns (see AsyncPrefetch).
  std::unique_ptr<AsyncPrefetch> PrefetchPages(std::span<const PageId> ids,
                                               uint64_t snapshot_seq);

  // --- Writer ---

  /// Starts the (single) write transaction; blocks until the writer slot
  /// is free.
  Result<std::unique_ptr<WriteTxnState>> BeginWrite();
  /// Non-blocking variant; returns Busy if a writer is active.
  Result<std::unique_ptr<WriteTxnState>> TryBeginWrite();

  /// Read within the write transaction (sees own writes).
  Result<PagePtr> ReadForWrite(WriteTxnState* txn, PageId id);
  /// Returns a mutable copy of `id` owned by the transaction.
  Result<Page*> GetMutablePage(WriteTxnState* txn, PageId id);
  /// Allocates a page (freelist pop or file growth); the returned page is
  /// zeroed and already in the dirty set.
  Result<PageId> AllocatePage(WriteTxnState* txn);
  /// Pushes `id` onto the freelist.
  Status FreePage(WriteTxnState* txn, PageId id);

  /// Commits: appends dirty pages to the WAL, publishes the new snapshot,
  /// releases the writer slot, then — with sync_on_commit — waits for a
  /// (possibly shared) WAL fsync to cover the commit before returning.
  /// The state object is consumed. (To roll back, drop the state.)
  Status CommitWrite(std::unique_ptr<WriteTxnState> txn);

  // --- Maintenance ---

  /// Incrementally folds WAL frames into the main file. Live readers no
  /// longer make this Busy: the checkpoint folds every frame at-or-below
  /// the oldest registered snapshot (the reader backfill horizon),
  /// advances the persistent watermark, and returns Ok; only an active
  /// *writer* yields Busy. The WAL file is truncated (reset) only when
  /// every frame is folded and no reader is registered.
  Status Checkpoint();

  /// Walks every main-file page verifying its checksum: backfills absent
  /// slots (the lazy v3->v4 upgrade), re-folds corrupt pages whose content
  /// a live WAL frame still holds, reports the rest as unrepairable, and
  /// flips the header to format v4 once every page is covered. Runs an
  /// incremental checkpoint first so the WAL's view of the world lands;
  /// pages still shadowed by an unfolded frame afterwards are skipped
  /// (their authoritative, frame-checksummed copy is the WAL). Takes the
  /// writer slot; Busy if a writer is active. Implemented as a loop over
  /// ScrubStep with an unbounded batch, so it shares the resumable cursor:
  /// if an incremental pass is mid-file, this call finishes that pass.
  Status Scrub(ScrubReport* report);

  /// One bounded batch of the incremental scrub: verifies at most
  /// `max_pages` pages, then releases the writer slot so commits and
  /// searches interleave (the I/O *rate* budget is the caller's job —
  /// BackgroundService runs a token bucket over the pages it verifies).
  /// The first step of a pass runs the incremental checkpoint, exactly
  /// like the monolithic Scrub. When the cursor reaches the end of the
  /// file the pass completes: `*done` is set, last_report is published,
  /// and the v3->v4 format flip plus strictness restore run if the pass
  /// covered every page cleanly. Busy (with no cursor movement) if a
  /// writer is active; any error leaves the cursor where it was, so the
  /// pass resumes at the next call.
  Status ScrubStep(uint32_t max_pages, bool* done);

  /// Copy of the incremental-scrub cursor and counters.
  ScrubState scrub_state() const;

  /// Probes the filesystem once (respecting the exponential probe
  /// backoff) when in ENOSPC degraded mode, clearing the mode if space
  /// returned — the hook the background service uses to recover a
  /// write-idle database. OK when not degraded or once recovered;
  /// ResourceExhausted while space is still missing (or the probe is
  /// backed off); Busy if a writer is active.
  Status TryRecoverDegraded();

  /// Drops the page cache (cold-start simulation for benchmarks).
  void DropCaches();

  uint64_t last_committed_seq() const;
  uint32_t page_count() const;
  /// WAL observability for tests and monitoring.
  uint64_t wal_frame_count() const { return wal_->frame_count(); }
  uint64_t wal_backfill_watermark() const {
    return wal_->backfill_watermark();
  }
  /// Wrap-around generation of the WAL (0 until the first wrap).
  uint32_t wal_epoch() const { return wal_->epoch(); }
  IoStats& io_stats() { return stats_; }
  const PagerOptions& options() const { return options_; }
  /// Backend the main file actually uses (kPread when uring fell back).
  IoBackend io_backend() const { return io_backend_; }
  /// Snapshot of ENOSPC degraded read-only mode: whether it is on (the
  /// space probe of the next BeginWrite clears it once the filesystem has
  /// room), the error that turned it on, and for how long.
  DegradedMode::State degraded_state() const { return degraded_.state(); }
  /// True when an absent checksum slot is treated as Corruption (format
  /// v4 with an intact sidecar); false while the lazy upgrade or a
  /// recreated sidecar leaves coverage incomplete. Scrub restores it.
  bool strict_checksums() const {
    return strict_checksums_.load(std::memory_order_acquire);
  }
  /// Persisted format version of the database header (>= 4 means page
  /// checksums are mandatory; see DbHeader::kFormatWithPageChecksums).
  uint32_t format_version() const {
    return header_version_.load(std::memory_order_acquire);
  }
  /// Sidecar checksum slots currently present (tests/observability).
  uint64_t checksum_slot_count() const {
    return checksums_ != nullptr ? checksums_->slot_count() : 0;
  }

 private:
  friend class AsyncPrefetch;  // Finish() installs into cache_/stats_

  Pager(std::string path, const PagerOptions& options)
      : options_(options),
        path_(std::move(path)),
        cache_(options.cache_bytes),
        degraded_(path_, options.enospc_probe_backoff_ms,
                  options.enospc_probe_max_backoff_ms, &stats_) {
    cache_.set_io_stats(&stats_);
  }

  Status Initialize();
  // Wraps a freshly opened pager file the same way for every role: the
  // test fault wrapper, then the transient-retry decorator outermost.
  std::unique_ptr<FileHandle> WrapFile(std::unique_ptr<FileHandle> file,
                                       std::string_view role);
  // Reads a committed page image as of `seq`, bypassing txn dirty state.
  Result<PagePtr> ReadCommitted(PageId id, uint64_t seq);
  // CRC32C verification of a main-file page image against the sidecar
  // slot (no-op with checksum_pages off). Counts mismatches in
  // IoStats::corruptions_detected and returns Corruption.
  Status VerifyMainPage(PageId id, const uint8_t* bytes);
  // The body BeginWrite and TryBeginWrite share once they hold the slot:
  // the degraded-mode probe, then a transaction at the current horizon.
  Result<std::unique_ptr<WriteTxnState>> StartWrite(WriterSlot slot);
  // One bounded slice of the scrub's verification walk; caller also holds
  // scrub_mutex_. Walks at most `max_pages` pages from scrub_.next_page,
  // advancing the cursor and accumulating into scrub_.in_progress;
  // `*walked` receives the pages visited this step and `*pass_done`
  // whether the cursor reached the end of the file.
  Status ScrubStepLocked(const WriterSlot& slot, uint32_t max_pages,
                         uint32_t* walked, bool* pass_done);
  // Checkpoint body. Folds up to the reader horizon; when
  // `block_for_readers` is set, additionally waits (bounded by
  // wal_backpressure_wait_ms) for the registry to drain so the fold can
  // complete and the WAL can be reset.
  Status CheckpointImpl(const WriterSlot& slot, bool block_for_readers);
  // Post-commit WAL maintenance: backpressure (blocking) or best-effort
  // auto-checkpoint, depending on the frame count.
  void MaybeCheckpointAfterCommit();
  // The reader backfill horizon: the oldest registered snapshot, or the
  // commit head when no reader is registered. Caller holds mutex_.
  uint64_t HorizonLocked() const;

  PagerOptions options_;
  std::string path_;
  std::unique_ptr<FileHandle> db_file_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<GroupCommit> group_commit_;  // over wal_; set at open
  std::unique_ptr<PageChecksumFile> checksums_;
  IoBackend io_backend_ = IoBackend::kPread;  // effective, set at open
  PageCache cache_;
  IoStats stats_;

  // Persisted header format version. >= kFormatWithPageChecksums makes an
  // absent checksum slot Corruption; older versions tolerate absent slots
  // while the lazy upgrade fills them in. Scrub flips it, hence atomic
  // (readers consult it on every main-file read). A recreated (damaged)
  // sidecar demotes strictness the same way until the next scrub.
  std::atomic<uint32_t> header_version_{0};
  std::atomic<bool> strict_checksums_{false};

  DegradedMode degraded_;

  // Incremental-scrub cursor. scrub_mutex_ serializes scrub drivers (an
  // explicit Scrub vs. the background health monitor) and guards scrub_;
  // each step additionally takes the writer slot for its walk.
  mutable std::mutex scrub_mutex_;
  ScrubState scrub_;
  bool scrub_was_legacy_ = false;  // header was < v4 when the pass began

  // In-flight read registry: main-file pages whose read has not finished
  // yet — a read-ahead batch whose SubmitRead has not been reaped, or a
  // lone demand read mid-pread. A demand read that misses on one of these
  // *joins* the entry instead of issuing a duplicate read: it drives a
  // read-ahead's reap itself if nobody is, or waits for the driver (a
  // demand read is registered already driving). Read-ahead skips them
  // entirely. Joiner-driven reaping is what makes the join deadlock-free:
  // the thread that submitted the prefetch may itself demand-read one of
  // its pages (rerank point reads cross partitions) before calling
  // Finish. Every entry ends through CompleteInflight, which deregisters
  // before signalling, so a woken joiner that still misses the cache
  // (the read failed) becomes the next leader and reads — and reports —
  // on its own.
  std::shared_ptr<InflightBatch> FindInflight(PageId id);
  // Reaps, verifies, and installs `b` exactly once (whoever arrives first
  // drives; everyone else waits), then completes it. Idempotent.
  void DriveInflight(const std::shared_ptr<InflightBatch>& b);
  // Deregisters `b`'s pages, then marks it done and wakes its joiners.
  void CompleteInflight(InflightBatch* b);
  std::mutex inflight_mutex_;
  std::unordered_map<PageId, std::shared_ptr<InflightBatch>> inflight_;

  // Guards the reader registry and the published commit horizon
  // (last_committed_seq_, page_count_). On the read and commit paths it is
  // held only for O(1) registry/publish operations — never across WAL
  // appends, fsyncs, or page reads; the lock-free read path goes through
  // the WAL's own shared-mutex index and the sharded cache instead. The
  // checkpoint takes it only to compute the reader horizon (O(1)) and,
  // when fully folded with no readers, across the final WAL reset so no
  // new reader can register mid-truncate.
  mutable std::mutex mutex_;
  std::multiset<uint64_t> active_readers_;
  uint64_t last_committed_seq_ = 0;
  uint32_t page_count_ = 0;
  // Signalled by EndSnapshot when the registry drains; backpressure
  // checkpoints wait on it.
  std::condition_variable readers_cv_;

  // Writer exclusion (see WriterSlot).
  WriterSlot::Gate writer_gate_;
};

/// PageView over a read snapshot. The caller owns snapshot lifetime.
class ReadView : public PageView {
 public:
  ReadView(Pager* pager, uint64_t seq) : pager_(pager), seq_(seq) {}
  Result<PagePtr> Read(PageId id) override {
    return pager_->ReadPage(id, seq_);
  }
  bool writable() const override { return false; }
  uint64_t seq() const { return seq_; }

 private:
  Pager* pager_;
  uint64_t seq_;
};

/// PageView over a write transaction.
class WriteView : public PageView {
 public:
  WriteView(Pager* pager, WriteTxnState* txn) : pager_(pager), txn_(txn) {}
  Result<PagePtr> Read(PageId id) override {
    return pager_->ReadForWrite(txn_, id);
  }
  Result<Page*> Mutable(PageId id) override {
    return pager_->GetMutablePage(txn_, id);
  }
  Result<PageId> Allocate() override { return pager_->AllocatePage(txn_); }
  Status Free(PageId id) override { return pager_->FreePage(txn_, id); }
  bool writable() const override { return true; }

 private:
  Pager* pager_;
  WriteTxnState* txn_;
};

}  // namespace micronn

#endif  // MICRONN_STORAGE_PAGER_H_
