// Write-ahead log.
//
// Mirrors SQLite's WAL design, which the paper relies on for ACID updates
// and single-writer/multi-reader snapshot isolation (§3.6): committed
// transactions append page images ("frames") to a side log; readers resolve
// a page to the newest frame at-or-before their snapshot; a checkpoint
// copies the newest frames back into the main file. Checkpoints are
// *incremental*: a persistent backfill watermark in the WAL file header
// records how many leading frames have already been folded into the main
// file, so a checkpoint that is cut short by a live reader horizon resumes
// where it left off, and recovery skips re-indexing the folded prefix.
//
// Format v3 adds two things on top of that:
//   - *Staged commits*: AppendCommit can stage a commit's serialized
//     frames in memory instead of writing them; the group-commit leader
//     later lands every staged commit with one contiguous FlushStaged
//     write before the shared fdatasync (batched appends, not just
//     batched fsyncs).
//   - *Wrap-around*: once every frame is folded into the main file,
//     WrapRestart begins a new frame generation at slot 1, overwriting
//     the reclaimed prefix instead of growing the file — even while
//     reader snapshots keep the file pinned open. Every frame carries the
//     epoch of its generation; recovery accepts only frames of the live
//     epoch, so stale survivors of the previous generation past the new
//     head are never stitched into history.
// Format v4 checksums frames and the file header with CRC32C instead of
// the byte-serial FNV-1a of v2/v3. Every frame names its own format by
// its magic, so a log an older build left with live frames keeps
// recovering frame by frame, whatever version a later header rewrite
// stamps.
// See docs/ARCHITECTURE.md for the full frame lifecycle and
// docs/DURABILITY.md for the crash-ordering rules.
#ifndef MICRONN_STORAGE_WAL_H_
#define MICRONN_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/file.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace micronn {

/// Append-only WAL file plus its in-memory index.
///
/// File layout: a 64-byte header (magic, format version, backfill
/// watermark, epoch) followed by fixed-size frames. Frame numbers are
/// 1-based and positional: frame `f` lives at byte offset `kHeaderSize +
/// (f-1) * kFrameSize` — always, including after a wrap-around restart
/// (a restart begins a new generation at slot 1; it never remaps slots).
///
/// Internally synchronized for the pager's concurrency model: any number
/// of snapshot readers call FindFrame/ReadFrame concurrently with the one
/// writer appending commits. The frame index is guarded by a shared_mutex
/// that the writer holds only for the in-memory publish step — never
/// across the commit append or its fsync — so readers are not stalled by
/// commit I/O. Frame payload reads are positional preads (or staged-buffer
/// copies) under a shared PinFrames lock whose exclusive side is taken
/// only by Reset/WrapRestart, the two operations that recycle frame
/// numbers.
class Wal {
 public:
  /// WAL file header: magic + version + backfill watermark + epoch +
  /// checksum, zero-padded to 64 bytes. Rewritten in place after each
  /// checkpoint step; a stale (lower) watermark on disk is always safe
  /// because re-folding an already-folded frame is idempotent. The *epoch*
  /// field is the exception: a wrap-around restart must make the new epoch
  /// durable (header write + fsync) before any frame of the new generation
  /// lands, so recovery can never validate a stale-generation frame chain
  /// under the new head.
  static constexpr size_t kHeaderSize = 64;
  static constexpr uint32_t kWalMagic = 0x4C41574D;  // "MWAL"
  static constexpr uint32_t kFormatVersion = 4;

  /// Frame layout: 32-byte header + page image. The magic selects the
  /// checksum: kFrameMagic frames (the only kind this build writes) carry
  /// a CRC32C of header-before-checksum + page, zero-extended to 64 bits;
  /// kFrameMagicV3 frames, found only in logs an older build wrote, carry
  /// FNV-1a Hash64.
  static constexpr size_t kFrameHeaderSize = 32;
  static constexpr size_t kFrameSize = kFrameHeaderSize + kPageSize;
  static constexpr uint32_t kFrameMagic = 0x344E4E57;    // "WNN4"
  static constexpr uint32_t kFrameMagicV3 = 0x4D4E4E57;  // "WNNM"

  /// How AppendCommit materializes a commit's frames.
  enum class AppendMode {
    kWrite,   // one positional write now, no fsync
    kStaged,  // publish in memory only; FlushStaged() writes them later
  };

  /// Opens (creating if missing) the WAL at `path` and recovers its index:
  /// frames of incomplete or corrupt trailing commits — and stale frames
  /// of an earlier wrap-around generation (epoch mismatch) — are discarded
  /// and the file is truncated to the last durable commit. Frames
  /// at-or-below the persisted backfill watermark are scanned (their
  /// commit chain still validates the log) but not indexed — their content
  /// already lives in the main database file. Format v2 files (pre-epoch)
  /// open seamlessly as epoch 0, and v2/v3 frames verify by their magic.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           IoStats* stats);

  /// Same recovery over an already-open handle. The pager uses this to
  /// route the WAL through a selected I/O backend (or a test's
  /// fault-injection wrapper, PagerOptions::file_wrapper).
  static Result<std::unique_ptr<Wal>> Open(std::unique_ptr<FileHandle> file,
                                           IoStats* stats);

  /// Appends one committed transaction: every (page, image) pair in
  /// `pages`, the last frame carrying the commit marker for `commit_seq`.
  /// On success the index reflects the new frames and `*first_frame` (if
  /// non-null) is set to the 1-based number of the commit's first frame —
  /// pages[i] is frame `*first_frame + i`. Single writer (serialized by
  /// the pager).
  ///
  /// kWrite: the file write happens before the index publish, so
  /// concurrent FindFrame callers only ever see fully written frames.
  /// Frames are placed positionally at the frame-count offset (not
  /// appended at the file size) — mandatory once the log has wrapped,
  /// where stale frames of the previous generation legitimately extend the
  /// file past the write offset and are simply overwritten. On failure the
  /// tail is truncated best-effort so restart recovery does not replay the
  /// failed commit; if that truncate also fails, the orphan is remembered
  /// and re-truncated before the next write lands.
  ///
  /// kStaged (group commit with sync_on_commit): no file I/O at all — the
  /// serialized frames are parked in the staged buffer and the index is
  /// published immediately (reads of the new frames are served from
  /// memory). A later FlushStaged() — the group-commit leader or a
  /// checkpoint — lands every staged commit with one contiguous write.
  /// Never combine kStaged commits with a crash-consistency expectation
  /// short of that flush: until it runs, the frames exist only in this
  /// process.
  Status AppendCommit(
      const std::vector<std::pair<PageId, const Page*>>& pages,
      uint64_t commit_seq, AppendMode mode, uint64_t* first_frame = nullptr);

  /// Writes every staged commit to the file as one contiguous positional
  /// write, in commit order. No-op when nothing is staged.
  /// Serialized internally; safe to call from the group-commit leader
  /// concurrently with new commits staging more frames (those simply go
  /// into the next flush). On failure the frames are re-parked (still
  /// readable in memory, retried by the next flush) and the torn file tail
  /// is truncated best-effort — the caller decides what a failed flush
  /// means for commit acknowledgement (the pager applies the same sticky
  /// rule as a failed commit fsync).
  Status FlushStaged();

  /// Newest frame for `page` with commit sequence <= `snapshot_seq`.
  /// Frame numbers returned are 1-based (0 is reserved for "main file").
  /// Thread-safe against the writer's index publish.
  std::optional<uint64_t> FindFrame(PageId page, uint64_t snapshot_seq) const;

  /// Reads the page image of 1-based frame `frame_no` — a positional pread
  /// for flushed frames, a buffer copy for staged ones. On-file frames are
  /// read whole and verified (magic + checksum, the same test recovery
  /// applies) before any byte is copied out; a torn or flipped frame is
  /// Status::Corruption, counted in IoStats::corruptions_detected. A
  /// non-null `expect_page` additionally requires the frame header's page
  /// id to match (guards against misdirected reads). Callers that can
  /// race a wrap-around restart (any registered reader snapshot) must hold
  /// PinFrames() across their resolve (FindFrame) AND this read, so the
  /// resolved frame number cannot be recycled in between; the writer and
  /// the checkpointer (who themselves perform restarts) need no pin.
  Status ReadFrame(uint64_t frame_no, Page* out,
                   const PageId* expect_page = nullptr) const;

  /// One batched frame read of a Pager::PrefetchPages miss set.
  /// ops[i].second receives the page image of 1-based frame ops[i].first;
  /// per-frame outcomes land in (*per_op)[i] (sized by this call). Every
  /// on-file frame is verified like ReadFrame; `expect_pages` (if
  /// non-null, sized like `ops`) pins each frame to its expected page id.
  /// The return value reports transport-level failure only, so a
  /// best-effort prefetch can keep the frames that did arrive. Same
  /// pinning contract as ReadFrame.
  Status ReadFrameBatch(const std::vector<std::pair<uint64_t, Page*>>& ops,
                        std::vector<Status>* per_op,
                        const std::vector<PageId>* expect_pages = nullptr) const;

  /// Shared pin on the frame address space: while held, no frame number
  /// can be recycled (Reset and WrapRestart take the exclusive side).
  /// Readers hold it across resolve->read->cache-insert so a wrap-around
  /// under live readers can never tear a page read or let a stale frame
  /// image be cached under a recycled frame number. Cheap: uncontended
  /// shared acquisition, exclusive taken once per WAL generation.
  std::shared_lock<std::shared_mutex> PinFrames() const {
    return std::shared_lock<std::shared_mutex>(frames_mutex_);
  }

  /// Page -> newest frame (1-based) among commits <= `seq`; the checkpoint
  /// working set. Entries whose frame number is at-or-below the backfill
  /// watermark are already folded into the main file.
  std::map<PageId, uint64_t> LatestFrames(uint64_t seq) const;

  /// Number of frames that belong to commits with sequence <= `seq` — the
  /// backfill target for a checkpoint whose reader horizon is `seq`.
  /// Commits occupy contiguous frame ranges in sequence order, so this is
  /// always a frame-count prefix of the log.
  uint64_t FramesThrough(uint64_t seq) const;

  /// Records that the leading `frames` frames (covering commits through
  /// `seq`) have been folded into the main file, and persists the new
  /// watermark in the WAL header. The caller must have fsynced both the
  /// WAL (so the folded frames cannot be torn behind the watermark) and
  /// the main file (so the folded images are durable) first; staged frames
  /// must have been flushed (the watermark describes on-file frames). The
  /// header rewrite is deliberately *not* fsynced: losing it only lowers
  /// the on-disk watermark, and re-folding is idempotent. Monotonic; a
  /// value below the current watermark is an error.
  Status AdvanceBackfillWatermark(uint64_t frames, uint64_t seq);

  /// Discards all frames, truncates the file to the header, and resets the
  /// backfill watermark to zero. The watermark reset is fsynced before
  /// returning: unlike an advance, a *stale-high* watermark over a fresh
  /// frame generation would make recovery skip frames that were never
  /// folded. Only called once every frame is backfilled and no reader is
  /// registered (when readers persist, WrapRestart is the reclaim path).
  Status Reset();

  /// Begins a new frame generation at slot 1 *without* truncating the
  /// file: the wrap-around reclaim for the case where every frame is
  /// folded but live reader snapshots still pin the log. Ordering: the
  /// incremented epoch (with a zero watermark) is made durable in the
  /// header first — while the old frames are still intact — then, under
  /// the exclusive frame pin (quiescing in-flight reads), the index is
  /// cleared and the frame cursor returns to slot 1; `on_restart` (may be
  /// null) runs inside that exclusive section so the caller can invalidate
  /// frame-keyed caches before any reader can resolve against the new
  /// generation. Old-generation frames beyond the new head become *stale
  /// survivors*: recovery cuts the frame scan at the first epoch mismatch,
  /// and new commits simply overwrite them slot by slot. Requires a fully
  /// folded log with nothing staged; the single writer must be excluded by
  /// the caller. On failure (header write/fsync) the old generation is
  /// fully intact and remains live.
  Status WrapRestart(const std::function<void()>& on_restart = nullptr);

  /// fdatasync the WAL file (counted in IoStats::wal_syncs).
  Status Sync();

  uint64_t frame_count() const {
    return frame_count_.load(std::memory_order_acquire);
  }
  uint64_t last_committed_seq() const {
    return last_committed_seq_.load(std::memory_order_acquire);
  }
  /// Frames already folded into the main file (prefix of the log).
  uint64_t backfill_watermark() const {
    return backfill_watermark_.load(std::memory_order_acquire);
  }
  /// Commit sequence the backfill watermark corresponds to.
  uint64_t backfill_seq() const {
    return backfill_seq_.load(std::memory_order_acquire);
  }
  /// Wrap-around generation: 0 at creation, +1 per WrapRestart.
  uint32_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  Wal(std::unique_ptr<FileHandle> file, IoStats* stats)
      : file_(std::move(file)), stats_(stats) {}

  Status Recover();
  // Serializes the current watermark + epoch into the on-disk header.
  Status WriteHeader();
  // Serves `frame_no` from the staged/flushing buffers if it is still
  // memory-resident; returns false if it is already on file.
  bool ReadStagedFrame(uint64_t frame_no, Page* out) const;
  // Publishes a commit's frames to the index and the counters (the step
  // shared by immediate and staged appends).
  void PublishCommit(
      const std::vector<std::pair<PageId, const Page*>>& pages,
      uint64_t commit_seq, uint64_t base);
  // Before a write at frame `base + 1`: truncates away the unknown bytes a
  // failed rollback left there (dirty_tail_), if any.
  Status ClearDirtyTail(uint64_t base);
  // After a failed write at frame `base + 1`: truncates the possibly torn
  // tail, or arms dirty_tail_ (and warns, naming `what` failed) if that
  // truncate fails too.
  void RollbackTail(uint64_t base, const char* what);

  std::unique_ptr<FileHandle> file_;
  IoStats* stats_;
  std::atomic<uint64_t> frame_count_{0};         // published frames
  std::atomic<uint64_t> last_committed_seq_{0};  // 0 = empty WAL
  std::atomic<uint64_t> backfill_watermark_{0};  // frames folded into main
  std::atomic<uint64_t> backfill_seq_{0};        // seq folded through
  std::atomic<uint32_t> epoch_{0};               // wrap-around generation
  // Frames whose bytes are in the file (never > frame_count_; the gap is
  // the staged commits). Advanced by immediate appends and successful
  // flushes; reset by Reset/WrapRestart.
  std::atomic<uint64_t> flushed_frames_{0};
  // A failed write's rollback truncate also failed: unknown bytes sit past
  // flushed_frames_ and must be truncated away before the next write lands
  // (a *smaller* later commit would otherwise leave orphan frames beyond
  // its own for recovery to mis-stitch). Replaces the old file-size
  // heuristic, which wrap-around broke: past a restart, a file larger than
  // the write offset is the normal state, not evidence of an orphan.
  std::atomic<bool> dirty_tail_{false};
  // Guards index_ and commit_bounds_. Readers (FindFrame/LatestFrames/
  // FramesThrough) take it shared; the writer takes it exclusive only for
  // the brief in-memory publish at the end of AppendCommit and during
  // Reset/WrapRestart. Lock order: frames_mutex_ before index_mutex_.
  mutable std::shared_mutex index_mutex_;
  // page -> [(commit_seq, frame_no)] in append (= ascending seq) order.
  std::unordered_map<PageId, std::vector<std::pair<uint64_t, uint64_t>>>
      index_;
  // (commit_seq, last frame of that commit) in append order; binary-searched
  // by FramesThrough to turn a reader-horizon sequence into a frame prefix.
  std::vector<std::pair<uint64_t, uint64_t>> commit_bounds_;
  // Frame address space pin (see PinFrames). Exclusive holders:
  // Reset/WrapRestart only.
  mutable std::shared_mutex frames_mutex_;
  // Staged-commit buffers. staged_mutex_ guards the two buffers and
  // their base frame numbers; flush_io_mutex_ serializes FlushStaged
  // bodies so exactly one flush write is in flight, with the buffer moved
  // to flushing_buf_ (still readable) for the unlocked write's duration.
  mutable std::mutex staged_mutex_;
  std::string staged_buf_;        // frames (staged_first_-1, frame_count_]
  uint64_t staged_first_ = 0;     // frame number of staged_buf_'s first frame
  std::string flushing_buf_;      // frames being written by FlushStaged
  uint64_t flush_base_ = 0;       // flushing_buf_ holds frames flush_base_+1..
  std::mutex flush_io_mutex_;
};

}  // namespace micronn

#endif  // MICRONN_STORAGE_WAL_H_
