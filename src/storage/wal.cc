#include "storage/wal.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/logging.h"

namespace micronn {

namespace {

struct FrameHeader {
  uint32_t magic;
  PageId page_id;
  uint64_t commit_seq;
  uint32_t commit_marker;
  uint32_t epoch;  // wrap-around generation this frame belongs to
  uint64_t checksum;
};
static_assert(sizeof(FrameHeader) == Wal::kFrameHeaderSize);

// Format v4 frame checksum: CRC32C over the header bytes before the
// checksum field, extended over the page image. Stored zero-extended in
// the 64-bit field; verification compares all 64 bits.
uint64_t FrameChecksum(const FrameHeader& h, const void* page_bytes) {
  return Crc32cExtend(Crc32c(&h, offsetof(FrameHeader, checksum)),
                      page_bytes, kPageSize);
}

// Whether a frame's checksum holds under the algorithm its magic names:
// CRC32C for v4 frames, FNV-1a for v2/v3 frames (which only a log an
// older build wrote can hold). Any other magic fails.
bool FrameIntact(const FrameHeader& h, const void* page_bytes) {
  if (h.magic == Wal::kFrameMagic) {
    return h.checksum == FrameChecksum(h, page_bytes);
  }
  return h.magic == Wal::kFrameMagicV3 &&
         h.checksum == Hash64(page_bytes, kPageSize,
                              Hash64(&h, offsetof(FrameHeader, checksum)));
}

// On-disk WAL file header, formats v3 and v4 (first kHeaderSize bytes,
// zero-padded).
struct WalFileHeader {
  uint32_t magic;
  uint32_t version;
  uint64_t backfill_watermark;
  uint64_t backfill_seq;
  uint32_t epoch;
  uint32_t reserved;
  uint64_t checksum;  // over the fields above: see HeaderChecksum
};
static_assert(sizeof(WalFileHeader) <= Wal::kHeaderSize);

// Format v2: same layout minus the epoch — still accepted on open (a v2
// log is simply generation 0); the first header rewrite upgrades it.
struct WalFileHeaderV2 {
  uint32_t magic;
  uint32_t version;
  uint64_t backfill_watermark;
  uint64_t backfill_seq;
  uint64_t checksum;
};
static_assert(sizeof(WalFileHeaderV2) <= Wal::kHeaderSize);

// v4: CRC32C, zero-extended like the frame checksum; v3: Hash64.
uint64_t HeaderChecksum(const WalFileHeader& h) {
  const size_t n = offsetof(WalFileHeader, checksum);
  return h.version == 3 ? Hash64(&h, n) : Crc32c(&h, n);
}

uint64_t HeaderChecksumV2(const WalFileHeaderV2& h) {
  return Hash64(&h, offsetof(WalFileHeaderV2, checksum));
}

// Byte offset of 1-based frame `frame_no`.
uint64_t FrameOffset(uint64_t frame_no) {
  return Wal::kHeaderSize + (frame_no - 1) * Wal::kFrameSize;
}

// Runtime verification of a full frame image read from the file: the same
// magic + checksum test recovery applies, plus an optional page-id match
// so a misdirected read (right bytes, wrong slot) cannot serve page A as
// page B. No epoch check: a reader holding a frame pin can never observe
// a frame of another generation (WrapRestart takes the exclusive side).
Status VerifyFrameImage(const uint8_t* frame, uint64_t frame_no,
                        const PageId* expect_page) {
  FrameHeader h;
  std::memcpy(&h, frame, sizeof(h));
  if (!FrameIntact(h, frame + Wal::kFrameHeaderSize)) {
    return Status::Corruption("WAL frame " + std::to_string(frame_no) +
                              " failed checksum verification");
  }
  if (expect_page != nullptr && h.page_id != *expect_page) {
    return Status::Corruption("WAL frame " + std::to_string(frame_no) +
                              " holds page " + std::to_string(h.page_id) +
                              ", expected page " + std::to_string(*expect_page));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       IoStats* stats) {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<File> file, File::Open(path));
  return Open(std::move(file), stats);
}

Result<std::unique_ptr<Wal>> Wal::Open(std::unique_ptr<FileHandle> file,
                                       IoStats* stats) {
  file->set_io_stats(stats);
  std::unique_ptr<Wal> wal(new Wal(std::move(file), stats));
  MICRONN_RETURN_IF_ERROR(wal->Recover());
  return wal;
}

Status Wal::WriteHeader() {
  uint8_t raw[kHeaderSize] = {0};
  WalFileHeader h;
  h.magic = kWalMagic;
  h.version = kFormatVersion;
  h.backfill_watermark = backfill_watermark_.load(std::memory_order_relaxed);
  h.backfill_seq = backfill_seq_.load(std::memory_order_relaxed);
  h.epoch = epoch_.load(std::memory_order_relaxed);
  h.reserved = 0;
  h.checksum = HeaderChecksum(h);
  std::memcpy(raw, &h, sizeof(h));
  return file_->WriteAt(0, raw, kHeaderSize);
}

Status Wal::Recover() {
  // Runs at open, before the Wal is shared: no locking needed.
  if (file_->size() < kHeaderSize) {
    // Fresh WAL (or one torn during creation, before any frame existed):
    // materialize a clean header so later in-place header rewrites never
    // race a growing file.
    if (file_->size() != 0) {
      MICRONN_RETURN_IF_ERROR(file_->Truncate(0));
    }
    MICRONN_RETURN_IF_ERROR(WriteHeader());
    return file_->Sync();
  }

  uint64_t watermark = 0;
  uint64_t watermark_seq = 0;
  uint32_t live_epoch = 0;
  bool have_epoch = false;
  {
    uint8_t raw[kHeaderSize];
    MICRONN_RETURN_IF_ERROR(file_->ReadAt(0, raw, kHeaderSize));
    WalFileHeader h;
    std::memcpy(&h, raw, sizeof(h));
    WalFileHeaderV2 h2;
    std::memcpy(&h2, raw, sizeof(h2));
    if (h.magic == kWalMagic &&
        (h.version == kFormatVersion || h.version == 3) &&
        h.checksum == HeaderChecksum(h)) {
      watermark = h.backfill_watermark;
      watermark_seq = h.backfill_seq;
      live_epoch = h.epoch;
      have_epoch = true;
    } else if (h2.magic == kWalMagic && h2.version == 2 &&
               h2.checksum == HeaderChecksumV2(h2)) {
      // Pre-epoch format: the whole log is generation 0 (v2 frames carry
      // a zero in what is now the epoch field, covered by the same frame
      // checksum, so the scan below validates them unchanged).
      watermark = h2.backfill_watermark;
      watermark_seq = h2.backfill_seq;
      live_epoch = 0;
      have_epoch = true;
    } else if (h.magic == kFrameMagicV3) {
      // Format v1 had no file header: the file starts directly with a
      // frame. Parsing it at the v2+ offsets would mis-checksum every
      // frame and silently truncate committed transactions — refuse
      // loudly instead.
      return Status::Corruption(
          "WAL " + file_->path() +
          " uses the legacy headerless format; checkpoint it with the "
          "previous build (which empties it on close) or delete it to "
          "discard its unfolded commits");
    } else {
      // A torn header rewrite cannot corrupt frames (they start past it);
      // forgetting the watermark only costs a redundant re-fold, and the
      // live epoch re-anchors from the first frame: a restarted log
      // always begins its generation at slot 1, so slot 1's epoch IS the
      // live generation (stale survivors can only sit *behind* newer
      // frames, never at the head).
      MICRONN_LOG(kWarn) << "WAL header invalid in " << file_->path()
                         << "; treating backfill watermark as 0";
    }
  }

  const uint64_t total_frames = (file_->size() - kHeaderSize) / kFrameSize;
  uint64_t valid_frames = 0;     // frames belonging to complete commits
  uint64_t recovered_seq = 0;
  uint64_t scanned = 0;
  std::vector<std::pair<PageId, uint64_t>> pending;  // frames of current txn
  uint64_t pending_seq = 0;
  bool stale_cut = false;
  bool seen_v4 = false;
  FrameHeader header;
  Page page;
  for (uint64_t f = 0; f < total_frames; ++f) {
    const uint64_t off = FrameOffset(f + 1);
    Status st = file_->ReadAt(off, &header, kFrameHeaderSize);
    if (!st.ok()) break;
    st = file_->ReadAt(off + kFrameHeaderSize, page.bytes(), kPageSize);
    if (!st.ok()) break;
    // The checksum follows each frame's own magic, never the header's
    // version: a v3 log's live frames stay valid after a checkpoint has
    // rewritten the header as v4, and a torn header names no version.
    // Frames an older build wrote only ever precede this build's.
    if ((header.magic == kFrameMagicV3 && seen_v4) ||
        !FrameIntact(header, page.bytes())) {
      break;  // torn tail: discard this frame and everything after it
    }
    seen_v4 = seen_v4 || header.magic == kFrameMagic;
    if (!have_epoch) {
      live_epoch = header.epoch;  // slot 1 anchors the live generation
      have_epoch = true;
    }
    if (header.epoch != live_epoch) {
      // Stale survivor: a frame of an earlier wrap-around generation that
      // the current one has not yet overwritten. Its checksum is intact
      // and its content was folded long ago — but it is not part of this
      // log. End of the live chain.
      stale_cut = true;
      break;
    }
    if (!pending.empty() && header.commit_seq != pending_seq) {
      break;  // commit-boundary violation: treat as torn tail
    }
    if (pending.empty() && recovered_seq != 0 &&
        header.commit_seq != recovered_seq + 1) {
      // Commits within one WAL generation carry strictly consecutive
      // sequences; anything else is a stale orphan tail (e.g. remnants of
      // a failed commit that a later, smaller commit overwrote only
      // partially). Never stitch it into history.
      break;
    }
    pending_seq = header.commit_seq;
    pending.emplace_back(header.page_id, f + 1);  // frame numbers 1-based
    ++scanned;
    if (header.commit_marker != 0) {
      // Complete commit: publish pending frames. Frames at-or-below the
      // backfill watermark are part of the commit chain (so the scan above
      // still validates them) but stay out of the index — their images are
      // already durable in the main file, and reads of those pages should
      // fall through to it.
      for (const auto& [pid, frame_no] : pending) {
        if (frame_no > watermark) {
          index_[pid].emplace_back(pending_seq, frame_no);
        }
      }
      commit_bounds_.emplace_back(pending_seq, pending.back().second);
      recovered_seq = std::max(recovered_seq, pending_seq);
      valid_frames = scanned;
      pending.clear();
    }
  }
  if (!pending.empty()) {
    MICRONN_LOG(kWarn) << "WAL recovery discarded "
                       << (scanned - valid_frames)
                       << " frame(s) of an incomplete commit";
  }
  if (stale_cut) {
    MICRONN_LOG(kInfo) << "WAL recovery cut " << (total_frames - valid_frames)
                       << " stale frame(s) of an earlier wrap-around "
                          "generation (live epoch " << live_epoch << ")";
  }
  epoch_.store(live_epoch, std::memory_order_release);

  if (watermark > valid_frames) {
    // The folded prefix extends past the surviving log: either a crash
    // landed between a WAL reset's truncate and its header rewrite, or a
    // tear sits inside the folded region itself, or a wrap-around restart
    // crashed after durably bumping the epoch but before the first frame
    // of the new generation landed (zero valid frames of the live epoch —
    // but only reachable with watermark > 0 via the *old* header, since
    // the epoch bump writes watermark 0). Every folded frame is already
    // durable in the main file, but the survivors can no longer anchor
    // the commit chain, so drop the log outright; the pager then takes
    // its commit horizon from the database header page.
    MICRONN_LOG(kWarn) << "WAL backfill watermark (" << watermark
                       << " frames) exceeds surviving log (" << valid_frames
                       << " frames); discarding WAL in favour of the "
                          "checkpointed main file";
    index_.clear();
    commit_bounds_.clear();
    frame_count_.store(0, std::memory_order_release);
    flushed_frames_.store(0, std::memory_order_release);
    last_committed_seq_.store(0, std::memory_order_release);
    backfill_watermark_.store(0, std::memory_order_release);
    backfill_seq_.store(0, std::memory_order_release);
    MICRONN_RETURN_IF_ERROR(file_->Truncate(kHeaderSize));
    MICRONN_RETURN_IF_ERROR(WriteHeader());
    return file_->Sync();
  }

  frame_count_.store(valid_frames, std::memory_order_release);
  flushed_frames_.store(valid_frames, std::memory_order_release);
  last_committed_seq_.store(recovered_seq, std::memory_order_release);
  backfill_watermark_.store(watermark, std::memory_order_release);
  backfill_seq_.store(watermark_seq, std::memory_order_release);
  // Truncating to the live chain sheds torn tails AND stale survivors of
  // earlier generations, so each reopen re-tightens a wrapped log.
  const uint64_t valid_bytes = kHeaderSize + valid_frames * kFrameSize;
  if (file_->size() != valid_bytes) {
    MICRONN_RETURN_IF_ERROR(file_->Truncate(valid_bytes));
  }
  return Status::OK();
}

void Wal::PublishCommit(
    const std::vector<std::pair<PageId, const Page*>>& pages,
    uint64_t commit_seq, uint64_t base) {
  {
    std::unique_lock<std::shared_mutex> lock(index_mutex_);
    for (size_t i = 0; i < pages.size(); ++i) {
      index_[pages[i].first].emplace_back(commit_seq, base + i + 1);
    }
    commit_bounds_.emplace_back(commit_seq, base + pages.size());
  }
  frame_count_.store(base + pages.size(), std::memory_order_release);
  last_committed_seq_.store(commit_seq, std::memory_order_release);
  if (stats_ != nullptr) {
    stats_->frames_written.fetch_add(pages.size(), std::memory_order_relaxed);
  }
}

Status Wal::AppendCommit(
    const std::vector<std::pair<PageId, const Page*>>& pages,
    uint64_t commit_seq, AppendMode mode, uint64_t* first_frame) {
  if (pages.empty()) return Status::OK();
  // Build the full commit image in one buffer to issue a single write.
  const uint32_t epoch = epoch_.load(std::memory_order_relaxed);
  std::string buf;
  buf.reserve(pages.size() * kFrameSize);
  for (size_t i = 0; i < pages.size(); ++i) {
    FrameHeader h;
    h.magic = kFrameMagic;
    h.page_id = pages[i].first;
    h.commit_seq = commit_seq;
    h.commit_marker = (i + 1 == pages.size()) ? 1 : 0;
    h.epoch = epoch;
    h.checksum = FrameChecksum(h, pages[i].second->bytes());
    buf.append(reinterpret_cast<const char*>(&h), kFrameHeaderSize);
    buf.append(reinterpret_cast<const char*>(pages[i].second->bytes()),
               kPageSize);
  }
  const uint64_t base = frame_count_.load(std::memory_order_relaxed);

  if (mode == AppendMode::kStaged) {
    // Group commit: park the serialized frames; the leader (or a
    // checkpoint) lands every staged commit with one contiguous
    // FlushStaged write. The frames are published below and immediately
    // readable — from memory — so visibility is identical to an immediate
    // append; only durability is deferred to the flush.
    {
      std::lock_guard<std::mutex> lock(staged_mutex_);
      if (staged_buf_.empty()) {
        staged_first_ = base + 1;
      }
      staged_buf_.append(buf);
    }
    if (first_frame != nullptr) {
      *first_frame = base + 1;
    }
    PublishCommit(pages, commit_seq, base);
    return Status::OK();
  }

  // The file write runs with no lock: concurrent readers keep resolving
  // and reading published frames. The unpublished tail is invisible to
  // them until the index update below. Placement is positional at the
  // frame-count offset — never size-based append — so frame numbers stay
  // correct when a failed commit left an orphaned tail, and so a wrapped
  // log overwrites the stale frames of the previous generation slot by
  // slot.
  MICRONN_RETURN_IF_ERROR(ClearDirtyTail(base));
  Status io = file_->WriteAt(FrameOffset(base + 1), buf.data(), buf.size());
  if (!io.ok()) {
    // Best-effort rollback so restart recovery does not replay a commit
    // that was reported failed (its frames carry valid checksums and a
    // commit marker).
    RollbackTail(base, "commit write");
    return io;
  }
  if (stats_ != nullptr) {
    stats_->wal_writes.fetch_add(1, std::memory_order_relaxed);
  }
  if (first_frame != nullptr) {
    *first_frame = base + 1;
  }
  flushed_frames_.store(base + pages.size(), std::memory_order_release);
  PublishCommit(pages, commit_seq, base);
  return Status::OK();
}

Status Wal::FlushStaged() {
  {
    std::lock_guard<std::mutex> lock(staged_mutex_);
    if (staged_buf_.empty()) return Status::OK();
  }
  // One flush at a time; concurrent callers queue here and drain whatever
  // is staged when their turn comes (usually nothing — their group's
  // leader already flushed it).
  std::lock_guard<std::mutex> io_lock(flush_io_mutex_);
  {
    std::lock_guard<std::mutex> lock(staged_mutex_);
    if (staged_buf_.empty()) return Status::OK();
    // Move the pending frames to the flushing buffer so readers keep
    // serving them from memory while the write below runs unlocked, and
    // so commits staged *during* the write land in the next flush.
    flushing_buf_ = std::move(staged_buf_);
    staged_buf_.clear();
    flush_base_ = staged_first_ - 1;
  }
  const uint64_t base = flush_base_;
  const uint64_t frames = flushing_buf_.size() / kFrameSize;
  Status io = ClearDirtyTail(base);
  if (io.ok()) {
    // One contiguous positional write, routed through the batched write
    // path so the uring backend lands it via the ring (and a retry after
    // a torn flush exercises the same code as the first attempt).
    WriteOp op{FrameOffset(base + 1), flushing_buf_.data(),
               flushing_buf_.size(), Status::OK()};
    io = file_->WriteBatch(&op, 1);
    if (io.ok()) io = op.status;
    if (io.ok() && stats_ != nullptr) {
      stats_->wal_writes.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!io.ok()) {
    // The write may have torn: truncate the unknown bytes away, then
    // re-park the frames at the front of the staged buffer. They stay
    // readable in memory — they are *published* commits — and the next
    // flush retries them; whether any of them is ever *acknowledged* is
    // the caller's policy (the pager stops acking synced commits, same as
    // after a failed fsync).
    RollbackTail(base, "staged flush");
    std::lock_guard<std::mutex> lock(staged_mutex_);
    flushing_buf_.append(staged_buf_);
    staged_buf_ = std::move(flushing_buf_);
    flushing_buf_.clear();
    staged_first_ = base + 1;
    return io;
  }
  {
    std::lock_guard<std::mutex> lock(staged_mutex_);
    flushed_frames_.store(base + frames, std::memory_order_release);
    flushing_buf_.clear();
  }
  return Status::OK();
}

Status Wal::ClearDirtyTail(uint64_t base) {
  // A previous failed write's rollback truncate also failed, leaving
  // unknown bytes past the published frames. They must be gone before the
  // next write lands: a *smaller* commit would otherwise leave orphan
  // frames beyond its own, which restart recovery could stitch into a
  // bogus extra commit. Refusing to write until the truncate succeeds
  // turns that silent-corruption path into a clean error.
  if (!dirty_tail_.load(std::memory_order_relaxed)) return Status::OK();
  MICRONN_RETURN_IF_ERROR(file_->Truncate(FrameOffset(base + 1)));
  dirty_tail_.store(false, std::memory_order_relaxed);
  return Status::OK();
}

void Wal::RollbackTail(uint64_t base, const char* what) {
  // Best-effort: if this truncate fails, ClearDirtyTail retries it before
  // any later write. The crash-before-any-retry exposure — a failed write
  // that still proves durable — is the same one SQLite has.
  Status rollback = file_->Truncate(FrameOffset(base + 1));
  if (!rollback.ok()) {
    dirty_tail_.store(true, std::memory_order_relaxed);
    MICRONN_LOG(kWarn) << "WAL rollback after failed " << what << ": "
                       << rollback.ToString();
  }
}

std::optional<uint64_t> Wal::FindFrame(PageId page,
                                       uint64_t snapshot_seq) const {
  std::shared_lock<std::shared_mutex> lock(index_mutex_);
  auto it = index_.find(page);
  if (it == index_.end()) return std::nullopt;
  const auto& versions = it->second;  // ascending commit_seq
  // Last entry with commit_seq <= snapshot_seq.
  auto pos = std::upper_bound(
      versions.begin(), versions.end(), snapshot_seq,
      [](uint64_t seq, const std::pair<uint64_t, uint64_t>& v) {
        return seq < v.first;
      });
  if (pos == versions.begin()) return std::nullopt;
  return (pos - 1)->second;
}

bool Wal::ReadStagedFrame(uint64_t frame_no, Page* out) const {
  std::lock_guard<std::mutex> lock(staged_mutex_);
  if (frame_no <= flushed_frames_.load(std::memory_order_relaxed)) {
    return false;  // a flush landed it meanwhile; the file has it
  }
  const char* src = nullptr;
  if (!flushing_buf_.empty() && frame_no > flush_base_ &&
      frame_no - flush_base_ <= flushing_buf_.size() / kFrameSize) {
    src = flushing_buf_.data() + (frame_no - flush_base_ - 1) * kFrameSize;
  } else if (!staged_buf_.empty() && frame_no >= staged_first_ &&
             frame_no - staged_first_ < staged_buf_.size() / kFrameSize) {
    src = staged_buf_.data() + (frame_no - staged_first_) * kFrameSize;
  }
  if (src == nullptr) return false;
  std::memcpy(out->bytes(), src + kFrameHeaderSize, kPageSize);
  return true;
}

Status Wal::ReadFrame(uint64_t frame_no, Page* out,
                      const PageId* expect_page) const {
  if (frame_no == 0 ||
      frame_no > frame_count_.load(std::memory_order_acquire)) {
    return Status::Corruption("WAL frame " + std::to_string(frame_no) +
                              " out of range");
  }
  // Staged frames are served from memory; everything else is a
  // positional pread of an immutable, already-flushed frame. The
  // flushed cursor only ever advances within a generation, so a stale-low
  // read of it merely sends us through the staged check, which falls
  // through to the pread when the flush already landed the frame. Staged
  // copies were serialized by this process and never left memory, so only
  // the on-file path needs verification.
  if (frame_no > flushed_frames_.load(std::memory_order_acquire)) {
    if (ReadStagedFrame(frame_no, out)) {
      if (stats_ != nullptr) {
        stats_->pages_read_wal.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::OK();
    }
  }
  // Full-frame read (header travels with the payload, still one pread) so
  // the same magic + checksum test recovery applies gates every runtime
  // frame read: a torn or bit-flipped frame surfaces as Corruption, never
  // as page content.
  uint8_t frame[kFrameSize];
  MICRONN_RETURN_IF_ERROR(
      file_->ReadAt(FrameOffset(frame_no), frame, kFrameSize));
  Status verify = VerifyFrameImage(frame, frame_no, expect_page);
  if (!verify.ok()) {
    if (stats_ != nullptr) {
      stats_->corruptions_detected.fetch_add(1, std::memory_order_relaxed);
    }
    return verify;
  }
  std::memcpy(out->bytes(), frame + kFrameHeaderSize, kPageSize);
  if (stats_ != nullptr) {
    stats_->pages_read_wal.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status Wal::ReadFrameBatch(const std::vector<std::pair<uint64_t, Page*>>& ops,
                           std::vector<Status>* per_op,
                           const std::vector<PageId>* expect_pages) const {
  per_op->assign(ops.size(), Status::OK());
  const uint64_t count = frame_count_.load(std::memory_order_acquire);
  const uint64_t flushed = flushed_frames_.load(std::memory_order_acquire);
  uint64_t staged_served = 0;
  std::vector<ReadOp> reads;
  std::vector<size_t> read_idx;  // reads[i] serves ops[read_idx[i]]
  reads.reserve(ops.size());
  read_idx.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const uint64_t frame_no = ops[i].first;
    if (frame_no == 0 || frame_no > count) {
      (*per_op)[i] = Status::Corruption("WAL frame " +
                                        std::to_string(frame_no) +
                                        " out of range");
      continue;
    }
    if (frame_no > flushed && ReadStagedFrame(frame_no, ops[i].second)) {
      ++staged_served;
      continue;
    }
    read_idx.push_back(i);
  }
  if (read_idx.empty()) {
    if (stats_ != nullptr && staged_served > 0) {
      stats_->pages_read_wal.fetch_add(staged_served,
                                       std::memory_order_relaxed);
    }
    return Status::OK();
  }
  // On-file frames are read whole (header + payload, one op each — the
  // 32-byte header rides along) into a scratch arena and verified like
  // ReadFrame before a byte reaches the caller's pages.
  std::vector<uint8_t> arena(read_idx.size() * kFrameSize);
  reads.resize(read_idx.size());
  for (size_t k = 0; k < read_idx.size(); ++k) {
    reads[k].offset = FrameOffset(ops[read_idx[k]].first);
    reads[k].buf = arena.data() + k * kFrameSize;
    reads[k].len = kFrameSize;
    reads[k].status = Status::OK();
  }
  MICRONN_RETURN_IF_ERROR(file_->ReadBatch(reads.data(), reads.size()));
  uint64_t ok_frames = staged_served;
  uint64_t corrupt_frames = 0;
  for (size_t k = 0; k < reads.size(); ++k) {
    const size_t i = read_idx[k];
    Status st = reads[k].status;
    if (st.ok()) {
      const uint8_t* frame = arena.data() + k * kFrameSize;
      const PageId* expect =
          expect_pages != nullptr ? &(*expect_pages)[i] : nullptr;
      st = VerifyFrameImage(frame, ops[i].first, expect);
      if (st.ok()) {
        std::memcpy(ops[i].second->bytes(), frame + kFrameHeaderSize,
                    kPageSize);
        ++ok_frames;
      } else {
        ++corrupt_frames;
      }
    }
    (*per_op)[i] = std::move(st);
  }
  if (stats_ != nullptr) {
    if (ok_frames > 0) {
      stats_->pages_read_wal.fetch_add(ok_frames, std::memory_order_relaxed);
    }
    if (corrupt_frames > 0) {
      stats_->corruptions_detected.fetch_add(corrupt_frames,
                                             std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

std::map<PageId, uint64_t> Wal::LatestFrames(uint64_t seq) const {
  std::shared_lock<std::shared_mutex> lock(index_mutex_);
  std::map<PageId, uint64_t> out;
  for (const auto& [pid, versions] : index_) {
    auto pos = std::upper_bound(
        versions.begin(), versions.end(), seq,
        [](uint64_t s, const std::pair<uint64_t, uint64_t>& v) {
          return s < v.first;
        });
    if (pos != versions.begin()) {
      out[pid] = (pos - 1)->second;
    }
  }
  return out;
}

uint64_t Wal::FramesThrough(uint64_t seq) const {
  std::shared_lock<std::shared_mutex> lock(index_mutex_);
  // Last commit bound with commit_seq <= seq (bounds ascend in both
  // fields: sequences are consecutive and frames are appended in order).
  auto pos = std::upper_bound(
      commit_bounds_.begin(), commit_bounds_.end(), seq,
      [](uint64_t s, const std::pair<uint64_t, uint64_t>& b) {
        return s < b.first;
      });
  if (pos == commit_bounds_.begin()) return 0;
  return (pos - 1)->second;
}

Status Wal::AdvanceBackfillWatermark(uint64_t frames, uint64_t seq) {
  const uint64_t current = backfill_watermark_.load(std::memory_order_acquire);
  if (frames < current) {
    return Status::InvalidArgument("backfill watermark may only advance");
  }
  if (frames > flushed_frames_.load(std::memory_order_acquire)) {
    // The watermark describes frames that are durably on file; staged
    // frames must be flushed before they can be folded.
    return Status::InvalidArgument("backfill watermark beyond flushed frames");
  }
  if (frames == current) return Status::OK();
  backfill_watermark_.store(frames, std::memory_order_release);
  backfill_seq_.store(seq, std::memory_order_release);
  return WriteHeader();
}

Status Wal::Reset() {
  // Only called by the checkpoint after verifying every frame is
  // backfilled and no reader is registered, so no concurrent ReadFrame can
  // observe the truncation; the locks below fence out any straggling
  // FindFrame or pinned read (lock order: frames before index, matching
  // every other taker).
  std::unique_lock<std::shared_mutex> frames_lock(frames_mutex_);
  std::unique_lock<std::shared_mutex> lock(index_mutex_);
  // Durably zero the watermark while the frames still exist. The watermark
  // *reset* must be durable before any new frame lands: a stale-high
  // watermark over a fresh frame generation would make recovery skip
  // frames that were never folded. (Advances need no fsync — the failure
  // direction there merely re-folds.) Truncating the frames first is the
  // wrong order: if the header write or its fsync then fails, the
  // in-memory frame count still points past a file that holds zero frames,
  // the next commit lands beyond that hole, and restart recovery discards
  // the acknowledged tail it cannot stitch across. With this order every
  // failure or crash point leaves "watermark 0 over already-folded
  // frames", which recovery merely re-folds (idempotent).
  // backfill_seq_ keeps the folded horizon for observability; sequence
  // numbers are global to the database, not to one WAL generation, and so
  // is last_committed_seq_, which survives the reset.
  const uint64_t old_watermark =
      backfill_watermark_.load(std::memory_order_acquire);
  backfill_watermark_.store(0, std::memory_order_release);
  Status st = WriteHeader();
  if (st.ok()) st = Sync();
  if (!st.ok()) {
    // The on-disk header is old, new, or torn — recovery handles all three
    // (a torn header reads as watermark 0). Restore the in-memory view of
    // the still-intact frames and report the checkpoint failed.
    backfill_watermark_.store(old_watermark, std::memory_order_release);
    return st;
  }
  // Frames may only disappear once the zero watermark is durable; if this
  // truncate fails they survive under that zero watermark — consistent,
  // just re-folded by the next checkpoint pass.
  MICRONN_RETURN_IF_ERROR(file_->Truncate(kHeaderSize));
  index_.clear();
  commit_bounds_.clear();
  frame_count_.store(0, std::memory_order_release);
  flushed_frames_.store(0, std::memory_order_release);
  dirty_tail_.store(false, std::memory_order_relaxed);  // tail is gone
  return Status::OK();
}

Status Wal::WrapRestart(const std::function<void()>& on_restart) {
  // Preconditions: fully folded, nothing staged, writer excluded by the
  // caller. (Staged frames cannot exist here in practice — a fully folded
  // log implies every frame was flushed — but a direct API user gets a
  // clean error instead of a corrupted generation.)
  {
    std::lock_guard<std::mutex> lock(staged_mutex_);
    if (!staged_buf_.empty() || !flushing_buf_.empty()) {
      return Status::InvalidArgument("WAL wrap with staged frames pending");
    }
  }
  const uint64_t frames = frame_count_.load(std::memory_order_acquire);
  if (frames == 0) return Status::OK();  // already at slot 1
  if (backfill_watermark_.load(std::memory_order_acquire) != frames) {
    return Status::InvalidArgument("WAL wrap before full backfill");
  }
  // Step 1 — durably open the new generation: header gets epoch+1 and
  // watermark 0, fsynced BEFORE any new frame can land. Every crash point
  // is safe: header not durable -> the old generation (fully folded,
  // watermark = frame count) recovers as before; header durable but no
  // new frame yet -> slot 1 still holds an old-epoch frame, the scan cuts
  // immediately, and recovery serves the (complete) main file under an
  // empty log. The watermark must ride along at zero: a stale-high
  // watermark over the slots the new generation is about to reuse would
  // make recovery skip never-folded frames.
  const uint32_t old_epoch = epoch_.load(std::memory_order_relaxed);
  epoch_.store(old_epoch + 1, std::memory_order_release);
  backfill_watermark_.store(0, std::memory_order_release);
  Status st = WriteHeader();
  if (st.ok()) st = Sync();
  if (!st.ok()) {
    // Whatever the disk now holds (old header, new header, torn header),
    // recovery copes; in memory the old generation stays live and fully
    // folded. The caller treats this like any failed WAL fsync.
    epoch_.store(old_epoch, std::memory_order_release);
    backfill_watermark_.store(frames, std::memory_order_release);
    return st;
  }
  // Step 2 — quiesce and restart. The exclusive frame pin waits out every
  // in-flight resolve->read sequence, so no reader can carry a frame
  // number across the recycle; the index lock fences stragglers in
  // FindFrame. The file is deliberately NOT truncated: old-generation
  // frames become stale survivors that new commits overwrite in place
  // (recovery cuts them by epoch), which keeps a wrapped log from
  // truncate/regrow churn on every generation.
  std::unique_lock<std::shared_mutex> frames_lock(frames_mutex_);
  std::unique_lock<std::shared_mutex> index_lock(index_mutex_);
  index_.clear();
  commit_bounds_.clear();
  frame_count_.store(0, std::memory_order_release);
  flushed_frames_.store(0, std::memory_order_release);
  if (on_restart) on_restart();
  if (stats_ != nullptr) {
    stats_->wal_wraps.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status Wal::Sync() {
  MICRONN_RETURN_IF_ERROR(file_->Sync());
  if (stats_ != nullptr) {
    stats_->wal_syncs.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

}  // namespace micronn
