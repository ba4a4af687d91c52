#include "storage/pager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#include "common/crc32c.h"
#include "common/logging.h"

namespace micronn {

// Shared state of one in-flight main-file read (see pager.h). For a
// read-ahead batch, the ticket, the ReadOps it points at, and every page
// buffer live here so the AsyncPrefetch handle and the pager's in-flight
// registry can co-own them: whichever thread arrives first — the handle's
// Finish() or a demand read joining one of the pages — drives the reap
// (Pager::DriveInflight), and the other waits on `cv`. A demand read
// registers an entry with no ops, already driving, so joiners only wait.
struct InflightBatch {
  struct PendingPage {
    PageId id;
    std::shared_ptr<Page> page;
  };
  std::mutex m;
  std::condition_variable cv;
  bool done = false;     // reaped, installed, and deregistered
  bool driving = false;  // a thread is currently reaping
  std::vector<PendingPage> pages;
  std::vector<ReadOp> ops;
  IoTicket ticket;
  // Registry entries this batch owns (a racing batch that lost the
  // try_emplace for a page does not own that page's entry).
  std::vector<PageId> ids;
};

Result<std::unique_ptr<Pager>> Pager::Open(const std::string& path,
                                           const PagerOptions& options) {
  std::unique_ptr<Pager> pager(new Pager(path, options));
  MICRONN_RETURN_IF_ERROR(pager->Initialize());
  return pager;
}

Pager::~Pager() {
  if (db_file_ != nullptr) {
    Close().ok();  // best effort; Close is idempotent
  }
}

std::unique_ptr<FileHandle> Pager::WrapFile(std::unique_ptr<FileHandle> file,
                                            std::string_view role) {
  // The transient-retry decorator is outermost — above any fault wrapper —
  // so injected EAGAIN/short-read faults exercise the same bounded-retry
  // path real ones take.
  if (options_.file_wrapper) {
    file = options_.file_wrapper(std::move(file), role);
  }
  file = std::make_unique<RetryingFile>(std::move(file));
  file->set_io_stats(&stats_);
  return file;
}

Status Pager::Initialize() {
  // Both files go through the selected I/O backend (and, in tests, the
  // fault-injection wrapper) so batched reads and injected faults cover
  // the WAL exactly like the main file.
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<FileHandle> db_file,
                           OpenFile(path_, options_.io_backend, &io_backend_));
  db_file_ = WrapFile(std::move(db_file), "db");
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<FileHandle> wal_file,
                           OpenFile(path_ + "-wal", options_.io_backend));
  MICRONN_ASSIGN_OR_RETURN(
      wal_, Wal::Open(WrapFile(std::move(wal_file), "wal"), &stats_));

  const bool fresh_db = (db_file_->size() == 0 && wal_->frame_count() == 0);

  // Page-checksum sidecar (<db>-sum). Plain blocking I/O: its accesses are
  // one bulk load at open plus tiny slot writes on the (already syscall-
  // bound) checkpoint path. A damaged sidecar never blocks the open; it is
  // recreated empty and verification runs lazily until the next Scrub.
  {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<File> sum_posix,
                             File::Open(path_ + "-sum"));
    std::unique_ptr<FileHandle> sum_file =
        WrapFile(std::move(sum_posix), "sum");
    if (fresh_db && sum_file->size() != 0) {
      // Leftover sidecar of a deleted database: its slots describe pages
      // that no longer exist. Start over.
      MICRONN_RETURN_IF_ERROR(sum_file->Truncate(0));
    }
    MICRONN_ASSIGN_OR_RETURN(checksums_,
                             PageChecksumFile::Open(std::move(sum_file)));
  }

  if (fresh_db) {
    // Fresh database: write the header page directly (no WAL needed; there
    // is nothing to be atomic against). Born at format v4 — every page,
    // starting with this one, has a checksum slot.
    Page header;
    header.Zero();
    header.WriteU64(DbHeader::kOffMagic, DbHeader::kMagic);
    header.WriteU32(DbHeader::kOffVersion, DbHeader::kFormatWithPageChecksums);
    header.WriteU32(DbHeader::kOffPageSize, kPageSize);
    header.WriteU32(DbHeader::kOffPageCount, 1);
    header.WriteU32(DbHeader::kOffFreelistHead, kInvalidPage);
    header.WriteU32(DbHeader::kOffFreelistCount, 0);
    header.WriteU32(DbHeader::kOffCatalogRoot, kInvalidPage);
    header.WriteU64(DbHeader::kOffCommitSeq, 0);
    MICRONN_RETURN_IF_ERROR(db_file_->WriteAt(0, header.bytes(), kPageSize));
    MICRONN_RETURN_IF_ERROR(checksums_->WriteSlots({{0, header.bytes()}}));
    MICRONN_RETURN_IF_ERROR(checksums_->Sync());
    MICRONN_RETURN_IF_ERROR(db_file_->Sync());
  }

  // Establish the current commit horizon from the recovered WAL, then read
  // the newest committed header to learn the page count. (The header read
  // below runs before strict_checksums_ is set, so a legacy database's
  // uncovered header page passes; a covered header is verified.)
  last_committed_seq_ = wal_->last_committed_seq();
  MICRONN_ASSIGN_OR_RETURN(PagePtr header,
                           ReadCommitted(0, last_committed_seq_));
  if (header->ReadU64(DbHeader::kOffMagic) != DbHeader::kMagic) {
    return Status::Corruption("bad database magic in " + path_);
  }
  if (header->ReadU32(DbHeader::kOffPageSize) != kPageSize) {
    return Status::Corruption("page size mismatch in " + path_);
  }
  const uint32_t version = header->ReadU32(DbHeader::kOffVersion);
  header_version_.store(version, std::memory_order_release);
  bool strict = version >= DbHeader::kFormatWithPageChecksums;
  if (strict && (checksums_->recreated() ||
                 (!fresh_db && checksums_->slot_count() == 0))) {
    // A v4 database whose sidecar was damaged or deleted: open anyway,
    // tolerate absent slots (there is nothing to verify against), and let
    // the next Scrub re-cover the file and restore strictness.
    MICRONN_LOG(kWarn) << "database " << path_ << " is format v" << version
                       << " but its checksum sidecar is missing or damaged; "
                          "page verification demoted to lazy until the next "
                          "scrub";
    strict = false;
  }
  strict_checksums_.store(strict, std::memory_order_release);
  // A crash can leave the main file *ahead* of the surviving WAL: a
  // partial checkpoint folds frames in, and recovery discards the log
  // when its backfilled prefix no longer survives intact. The header page
  // — itself folded — carries the commit horizon those folds reached, so
  // sequences stay monotonic across such a reopen.
  const uint64_t header_seq = header->ReadU64(DbHeader::kOffCommitSeq);
  if (header_seq > last_committed_seq_) {
    last_committed_seq_ = header_seq;
  }
  page_count_ = header->ReadU32(DbHeader::kOffPageCount);
  // Everything that survived recovery is durable by construction.
  group_commit_ =
      std::make_unique<GroupCommit>(wal_.get(), last_committed_seq_);
  return Status::OK();
}

Status Pager::Close() {
  if (db_file_ == nullptr) return Status::OK();
  if (wal_ == nullptr) {
    // Partially initialized (WAL open/recovery failed): nothing to
    // checkpoint, just release the main file.
    db_file_.reset();
    cache_.Clear();
    return Status::OK();
  }
  // Best-effort checkpoint so the main file is self-contained; Busy (an
  // active writer) is not an error on close, and live readers merely limit
  // the checkpoint to a partial backfill.
  Status st = Checkpoint();
  if (!st.ok() && !st.IsBusy()) {
    return st;
  }
  MICRONN_RETURN_IF_ERROR(db_file_->Sync());
  db_file_.reset();
  group_commit_.reset();
  wal_.reset();
  cache_.Clear();
  return Status::OK();
}

Status Pager::VerifyMainPage(PageId id, const uint8_t* bytes) {
  if (!options_.checksum_pages || checksums_ == nullptr) return Status::OK();
  Status st = checksums_->VerifyPage(
      id, bytes, strict_checksums_.load(std::memory_order_acquire));
  if (!st.ok()) {
    stats_.corruptions_detected.fetch_add(1, std::memory_order_relaxed);
    MICRONN_LOG(kWarn) << "page verification failed in " << path_ << ": "
                       << st.ToString();
  }
  return st;
}

Status Pager::TryRecoverDegraded() {
  if (!degraded_.state().read_only) return Status::OK();
  MICRONN_ASSIGN_OR_RETURN(
      WriterSlot slot,
      WriterSlot::TryAcquire(&writer_gate_,
                             "writer active during degraded-recovery probe"));
  return degraded_.Probe(slot, db_file_.get());
}

uint64_t Pager::BeginSnapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  active_readers_.insert(last_committed_seq_);
  return last_committed_seq_;
}

void Pager::EndSnapshot(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = active_readers_.find(seq);
  if (it != active_readers_.end()) {
    const bool was_oldest = (it == active_readers_.begin());
    active_readers_.erase(it);
    // Wake a waiting backpressure checkpoint when the backfill horizon can
    // advance: the oldest snapshot ended (or the registry drained).
    if (was_oldest) {
      readers_cv_.notify_all();
    }
  }
}

Result<PagePtr> Pager::ReadPage(PageId id, uint64_t snapshot_seq) {
  return ReadCommitted(id, snapshot_seq);
}

Result<PagePtr> Pager::ReadCommitted(PageId id, uint64_t seq) {
  // Lock-free read path: no pager-wide lock anywhere, so readers never
  // stall behind a committing writer (the WAL index has its own
  // shared_mutex, frame payloads are positional preads, and the cache is
  // sharded). Safe against checkpoint frame recycling because every caller
  // either holds a registered snapshot or is the single writer, and the
  // WAL reset runs only when neither exists. Safe against checkpoint
  // *backfill* (main-file writes under live readers) because a page is
  // only folded while a frame for it at-or-below every registered
  // snapshot exists in the index — any concurrent reader resolves that
  // frame and never touches the main-file copy being rewritten. Safe
  // against *wrap-around* frame recycling (which, unlike the reset, does
  // run under live readers) because the shared frame pin below covers the
  // whole resolve -> read -> cache-insert sequence: a restart's exclusive
  // pin waits us out, and we cannot insert a stale image under a frame
  // number the next generation is about to reuse.
  for (;;) {
    std::shared_ptr<InflightBatch> join;
    {
      auto pin = wal_->PinFrames();
      uint64_t version = 0;
      if (auto frame = wal_->FindFrame(id, seq)) {
        version = *frame;
      }
      // Hit/miss accounting (aggregate + per shard) happens inside the
      // cache.
      if (PagePtr cached = cache_.Get(id, version)) {
        return cached;
      }
      auto page = std::make_shared<Page>();
      if (version != 0) {
        MICRONN_RETURN_IF_ERROR(wal_->ReadFrame(version, page.get(), &id));
        return cache_.Put(id, version, std::move(page));
      }
      // Register the main-file read in the in-flight registry, already
      // driving, unless a read-ahead batch or another demand read has the
      // page in flight — then join that one instead of duplicating the
      // syscall.
      std::shared_ptr<InflightBatch> mine;
      {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        auto [it, inserted] = inflight_.try_emplace(id, nullptr);
        if (inserted) {
          it->second = mine = std::make_shared<InflightBatch>();
          mine->driving = true;
          mine->ids.push_back(id);
        } else {
          join = it->second;
        }
      }
      if (mine != nullptr) {
        // Read, verify, install — then complete (deregister and wake
        // joiners), on success and failure alike. Install-before-
        // deregister ordering is what lets a joiner trust the cache.
        Result<PagePtr> result = [&]() -> Result<PagePtr> {
          const uint64_t off = static_cast<uint64_t>(id) * kPageSize;
          if (off + kPageSize > db_file_->size()) {
            return Status::Corruption("page " + std::to_string(id) +
                                      " beyond end of main file");
          }
          MICRONN_RETURN_IF_ERROR(
              db_file_->ReadAt(off, page->bytes(), kPageSize));
          stats_.pages_read_main.fetch_add(1, std::memory_order_relaxed);
          MICRONN_RETURN_IF_ERROR(VerifyMainPage(id, page->bytes()));
          return cache_.Put(id, version, std::move(page));
        }();
        CompleteInflight(mine.get());
        return result;
      }
    }
    // Someone else is reading the page: a read-ahead batch (drive its reap
    // if nobody is — deadlock-free even when this thread submitted the
    // batch itself) or another demand read (wait for its install). The
    // wait happens outside the frame pin (a reap or a pread can block),
    // then re-resolves from the top; the page is normally a cache hit
    // now, and a failed/corrupt read falls through to a clean demand read
    // (every entry deregisters before waking its joiners).
    stats_.read_joins.fetch_add(1, std::memory_order_relaxed);
    DriveInflight(join);
  }
}

std::unique_ptr<AsyncPrefetch> Pager::PrefetchPages(
    std::span<const PageId> ids, uint64_t snapshot_seq) {
  if (ids.empty() || cache_.budget_bytes() == 0) return nullptr;
  std::vector<PageId> unique(ids.begin(), ids.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());

  std::unique_ptr<AsyncPrefetch> handle(new AsyncPrefetch);
  auto batch = std::make_shared<InflightBatch>();
  std::vector<PageCache::Insert> wal_inserts;
  {
    // Resolve under a frame pin, like ReadCommitted. WAL-frame misses
    // are read here, synchronously, while the pin is held: a frame read
    // must not outlive the pin (wrap-around recycles frame numbers), and
    // WAL frames are the recently-written minority. Main-file misses are
    // only *submitted* under the pin; their reads may complete after it
    // drops, which is safe as long as the caller's snapshot stays
    // registered — the checkpoint folds only frames at-or-below the
    // oldest registered snapshot, so a page resolved to version 0 here
    // cannot acquire a foldable frame (any new frame's commit seq exceeds
    // the snapshot) and its main-file bytes cannot be rewritten while the
    // read is in flight.
    auto pin = wal_->PinFrames();
    struct WalMiss {
      PageId id;
      uint64_t version;
      std::shared_ptr<Page> page;
    };
    std::vector<WalMiss> wal_misses;
    const uint64_t file_size = db_file_->size();
    for (PageId id : unique) {
      uint64_t version = 0;
      if (auto frame = wal_->FindFrame(id, snapshot_seq)) {
        version = *frame;
      }
      if (cache_.Contains(id, version)) continue;
      if (version == 0) {
        const uint64_t off = static_cast<uint64_t>(id) * kPageSize;
        if (off + kPageSize > file_size) continue;  // stale hint
        if (FindInflight(id) != nullptr) continue;  // already in flight
        batch->pages.push_back({id, std::make_shared<Page>()});
      } else {
        wal_misses.push_back({id, version, std::make_shared<Page>()});
      }
    }

    if (!wal_misses.empty()) {
      std::vector<std::pair<uint64_t, Page*>> ops;
      std::vector<PageId> expect;
      ops.reserve(wal_misses.size());
      expect.reserve(wal_misses.size());
      for (WalMiss& m : wal_misses) {
        ops.emplace_back(m.version, m.page.get());
        expect.push_back(m.id);
      }
      std::vector<Status> per_op;
      stats_.batch_reads.fetch_add(1, std::memory_order_relaxed);
      if (wal_->ReadFrameBatch(ops, &per_op, &expect).ok()) {
        for (size_t i = 0; i < wal_misses.size(); ++i) {
          if (!per_op[i].ok()) continue;
          wal_inserts.push_back({wal_misses[i].id, wal_misses[i].version,
                                 std::move(wal_misses[i].page)});
        }
      }
    }

    if (!batch->pages.empty()) {
      batch->ops.reserve(batch->pages.size());
      for (InflightBatch::PendingPage& p : batch->pages) {
        batch->ops.push_back({static_cast<uint64_t>(p.id) * kPageSize,
                              p.page->bytes(), kPageSize, Status::OK()});
      }
      stats_.batch_reads.fetch_add(1, std::memory_order_relaxed);
      if (db_file_
              ->SubmitRead(batch->ops.data(), batch->ops.size(),
                           &batch->ticket)
              .ok()) {
        handle->pager_ = this;
        handle->batch_ = batch;
        // Register the batch's pages so a demand read that misses on one
        // of them joins this batch instead of duplicating the read. After
        // the submit: a miss in between simply reads on its own, which is
        // the old (correct) behavior.
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        for (const InflightBatch::PendingPage& p : batch->pages) {
          auto [it, inserted] = inflight_.try_emplace(p.id, batch);
          if (inserted) batch->ids.push_back(p.id);
        }
      }
    }
  }

  if (!wal_inserts.empty()) {
    stats_.pages_prefetched.fetch_add(wal_inserts.size(),
                                      std::memory_order_relaxed);
    cache_.PutBatch(wal_inserts, /*prefetched=*/true);
  }
  if (handle->pager_ == nullptr) return nullptr;  // nothing in flight
  return handle;
}

AsyncPrefetch::~AsyncPrefetch() { Finish(); }

void AsyncPrefetch::Finish() {
  if (pager_ == nullptr || batch_ == nullptr) return;
  pager_->DriveInflight(batch_);
  batch_.reset();  // idempotence: a second Finish is a no-op
}

std::shared_ptr<InflightBatch> Pager::FindInflight(PageId id) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  auto it = inflight_.find(id);
  return it != inflight_.end() ? it->second : nullptr;
}

void Pager::DriveInflight(const std::shared_ptr<InflightBatch>& b) {
  {
    std::unique_lock<std::mutex> lock(b->m);
    if (b->done) return;
    if (b->driving) {
      b->cv.wait(lock, [&] { return b->done; });
      return;
    }
    b->driving = true;
  }
  // Reap every completion. A transport error here is retried a few times,
  // then the whole batch is deliberately leaked: the kernel may still
  // write into its buffers, so freeing would be worse. (Practically
  // unreachable — an io_uring_enter failure after a successful ring setup
  // does not happen outside fault injection, and injected faults surface
  // as per-op statuses, not transport errors.)
  for (int attempt = 0; attempt < 3 && !b->ticket.done(); ++attempt) {
    db_file_->ReapCompletions(&b->ticket, /*wait=*/true).ok();
  }
  if (b->ticket.done()) {
    std::vector<PageCache::Insert> inserts;
    inserts.reserve(b->pages.size());
    for (size_t i = 0; i < b->pages.size(); ++i) {
      if (!b->ops[i].status.ok()) continue;  // best-effort: skip failures
      stats_.pages_read_main.fetch_add(1, std::memory_order_relaxed);
      if (!VerifyMainPage(b->pages[i].id, b->pages[i].page->bytes()).ok()) {
        continue;  // corrupt image: never installed; a demand read reports
      }
      inserts.push_back({b->pages[i].id, 0, std::move(b->pages[i].page)});
    }
    if (!inserts.empty()) {
      stats_.pages_prefetched.fetch_add(inserts.size(),
                                        std::memory_order_relaxed);
      cache_.PutBatch(inserts, /*prefetched=*/true);
    }
  } else {
    new std::shared_ptr<InflightBatch>(b);  // deliberate leak (see above)
  }
  CompleteInflight(b.get());
}

void Pager::CompleteInflight(InflightBatch* b) {
  // Deregister before signalling: a woken joiner that misses the cache
  // (the read failed) must fall through to a fresh demand read, not
  // re-join this finished entry.
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    for (PageId id : b->ids) {
      auto it = inflight_.find(id);
      if (it != inflight_.end() && it->second.get() == b) {
        inflight_.erase(it);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(b->m);
    b->driving = false;
    b->done = true;
  }
  b->cv.notify_all();
}

WriterSlot WriterSlot::Acquire(Gate* gate) {
  std::unique_lock<std::mutex> lock(gate->writer_mutex_);
  gate->writer_cv_.wait(lock, [gate] { return !gate->writer_active_; });
  gate->writer_active_ = true;
  return WriterSlot(gate);
}

Result<WriterSlot> WriterSlot::TryAcquire(Gate* gate, const char* what) {
  std::lock_guard<std::mutex> lock(gate->writer_mutex_);
  if (gate->writer_active_) return Status::Busy(what);
  gate->writer_active_ = true;
  return WriterSlot(gate);
}

WriterSlot::~WriterSlot() {
  if (gate_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(gate_->writer_mutex_);
    gate_->writer_active_ = false;
  }
  gate_->writer_cv_.notify_one();
}

Result<std::unique_ptr<WriteTxnState>> Pager::BeginWrite() {
  return StartWrite(WriterSlot::Acquire(&writer_gate_));
}

Result<std::unique_ptr<WriteTxnState>> Pager::TryBeginWrite() {
  MICRONN_ASSIGN_OR_RETURN(
      WriterSlot slot,
      WriterSlot::TryAcquire(&writer_gate_,
                             "another write transaction is active"));
  return StartWrite(std::move(slot));
}

Result<std::unique_ptr<WriteTxnState>> Pager::StartWrite(WriterSlot slot) {
  MICRONN_RETURN_IF_ERROR(degraded_.Probe(slot, db_file_.get()));
  std::unique_ptr<WriteTxnState> txn(new WriteTxnState(std::move(slot)));
  {
    std::lock_guard<std::mutex> l(mutex_);
    txn->base_seq_ = last_committed_seq_;
    txn->page_count_ = page_count_;
  }
  return txn;
}

Result<PagePtr> Pager::ReadForWrite(WriteTxnState* txn, PageId id) {
  auto it = txn->dirty_.find(id);
  if (it != txn->dirty_.end()) {
    // Alias the dirty page; valid for the life of the transaction, which
    // is the only scope B+Tree code holds these across.
    return PagePtr(it->second.get(), [](const Page*) {});
  }
  return ReadCommitted(id, txn->base_seq_);
}

Result<Page*> Pager::GetMutablePage(WriteTxnState* txn, PageId id) {
  auto it = txn->dirty_.find(id);
  if (it != txn->dirty_.end()) {
    return it->second.get();
  }
  MICRONN_ASSIGN_OR_RETURN(PagePtr committed, ReadCommitted(id, txn->base_seq_));
  auto copy = std::make_unique<Page>(*committed);
  Page* raw = copy.get();
  txn->dirty_.emplace(id, std::move(copy));
  return raw;
}

Result<PageId> Pager::AllocatePage(WriteTxnState* txn) {
  MICRONN_ASSIGN_OR_RETURN(Page * header, GetMutablePage(txn, 0));
  const PageId head = header->ReadU32(DbHeader::kOffFreelistHead);
  PageId id;
  if (head != kInvalidPage) {
    // Pop the freelist: each free page stores the next free page id in its
    // first four bytes after the type tag.
    MICRONN_ASSIGN_OR_RETURN(PagePtr free_page, ReadForWrite(txn, head));
    const PageId next = free_page->ReadU32(4);
    header->WriteU32(DbHeader::kOffFreelistHead, next);
    header->WriteU32(DbHeader::kOffFreelistCount,
                     header->ReadU32(DbHeader::kOffFreelistCount) - 1);
    id = head;
  } else {
    id = txn->page_count_;
    ++txn->page_count_;
    header->WriteU32(DbHeader::kOffPageCount, txn->page_count_);
  }
  // Zero the new page in the dirty set.
  auto fresh = std::make_unique<Page>();
  fresh->Zero();
  txn->dirty_[id] = std::move(fresh);
  return id;
}

Status Pager::FreePage(WriteTxnState* txn, PageId id) {
  if (id == 0 || id >= txn->page_count_) {
    return Status::InvalidArgument("cannot free page " + std::to_string(id));
  }
  MICRONN_ASSIGN_OR_RETURN(Page * header, GetMutablePage(txn, 0));
  MICRONN_ASSIGN_OR_RETURN(Page * page, GetMutablePage(txn, id));
  page->Zero();
  page->bytes()[0] = static_cast<uint8_t>(PageType::kFree);
  page->WriteU32(4, header->ReadU32(DbHeader::kOffFreelistHead));
  header->WriteU32(DbHeader::kOffFreelistHead, id);
  header->WriteU32(DbHeader::kOffFreelistCount,
                   header->ReadU32(DbHeader::kOffFreelistCount) + 1);
  return Status::OK();
}

Status Pager::CommitWrite(std::unique_ptr<WriteTxnState> txn) {
  Status result = Status::OK();
  uint64_t commit_seq = 0;
  bool committed = false;
  if (!txn->dirty_.empty()) {
    commit_seq = txn->base_seq_ + 1;
    // Stamp the commit sequence into the header page: observability, and
    // the recovery anchor for the case where a crash leaves the main file
    // ahead of the surviving WAL (see Initialize).
    {
      auto it = txn->dirty_.find(0);
      if (it == txn->dirty_.end()) {
        Result<Page*> header = GetMutablePage(txn.get(), 0);
        if (!header.ok()) {
          result = header.status();
        } else {
          header.value()->WriteU64(DbHeader::kOffCommitSeq, commit_seq);
        }
      } else {
        it->second->WriteU64(DbHeader::kOffCommitSeq, commit_seq);
      }
    }
    if (result.ok()) {
      std::vector<std::pair<PageId, const Page*>> frames;
      frames.reserve(txn->dirty_.size());
      for (const auto& [pid, page] : txn->dirty_) {
        frames.emplace_back(pid, page.get());
      }
      // The WAL append runs without any pager lock, so concurrent readers
      // keep scanning their snapshots at full speed. The commit fsync is
      // *not* issued here: with sync_on_commit the durability wait happens
      // after the writer slot is released (group commit below), so the
      // next committer can append while this one's fsync is in flight and
      // one leader sync covers the whole batch. The *write* is deferred
      // the same way — the frames are staged in memory and the
      // group-commit leader lands every waiting commit with one contiguous
      // WAL write before its shared fsync, amortizing write syscalls
      // across the group exactly like fsyncs. The frames become
      // visible in two ordered steps: the WAL publishes its index (under
      // its own lock), then the new horizon is published below; readers at
      // older snapshots filter the new frames out by commit_seq either way.
      uint64_t first_frame = 0;
      result = wal_->AppendCommit(frames, commit_seq,
                                  options_.sync_on_commit
                                      ? Wal::AppendMode::kStaged
                                      : Wal::AppendMode::kWrite,
                                  &first_frame);
      if (result.ok()) {
        committed = true;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          last_committed_seq_ = commit_seq;
          page_count_ = txn->page_count_;
        }
        // Warm the cache with the just-committed images (sharded; no pager
        // lock needed). Frame numbers follow append order.
        uint64_t frame_no = first_frame;
        for (auto& [pid, page] : txn->dirty_) {
          cache_.Put(pid, frame_no, PagePtr(std::move(page)));
          ++frame_no;
        }
        stats_.commits.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  txn.reset();  // releases the writer slot

  if (committed && result.ok() && options_.sync_on_commit) {
    // Group commit: the commit is already visible (published above) but is
    // only acknowledged once a WAL fsync covers it — ours or a concurrent
    // leader's. A crash before that fsync loses an unacknowledged suffix
    // of commits, never a torn one.
    result = group_commit_->WaitForDurable(commit_seq);
  }

  if (committed && result.ok()) {
    MaybeCheckpointAfterCommit();
  }
  // An out-of-space commit failed cleanly: the direct WAL append
  // truncates its torn tail before returning, so nothing was published
  // and recovery cannot replay it. Flip into read-only degraded mode; the
  // next BeginWrite probes for space and re-enables writes when it
  // returns. (A failed flush of *staged* frames is different — those
  // commits were already published — and keeps the sticky fsync-poison
  // rule; see GroupCommit.)
  return degraded_.NoteWriteError(std::move(result));
}

void Pager::MaybeCheckpointAfterCommit() {
  const uint64_t frames = wal_->frame_count();
  if (options_.wal_backpressure_frames > 0 &&
      frames > options_.wal_backpressure_frames) {
    // Hard backpressure: this committer pays for a blocking full
    // checkpoint so the WAL stops growing. Queue for the writer slot
    // (several committers may arrive here at once), then re-check — the
    // one ahead of us may already have reclaimed the log.
    Status st = Status::OK();
    {
      const WriterSlot slot = WriterSlot::Acquire(&writer_gate_);
      if (wal_->frame_count() > options_.wal_backpressure_frames) {
        st = degraded_.NoteWriteError(
            CheckpointImpl(slot, /*block_for_readers=*/true));
      }
    }
    if (!st.ok()) {
      MICRONN_LOG(kWarn) << "WAL backpressure checkpoint failed: "
                         << st.ToString();
    }
    return;
  }
  if (options_.auto_checkpoint_frames == 0 ||
      frames <= options_.auto_checkpoint_frames) {
    return;
  }
  // Best-effort auto-checkpoint. Skip cheaply when live readers pin the
  // horizon below anything new to fold (the common steady state between
  // horizon advances) — LatestFrames is O(index) and not worth scanning
  // per commit for a guaranteed no-op.
  bool idle;
  uint64_t horizon;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    idle = active_readers_.empty();
    horizon = HorizonLocked();
  }
  if (!idle && wal_->FramesThrough(horizon) <= wal_->backfill_watermark()) {
    // Nothing new to fold below the pinned horizon — but when the log is
    // already fully folded, that is exactly the rolling-pin steady state
    // where only a wrap-around can reclaim the file, so fall through and
    // let the checkpoint take its wrap branch.
    const uint64_t count = wal_->frame_count();
    if (count == 0 || wal_->backfill_watermark() != count) return;
  }
  Status st = Checkpoint();
  if (!st.ok() && !st.IsBusy()) {
    MICRONN_LOG(kWarn) << "auto-checkpoint failed: " << st.ToString();
  }
}

Status Pager::Checkpoint() {
  // Exclude writers for the duration; readers are handled incrementally.
  MICRONN_ASSIGN_OR_RETURN(
      WriterSlot slot,
      WriterSlot::TryAcquire(&writer_gate_, "writer active during checkpoint"));
  return degraded_.NoteWriteError(
      CheckpointImpl(slot, /*block_for_readers=*/false));
}

uint64_t Pager::HorizonLocked() const {
  return active_readers_.empty() ? last_committed_seq_
                                 : *active_readers_.begin();
}

Status Pager::CheckpointImpl(const WriterSlot& /*slot*/,
                             bool block_for_readers) {
  // The writer slot is held, so the WAL cannot grow and the commit
  // horizon cannot move while this runs; only the reader registry changes
  // underneath us, and only in the safe direction (a horizon that rises).
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.wal_backpressure_wait_ms);
  // Land any staged commits first: the backfill watermark only
  // describes on-file frames, and with the writer excluded nothing new can
  // be staged for the rest of this checkpoint. A failed flush is a failed
  // WAL write with commits already published — same sticky rule as a
  // failed group fsync.
  if (Status flush = wal_->FlushStaged(); !flush.ok()) {
    return degraded_.NoteWriteError(group_commit_->Poison(std::move(flush)));
  }
  for (;;) {
    if (wal_->frame_count() == 0) {
      return Status::OK();
    }
    uint64_t horizon;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      horizon = HorizonLocked();
    }
    const uint64_t watermark = wal_->backfill_watermark();
    const uint64_t target = wal_->FramesThrough(horizon);
    if (target > watermark) {
      // Backfill frames (watermark, target] — every frame of every commit
      // at-or-below the reader horizon that an earlier pass did not
      // already fold. This is safe under live readers: each registered
      // snapshot is >= horizon, so for any page being rewritten in the
      // main file the reader resolves a WAL frame (<= horizon <= its
      // snapshot) and never reads the main-file copy mid-write.
      //
      // Durability order: WAL frames first (the log may never lag the
      // main file after a crash), then the folded images, then the
      // watermark that records them as folded. A crash between any two
      // steps merely re-folds on the next checkpoint.
      const uint64_t synced_through = wal_->last_committed_seq();
      if (Status wal_sync = wal_->Sync(); !wal_sync.ok()) {
        // Same sticky rule as the group-commit leader.
        return group_commit_->Poison(std::move(wal_sync));
      }
      group_commit_->PublishDurable(synced_through);
      // Batched fold, the write-side twin of PrefetchPages: read the
      // folded frames through the batched WAL read path and land them as
      // coalesced vectored writes. The map iterates in ascending page id,
      // so main-file offsets ascend and adjacent pages coalesce into one
      // pwritev (or one ring submission). The ordering above/below is
      // unchanged: WAL fsync first, then these writes — WriteBatch is
      // blocking, every completion is reaped before it returns — then the
      // db fsync, and only then the watermark that records the fold.
      const std::map<PageId, uint64_t> latest = wal_->LatestFrames(horizon);
      std::vector<std::pair<PageId, uint64_t>> fold;
      fold.reserve(latest.size());
      for (const auto& [pid, frame_no] : latest) {
        if (frame_no <= watermark) continue;  // folded by an earlier pass
        fold.emplace_back(pid, frame_no);
      }
      constexpr size_t kFoldBatch = 128;
      std::vector<Page> bufs(std::min(fold.size(), kFoldBatch));
      for (size_t base = 0; base < fold.size(); base += kFoldBatch) {
        const size_t n = std::min(kFoldBatch, fold.size() - base);
        std::vector<std::pair<uint64_t, Page*>> reads;
        std::vector<PageId> expect;
        reads.reserve(n);
        expect.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          reads.emplace_back(fold[base + i].second, &bufs[i]);
          expect.push_back(fold[base + i].first);
        }
        std::vector<Status> per_read;
        MICRONN_RETURN_IF_ERROR(wal_->ReadFrameBatch(reads, &per_read,
                                                     &expect));
        for (const Status& st : per_read) {
          MICRONN_RETURN_IF_ERROR(st);
        }
        std::vector<WriteOp> writes(n);
        for (size_t i = 0; i < n; ++i) {
          writes[i].offset =
              static_cast<uint64_t>(fold[base + i].first) * kPageSize;
          writes[i].buf = bufs[i].bytes();
          writes[i].len = kPageSize;
        }
        MICRONN_RETURN_IF_ERROR(
            degraded_.NoteWriteError(db_file_->WriteBatch(writes.data(), n)));
        for (const WriteOp& w : writes) {
          MICRONN_RETURN_IF_ERROR(degraded_.NoteWriteError(w.status));
        }
        // Fresh checksum slots for every page this fold rewrote — the
        // lazy-upgrade engine: folds progressively cover a legacy
        // database, and Scrub backfills whatever they never touch.
        std::vector<std::pair<PageId, const uint8_t*>> slots;
        slots.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          slots.emplace_back(fold[base + i].first, bufs[i].bytes());
        }
        MICRONN_RETURN_IF_ERROR(
            degraded_.NoteWriteError(checksums_->WriteSlots(slots)));
        stats_.checkpoint_pages.fetch_add(n, std::memory_order_relaxed);
      }
      MICRONN_RETURN_IF_ERROR(degraded_.NoteWriteError(db_file_->Sync()));
      // Sidecar slots must be durable BEFORE the watermark records the
      // frames as folded: a reader only ever reaches a page's main-file
      // copy once its last fold fully completed (frames stay indexed
      // until Reset/WrapRestart, both excluded while this runs), so a
      // synced slot is always at least as fresh as the image it covers —
      // and a crash between the two merely re-folds, which is idempotent.
      MICRONN_RETURN_IF_ERROR(degraded_.NoteWriteError(checksums_->Sync()));
      MICRONN_RETURN_IF_ERROR(wal_->AdvanceBackfillWatermark(target, horizon));
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        if (active_readers_.empty() &&
            wal_->backfill_watermark() == wal_->frame_count()) {
          // Fully folded and nobody can touch a frame: recycle the log.
          // Holding mutex_ across the reset keeps new readers out while
          // frame numbers are invalidated — the one (short) foreground
          // stall the checkpoint imposes, once per WAL generation. The
          // check runs under the same lock hold as the wakeup below, so a
          // churning reader cannot re-register in between and starve the
          // reset indefinitely.
          const std::map<PageId, uint64_t> folded =
              wal_->LatestFrames(last_committed_seq_);
          MICRONN_RETURN_IF_ERROR(wal_->Reset());
          // Frame-versioned cache entries refer to recycled frame numbers;
          // drop them, along with stale version-0 images of every page
          // this WAL generation rewrote in the main file.
          cache_.DropVersioned();
          for (const auto& [pid, frame_no] : folded) {
            (void)frame_no;
            cache_.InvalidatePage(pid);
          }
          return Status::OK();
        }
        if (wal_->frame_count() > 0 &&
            wal_->backfill_watermark() == wal_->frame_count()) {
          // Fully folded but reader snapshots keep the registry occupied:
          // the truncating reset above can never run (a rolling re-pin
          // makes that state permanent), so wrap instead — begin a new
          // frame generation at slot 1, overwriting the reclaimed prefix.
          // WrapRestart's exclusive frame pin quiesces in-flight reads;
          // holding mutex_ across it additionally keeps new readers from
          // registering mid-restart (same once-per-generation stall as the
          // reset). The cache invalidation MUST run inside the restart's
          // exclusive section: after it, a reader may immediately resolve
          // page P to "main file" (version 0) or to a new generation's
          // frame f, and a leftover entry keyed (P, 0) with a pre-fold
          // image — or (P, f) with the OLD generation's image — would be
          // served as current.
          const std::map<PageId, uint64_t> folded =
              wal_->LatestFrames(last_committed_seq_);
          Status wrap = wal_->WrapRestart([&] {
            cache_.DropVersioned();
            for (const auto& [pid, frame_no] : folded) {
              (void)frame_no;
              cache_.InvalidatePage(pid);
            }
          });
          if (!wrap.ok()) {
            // Header write/fsync failure: the old generation is intact and
            // live, but WAL fsync state is now unknowable — same sticky
            // rule as every other failed WAL sync.
            return group_commit_->Poison(std::move(wrap));
          }
          return Status::OK();
        }
        if (!block_for_readers) {
          return Status::OK();  // partial backfill; watermark records it
        }
        // If the horizon already rose past frames not yet folded (it can
        // move during the fold phase, whose cv notification nobody was
        // waiting on), drop the lock and fold them before waiting.
        if (wal_->FramesThrough(HorizonLocked()) >
            wal_->backfill_watermark()) {
          break;  // back to the fold phase of the outer loop
        }
        if (std::chrono::steady_clock::now() >= deadline) {
          MICRONN_LOG(kWarn)
              << "WAL backpressure: " << active_readers_.size()
              << " reader(s) still active after "
              << options_.wal_backpressure_wait_ms
              << " ms; settling for partial backfill ("
              << wal_->backfill_watermark() << "/" << wal_->frame_count()
              << " frames folded)";
          return Status::OK();
        }
        // Wait for the oldest snapshot to end (raising the horizon) or
        // the registry to drain, then re-evaluate from the top.
        readers_cv_.wait_until(lock, deadline);
      }
    }
  }
}

Status Pager::Scrub(ScrubReport* report) {
  // One call, whole file: drive the incremental machinery with an
  // unbounded batch. If a background pass is mid-file this finishes it
  // (the cursor is shared), so the returned report may cover work an
  // earlier ScrubStep already did.
  *report = ScrubReport{};
  bool done = false;
  while (!done) {
    MICRONN_RETURN_IF_ERROR(
        ScrubStep(std::numeric_limits<uint32_t>::max(), &done));
  }
  std::lock_guard<std::mutex> lock(scrub_mutex_);
  *report = scrub_.last_report;
  return Status::OK();
}

ScrubState Pager::scrub_state() const {
  std::lock_guard<std::mutex> lock(scrub_mutex_);
  return scrub_;
}

Status Pager::ScrubStep(uint32_t max_pages, bool* done) {
  if (done != nullptr) *done = false;
  if (max_pages == 0) {
    return Status::InvalidArgument("scrub step of zero pages");
  }
  std::lock_guard<std::mutex> scrub_lock(scrub_mutex_);
  uint32_t walked = 0;
  bool pass_done = false;
  Status st = Status::OK();
  {
    MICRONN_ASSIGN_OR_RETURN(
        WriterSlot slot,
        WriterSlot::TryAcquire(&writer_gate_, "writer active during scrub"));
    if (!scrub_.active) {
      // Pass start. Fold everything foldable first: the WAL's view of
      // the world lands in the main file (rewriting — i.e. repairing —
      // any page whose main-file copy went bad while a frame still holds
      // it) and every folded page gets a fresh slot. The walk then
      // verifies what remains.
      scrub_.active = true;
      scrub_.next_page = 0;
      scrub_.pages_verified = 0;
      scrub_.bytes_verified = 0;
      scrub_.in_progress = ScrubReport{};
      scrub_was_legacy_ = header_version_.load(std::memory_order_acquire) <
                          DbHeader::kFormatWithPageChecksums;
      st = CheckpointImpl(slot, /*block_for_readers=*/false);
    }
    if (st.ok()) {
      st = ScrubStepLocked(slot, max_pages, &walked, &pass_done);
    }
  }
  if (walked > 0 || pass_done) {
    ++scrub_.steps;
    scrub_.max_step_pages = std::max(scrub_.max_step_pages, walked);
  }
  MICRONN_RETURN_IF_ERROR(degraded_.NoteWriteError(std::move(st)));
  if (!pass_done) return Status::OK();

  scrub_.active = false;
  scrub_.last_report = scrub_.in_progress;
  ++scrub_.passes_completed;
  if (done != nullptr) *done = true;
  ScrubReport* report = &scrub_.last_report;
  if (!report->unrepairable.empty()) {
    MICRONN_LOG(kWarn) << "scrub of " << path_ << " found "
                       << report->unrepairable.size()
                       << " unrepairable page(s); the WAL no longer holds "
                          "their content";
  }
  // Every page covered and verified: flip a legacy header to format v4
  // (a normal write transaction — crash-safe like any commit) and turn
  // strict verification on. Also restores strictness for a v4 database
  // whose recreated sidecar this pass just re-covered.
  const bool fully_covered =
      report->unrepairable.empty() && report->pages_shadowed == 0;
  if (!fully_covered) return Status::OK();
  if (scrub_was_legacy_) {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTxnState> txn, BeginWrite());
    MICRONN_ASSIGN_OR_RETURN(Page * header, GetMutablePage(txn.get(), 0));
    header->WriteU32(DbHeader::kOffVersion,
                     DbHeader::kFormatWithPageChecksums);
    MICRONN_RETURN_IF_ERROR(CommitWrite(std::move(txn)));
    header_version_.store(DbHeader::kFormatWithPageChecksums,
                          std::memory_order_release);
    report->upgraded_format = true;
  }
  if (options_.checksum_pages) {
    strict_checksums_.store(true, std::memory_order_release);
  }
  return Status::OK();
}

Status Pager::ScrubStepLocked(const WriterSlot& /*slot*/, uint32_t max_pages,
                              uint32_t* walked, bool* pass_done) {
  // The writer slot is held: no fold can run concurrently, no commit
  // can add frames, and rewriting a main-file page below is safe — every
  // reader whose snapshot could observe it resolves the page's (still
  // indexed) WAL frame instead, by the same horizon argument the
  // checkpoint backfill relies on. The horizon inputs (watermark, seq,
  // page count) are re-read per step because commits between steps move
  // all three; pages appended mid-pass are verified when the cursor
  // reaches them.
  ScrubReport* report = &scrub_.in_progress;
  const uint64_t watermark = wal_->backfill_watermark();
  uint64_t seq;
  uint32_t pages;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    seq = last_committed_seq_;
    pages = page_count_;
  }
  const bool strict = strict_checksums_.load(std::memory_order_acquire);
  const uint64_t backfilled_before = report->slots_backfilled;
  const uint64_t repaired_before = report->pages_repaired;
  Page buf;
  const PageId first = scrub_.next_page;
  PageId id = first;
  for (; id < pages && id - first < max_pages; ++id) {
    std::optional<uint64_t> frame;
    {
      auto pin = wal_->PinFrames();
      if (auto f = wal_->FindFrame(id, seq)) frame = *f;
    }
    if (frame && *frame > watermark) {
      // A newer, unfolded frame shadows the main-file copy (a live reader
      // kept the checkpoint above partial): the WAL — checksummed on
      // every read — is authoritative, and the stale main copy will be
      // rewritten when the fold reaches it. Nothing to verify here.
      ++report->pages_shadowed;
      continue;
    }
    const uint64_t off = static_cast<uint64_t>(id) * kPageSize;
    if (off + kPageSize > db_file_->size()) {
      ++report->corruptions_found;
      report->unrepairable.push_back(id);
      continue;
    }
    MICRONN_RETURN_IF_ERROR(db_file_->ReadAt(off, buf.bytes(), kPageSize));
    scrub_.bytes_verified += kPageSize;
    uint32_t crc = 0;
    PageChecksumFile::SlotState state = checksums_->Lookup(id, &crc);
    if (state == PageChecksumFile::SlotState::kValid &&
        Crc32c(buf.bytes(), kPageSize) == crc) {
      ++report->pages_scanned;
      continue;
    }
    if (state == PageChecksumFile::SlotState::kAbsent && !strict) {
      // Lazy upgrade: an uncovered legacy page (or a page lost with a
      // recreated sidecar). Its content is the only truth there is;
      // record its checksum so every future read is guarded.
      MICRONN_RETURN_IF_ERROR(checksums_->WriteSlots({{id, buf.bytes()}}));
      ++report->slots_backfilled;
      ++report->pages_scanned;
      continue;
    }
    // Mismatch, corrupt slot, or a missing slot in a strict database.
    ++report->corruptions_found;
    stats_.corruptions_detected.fetch_add(1, std::memory_order_relaxed);
    // Repairable? Folded frames stay physically in the WAL (and indexed)
    // until Reset/WrapRestart, so the page's newest frame — which passed
    // frame verification when folded — may still hold a good copy.
    bool repaired = false;
    if (frame) {
      Page good;
      if (wal_->ReadFrame(*frame, &good, &id).ok()) {
        Status w = db_file_->WriteAt(off, good.bytes(), kPageSize);
        if (w.ok()) w = checksums_->WriteSlots({{id, good.bytes()}});
        if (w.ok()) {
          cache_.InvalidatePage(id);
          repaired = true;
        } else {
          MICRONN_RETURN_IF_ERROR(degraded_.NoteWriteError(std::move(w)));
        }
      }
    }
    if (repaired) {
      ++report->pages_repaired;
    } else {
      report->unrepairable.push_back(id);
    }
  }
  *walked = static_cast<uint32_t>(id - first);
  scrub_.next_page = id;
  scrub_.pages_verified += *walked;
  *pass_done = (id >= pages);
  // Per-step durability, before the writer slot is released: the sidecar
  // must never lag the page images it guards, and repaired images must
  // land before the pass can report them fixed.
  if (report->slots_backfilled != backfilled_before ||
      report->pages_repaired != repaired_before) {
    MICRONN_RETURN_IF_ERROR(degraded_.NoteWriteError(checksums_->Sync()));
  }
  if (report->pages_repaired != repaired_before) {
    MICRONN_RETURN_IF_ERROR(degraded_.NoteWriteError(db_file_->Sync()));
  }
  return Status::OK();
}

void Pager::DropCaches() { cache_.Clear(); }

uint64_t Pager::last_committed_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_committed_seq_;
}

uint32_t Pager::page_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return page_count_;
}

}  // namespace micronn
