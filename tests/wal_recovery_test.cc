// WAL crash-recovery matrix at the engine level. Each case freezes the
// database files mid-life exactly as a power cut would (copying the main
// file + WAL while the engine is still open), mutilates the copy the way a
// specific crash would, and verifies the recovered row counts.
//
// Baseline for every case: batch A (100 rows) committed AND checkpointed
// into the main file, then batch B (100 rows) committed into the WAL only.
// Recovery must keep batch A in all cases; batch B survives iff its commit
// record is intact.
// A second, fully in-process matrix drives the same invariants through
// FaultInjectionFile (tests/support/): the WAL file handle itself fails a
// scheduled write/sync/truncate, so the failure surfaces as a commit error
// on the live engine — deterministic, no process kill, no copy timing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "storage/engine.h"
#include "storage/key_encoding.h"
#include "storage/wal.h"
#include "support/fault_injection_file.h"

namespace micronn {
namespace {

constexpr Wal::AppendMode kWrite = Wal::AppendMode::kWrite;

constexpr uint64_t kBatchRows = 100;

class WalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_walrec_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = dir_ / "db";
    crash_ = dir_ / "crash_db";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Status CommitRows(StorageEngine* engine, uint64_t start, uint64_t count) {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                             engine->BeginWrite());
    Result<BTree> t = txn->OpenOrCreateTable("t");
    if (!t.ok()) {
      engine->Rollback(std::move(txn));
      return t.status();
    }
    for (uint64_t i = start; i < start + count; ++i) {
      Status st = t->Put(key::U64(i), "row" + std::to_string(i));
      if (!st.ok()) {
        engine->Rollback(std::move(txn));
        return st;
      }
    }
    txn->AddRowDelta("t", static_cast<int64_t>(count));
    return engine->Commit(std::move(txn));
  }

  Status CommitBatch(StorageEngine* engine, uint64_t start) {
    return CommitRows(engine, start, kBatchRows);
  }

  // Opens a fresh db, commits + checkpoints batch A, commits batch B into
  // the WAL, then freezes both files into `crash_` while the engine is
  // still open (no close-time checkpoint runs). Returns the open engine so
  // callers control when it dies.
  std::unique_ptr<StorageEngine> SetUpCrashImage() {
    auto engine = StorageEngine::Open(path_).value();
    EXPECT_TRUE(CommitBatch(engine.get(), 0).ok());
    EXPECT_TRUE(engine->Checkpoint().ok());  // batch A -> main file
    EXPECT_TRUE(CommitBatch(engine.get(), kBatchRows).ok());  // B -> WAL
    std::filesystem::copy_file(path_, crash_);
    std::filesystem::copy_file(path_ + "-wal", crash_ + "-wal");
    return engine;
  }

  uint64_t RecoveredRowCount() {
    auto engine = StorageEngine::Open(crash_).value();
    auto txn = engine->BeginRead().value();
    auto info = txn->GetTableInfo("t");
    EXPECT_TRUE(info.ok());
    const uint64_t catalog_count = info.ok() ? info->row_count : 0;
    // Cross-check the catalog count against a real scan.
    auto t = txn->OpenTable("t");
    EXPECT_TRUE(t.ok());
    uint64_t scanned = 0;
    if (t.ok()) {
      BTreeCursor c = t->NewCursor();
      EXPECT_TRUE(c.SeekToFirst().ok());
      while (c.Valid()) {
        ++scanned;
        EXPECT_TRUE(c.Next().ok());
      }
    }
    EXPECT_EQ(scanned, catalog_count);
    return catalog_count;
  }

  // Opens the engine with the WAL file wrapped in a FaultInjectionFile
  // (no faults armed yet — tests read counters() and arm a schedule at
  // exactly the operation under test). The wrapper pointer stays valid for
  // the engine's lifetime; it is owned by the pager.
  std::unique_ptr<StorageEngine> OpenWithWalFaults(bool sync_on_commit) {
    PagerOptions opts;
    opts.sync_on_commit = sync_on_commit;
    opts.file_wrapper = [this](std::unique_ptr<FileHandle> base,
                               std::string_view role)
        -> std::unique_ptr<FileHandle> {
      if (role != "wal") return base;
      auto wrapped = std::make_unique<FaultInjectionFile>(std::move(base),
                                                          FaultSchedule{});
      wal_faults_ = wrapped.get();
      return wrapped;
    };
    return StorageEngine::Open(path_, opts).value();
  }

  // Freezes the live files into `crash_`, overwriting any earlier freeze.
  void FreezeCrashImage() {
    std::filesystem::copy_file(
        path_, crash_, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::copy_file(
        path_ + "-wal", crash_ + "-wal",
        std::filesystem::copy_options::overwrite_existing);
  }

  void CorruptWalByte(uint64_t offset) {
    std::fstream f(crash_ + "-wal",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b ^= 0x5a;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  }

  std::filesystem::path dir_;
  std::string path_;
  std::string crash_;
  FaultInjectionFile* wal_faults_ = nullptr;
};

TEST_F(WalRecoveryTest, ReopenAfterKillBetweenCommitAndCheckpoint) {
  // The un-mutilated image: the WAL holds a complete commit for batch B
  // that never reached the main file. Recovery must replay it.
  auto engine = SetUpCrashImage();
  EXPECT_EQ(RecoveredRowCount(), 2 * kBatchRows);

  // The recovered instance checkpointed on close; a further reopen of the
  // now self-contained image loses nothing either.
  EXPECT_EQ(RecoveredRowCount(), 2 * kBatchRows);
}

TEST_F(WalRecoveryTest, TruncatedTailFrameDropsWholeCommit) {
  auto engine = SetUpCrashImage();
  // Chop 100 bytes off the last frame: the frame that carries batch B's
  // commit marker is torn, so the entire commit must be discarded.
  const uint64_t wal_size = std::filesystem::file_size(crash_ + "-wal");
  ASSERT_GT(wal_size, 100u);
  std::filesystem::resize_file(crash_ + "-wal", wal_size - 100);

  EXPECT_EQ(RecoveredRowCount(), kBatchRows);
  // Recovery truncated the torn tail on first open; reopening the settled
  // image yields the same state.
  EXPECT_EQ(RecoveredRowCount(), kBatchRows);
}

TEST_F(WalRecoveryTest, TruncatedToFrameBoundaryStillDropsCommit) {
  auto engine = SetUpCrashImage();
  // Remove exactly the last frame. The remaining frames of batch B are
  // individually valid but the commit marker is gone: still all-or-nothing.
  const uint64_t wal_size = std::filesystem::file_size(crash_ + "-wal");
  ASSERT_GE(wal_size, Wal::kFrameSize);
  std::filesystem::resize_file(crash_ + "-wal", wal_size - Wal::kFrameSize);

  EXPECT_EQ(RecoveredRowCount(), kBatchRows);
}

TEST_F(WalRecoveryTest, TornCommitRecordDropsWholeCommit) {
  auto engine = SetUpCrashImage();
  // Flip one byte in the page image of the WAL's final frame (the commit
  // record): its checksum no longer matches, so batch B is discarded.
  const uint64_t wal_size = std::filesystem::file_size(crash_ + "-wal");
  CorruptWalByte(wal_size - Wal::kFrameSize + Wal::kFrameHeaderSize + 512);

  EXPECT_EQ(RecoveredRowCount(), kBatchRows);
}

TEST_F(WalRecoveryTest, CorruptMidCommitFrameDropsFromThatPoint) {
  auto engine = SetUpCrashImage();
  // Corrupt the FIRST frame of the WAL (batch B spans several frames): the
  // commit is unusable from its first page on, so none of it survives.
  CorruptWalByte(Wal::kHeaderSize + Wal::kFrameHeaderSize + 512);

  EXPECT_EQ(RecoveredRowCount(), kBatchRows);
}

TEST_F(WalRecoveryTest, NonConsecutiveCommitSeqIsDiscardedAsStaleTail) {
  // Commits within one WAL generation carry strictly consecutive
  // sequences. A tail whose sequence skips ahead can only be the remnant
  // of an aborted commit that a later, smaller commit partially overwrote;
  // recovery must refuse to stitch it into history.
  IoStats stats;
  const std::string wal_path = (dir_ / "wal").string();
  {
    auto wal = Wal::Open(wal_path, &stats).value();
    Page p;
    p.Zero();
    p.WriteU32(0, 1);
    ASSERT_TRUE(wal->AppendCommit({{3, &p}}, 1, kWrite).ok());
    p.WriteU32(0, 2);
    ASSERT_TRUE(wal->AppendCommit({{3, &p}}, 3, kWrite).ok());  // skips seq 2
  }
  auto wal = Wal::Open(wal_path, &stats).value();
  EXPECT_EQ(wal->frame_count(), 1u);           // only the seq-1 commit
  EXPECT_EQ(wal->last_committed_seq(), 1u);
  Page out;
  ASSERT_TRUE(wal->ReadFrame(1, &out).ok());
  EXPECT_EQ(out.ReadU32(0), 1u);
}

TEST_F(WalRecoveryTest, KillMidPartialCheckpointReplaysOnlyUnfoldedFrames) {
  // A pinned reader holds the backfill horizon after batch A, so the
  // checkpoint folds only A's frames and persists the watermark; the
  // crash image freezes a WAL whose folded prefix is A and whose
  // unfolded tail is B.
  auto engine = StorageEngine::Open(path_).value();
  EXPECT_TRUE(CommitBatch(engine.get(), 0).ok());
  auto pinned = engine->BeginRead().value();
  const uint64_t folded_frames = engine->pager()->wal_frame_count();
  EXPECT_TRUE(CommitBatch(engine.get(), kBatchRows).ok());
  ASSERT_TRUE(engine->Checkpoint().ok());  // partial: folds A only
  ASSERT_EQ(engine->pager()->wal_backfill_watermark(), folded_frames);
  ASSERT_GT(engine->pager()->wal_frame_count(), folded_frames);
  std::filesystem::copy_file(path_, crash_);
  std::filesystem::copy_file(path_ + "-wal", crash_ + "-wal");

  // The watermark survived the crash, so recovery skips re-indexing the
  // folded prefix (A comes from the main file) and replays only the
  // unfolded tail (B).
  {
    IoStats stats;
    auto wal = Wal::Open(crash_ + "-wal", &stats).value();
    EXPECT_EQ(wal->backfill_watermark(), folded_frames);
    EXPECT_GT(wal->frame_count(), folded_frames);
  }
  EXPECT_EQ(RecoveredRowCount(), 2 * kBatchRows);
}

TEST_F(WalRecoveryTest, TornFoldedPrefixFallsBackToCheckpointedState) {
  // Same partial-checkpoint image as above, but with a byte shot into the
  // *folded* region. Recovery cannot anchor the commit chain on a torn
  // prefix, so it discards the whole log — losing only batch B, which was
  // never acknowledged durable — and serves the checkpointed main file.
  auto engine = StorageEngine::Open(path_).value();
  EXPECT_TRUE(CommitBatch(engine.get(), 0).ok());
  auto pinned = engine->BeginRead().value();
  EXPECT_TRUE(CommitBatch(engine.get(), kBatchRows).ok());
  ASSERT_TRUE(engine->Checkpoint().ok());  // partial: folds A only
  ASSERT_GT(engine->pager()->wal_backfill_watermark(), 0u);
  std::filesystem::copy_file(path_, crash_);
  std::filesystem::copy_file(path_ + "-wal", crash_ + "-wal");
  CorruptWalByte(Wal::kHeaderSize + Wal::kFrameHeaderSize + 512);

  EXPECT_EQ(RecoveredRowCount(), kBatchRows);
  // The discarded log was truncated during recovery; a further reopen of
  // the settled image is stable.
  EXPECT_EQ(RecoveredRowCount(), kBatchRows);
}

TEST_F(WalRecoveryTest, CorruptWalHeaderOnlyCostsTheWatermark) {
  // Shoot a byte into the WAL *file header* (the watermark field). The
  // header checksum fails, recovery falls back to watermark 0 and simply
  // re-indexes every frame — batch B still replays.
  auto engine = SetUpCrashImage();
  CorruptWalByte(8);  // inside the backfill watermark field

  EXPECT_EQ(RecoveredRowCount(), 2 * kBatchRows);
}

TEST_F(WalRecoveryTest, KillAfterCheckpointNeedsNoWal) {
  auto engine = SetUpCrashImage();
  // Checkpoint batch B too, then freeze. Recovery must not depend on the
  // WAL at all: simulate the crash image losing it entirely.
  ASSERT_TRUE(engine->Checkpoint().ok());
  std::filesystem::copy_file(path_, crash_,
                             std::filesystem::copy_options::overwrite_existing);
  ASSERT_TRUE(RemoveFileIfExists(crash_ + "-wal").ok());

  EXPECT_EQ(RecoveredRowCount(), 2 * kBatchRows);
}

// --- Injected-fault matrix (FaultInjectionFile, no process kill) -----------

TEST_F(WalRecoveryTest, InjectedFrameWriteFaultFailsCommitAtomically) {
  auto engine = OpenWithWalFaults(/*sync_on_commit=*/false);
  ASSERT_TRUE(CommitBatch(engine.get(), 0).ok());
  ASSERT_TRUE(engine->Checkpoint().ok());  // batch A -> main file

  // Fail the very next WAL write: batch B's commit places all its frames
  // with a single positional write, so this kills the commit before any
  // frame is published.
  FaultSchedule s;
  s.fail_write_at = wal_faults_->counters().writes + 1;
  wal_faults_->set_schedule(s);
  EXPECT_FALSE(CommitBatch(engine.get(), kBatchRows).ok());

  // A crash right now loses only the failed (never-acknowledged) commit.
  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), kBatchRows);

  // The live engine is not wedged: with the fault gone, the same batch
  // commits cleanly and the next crash image carries it.
  wal_faults_->set_schedule(FaultSchedule{});
  EXPECT_TRUE(CommitBatch(engine.get(), kBatchRows).ok());
  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), 2 * kBatchRows);
}

TEST_F(WalRecoveryTest, InjectedTornCommitWriteLeavesRecoverableTail) {
  auto engine = OpenWithWalFaults(/*sync_on_commit=*/false);
  ASSERT_TRUE(CommitBatch(engine.get(), 0).ok());
  ASSERT_TRUE(engine->Checkpoint().ok());

  // The commit write tears one-and-a-bit frames in, AND the best-effort
  // rollback truncate fails too — the worst case: an orphaned torn tail
  // really persists in the file (frame 1 of batch B is bit-perfect but
  // carries no commit marker; frame 2 is garbage).
  const FaultCounters before = wal_faults_->counters();
  FaultSchedule s;
  s.torn_write_at = before.writes + 1;
  s.torn_write_bytes = Wal::kFrameSize + 100;
  s.fail_truncate_at = before.truncates + 1;
  wal_faults_->set_schedule(s);
  EXPECT_FALSE(CommitBatch(engine.get(), kBatchRows).ok());

  // Restart recovery refuses to stitch the markerless tail into history.
  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), kBatchRows);

  // On the live engine the orphan blocks further commits until the guard
  // truncate succeeds; once the fault is gone the next commit retries it,
  // overwrites the tail, and lands.
  wal_faults_->set_schedule(FaultSchedule{});
  EXPECT_TRUE(CommitBatch(engine.get(), kBatchRows).ok());
  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), 2 * kBatchRows);
}

TEST_F(WalRecoveryTest, InjectedCommitFsyncFaultIsStickyButLosesNoData) {
  auto engine = OpenWithWalFaults(/*sync_on_commit=*/true);
  ASSERT_TRUE(CommitBatch(engine.get(), 0).ok());
  ASSERT_TRUE(engine->Checkpoint().ok());

  // Batch B's frames hit the file fine; the commit fsync fails, so the
  // commit is reported failed (its durability is unknown).
  FaultSchedule s;
  s.fail_sync_at = wal_faults_->counters().syncs + 1;
  wal_faults_->set_schedule(s);
  EXPECT_FALSE(CommitBatch(engine.get(), kBatchRows).ok());
  wal_faults_->set_schedule(FaultSchedule{});

  // Deterministic resolution of the ambiguity here: the underlying write
  // succeeded, so recovery finds a complete commit and replays it. Losing
  // an *unacknowledged* batch would also have been legal; inventing data
  // or tearing the batch would not.
  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), 2 * kBatchRows);

  // Post-failure fsync state is undefined, so the failure is sticky: even
  // with the fault disarmed, this pager refuses to acknowledge further
  // synced commits for its lifetime.
  EXPECT_FALSE(CommitBatch(engine.get(), 2 * kBatchRows).ok());
}

TEST_F(WalRecoveryTest, InjectedEintrRestartsAreInvisible) {
  // Every 2nd read on BOTH files is interrupted and restarted. The whole
  // write → checkpoint → cold-read cycle must behave identically.
  FaultSchedule s;
  s.eintr_every = 2;
  std::vector<FaultInjectionFile*> files;
  PagerOptions opts;
  opts.file_wrapper = [&files, &s](std::unique_ptr<FileHandle> base,
                                   std::string_view)
      -> std::unique_ptr<FileHandle> {
    auto wrapped = std::make_unique<FaultInjectionFile>(std::move(base), s);
    files.push_back(wrapped.get());
    return wrapped;
  };
  auto engine = StorageEngine::Open(path_, opts).value();
  ASSERT_TRUE(CommitBatch(engine.get(), 0).ok());
  ASSERT_TRUE(engine->Checkpoint().ok());
  ASSERT_TRUE(CommitBatch(engine.get(), kBatchRows).ok());
  engine->DropCaches();

  auto txn = engine->BeginRead().value();
  auto t = txn->OpenTable("t");
  ASSERT_TRUE(t.ok());
  uint64_t scanned = 0;
  BTreeCursor c = t->NewCursor();
  ASSERT_TRUE(c.SeekToFirst().ok());
  while (c.Valid()) {
    std::string_view k = c.key();
    uint64_t id = 0;
    ASSERT_TRUE(key::ConsumeU64(&k, &id));
    Result<std::string> v = c.value();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "row" + std::to_string(id));
    ++scanned;
    ASSERT_TRUE(c.Next().ok());
  }
  EXPECT_EQ(scanned, 2 * kBatchRows);

  uint64_t reads = 0;
  for (const FaultInjectionFile* f : files) reads += f->counters().reads;
  EXPECT_GT(reads, 0u);  // the schedule actually exercised restarts
}

// --- Wrap-around matrix (WAL format v3 epochs) ------------------------------

TEST_F(WalRecoveryTest, WrapAroundReusesPrefixAndRecovers) {
  // Batch A committed, snapshot pinned AFTER the commit (so the reader
  // horizon covers everything), checkpoint: the fold completes, the
  // pinned reader blocks the truncating reset, and the wrap-around opens
  // generation 1 at slot 1 without shrinking the file.
  auto engine = StorageEngine::Open(path_).value();
  ASSERT_TRUE(CommitBatch(engine.get(), 0).ok());
  auto pinned = engine->BeginRead().value();
  ASSERT_GT(engine->pager()->wal_frame_count(), 0u);
  const uint64_t size_before = std::filesystem::file_size(path_ + "-wal");
  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_EQ(engine->pager()->wal_epoch(), 1u);
  EXPECT_EQ(engine->pager()->wal_frame_count(), 0u);
  EXPECT_EQ(engine->pager()->wal_backfill_watermark(), 0u);
  // Not truncated: batch A's frames linger as stale survivors for the new
  // generation to overwrite slot by slot.
  EXPECT_EQ(std::filesystem::file_size(path_ + "-wal"), size_before);

  // Batch B lands in the reclaimed slots; a crash now must recover both
  // batches (A from the main file, B from the generation-1 frames), and
  // must NOT resurrect any stale generation-0 survivor past B's tail.
  ASSERT_TRUE(CommitBatch(engine.get(), kBatchRows).ok());
  FreezeCrashImage();
  {
    IoStats stats;
    auto wal = Wal::Open(crash_ + "-wal", &stats).value();
    EXPECT_EQ(wal->epoch(), 1u);
    EXPECT_EQ(wal->frame_count(), engine->pager()->wal_frame_count());
  }
  EXPECT_EQ(RecoveredRowCount(), 2 * kBatchRows);
}

TEST_F(WalRecoveryTest, CrashBetweenEpochBumpAndFirstWrappedFrame) {
  // The narrowest wrap-around window: the new epoch is durable in the
  // header but no generation-1 frame exists yet. Recovery must see an
  // empty log (the slot-1 survivor's epoch mismatches) over the fully
  // folded main file — batch A intact, nothing invented.
  auto engine = StorageEngine::Open(path_).value();
  ASSERT_TRUE(CommitBatch(engine.get(), 0).ok());
  auto pinned = engine->BeginRead().value();
  ASSERT_TRUE(engine->Checkpoint().ok());  // full fold + wrap
  ASSERT_EQ(engine->pager()->wal_epoch(), 1u);
  FreezeCrashImage();
  {
    IoStats stats;
    auto wal = Wal::Open(crash_ + "-wal", &stats).value();
    EXPECT_EQ(wal->epoch(), 1u);
    EXPECT_EQ(wal->frame_count(), 0u);
    EXPECT_EQ(wal->last_committed_seq(), 0u);
  }
  EXPECT_EQ(RecoveredRowCount(), kBatchRows);
}

TEST_F(WalRecoveryTest, InjectedTornEpochHeaderWriteFailsWrapSafely) {
  // Fail the wrap's header rewrite (WAL write #2 of the checkpoint: #1 is
  // the watermark advance). The checkpoint reports failure, the old
  // generation stays live and fully folded, and no acked commit is lost —
  // before or after a crash.
  auto engine = OpenWithWalFaults(/*sync_on_commit=*/false);
  ASSERT_TRUE(CommitBatch(engine.get(), 0).ok());
  auto pinned = engine->BeginRead().value();
  const uint64_t frames = engine->pager()->wal_frame_count();
  FaultSchedule s;
  s.fail_write_at = wal_faults_->counters().writes + 2;
  wal_faults_->set_schedule(s);
  EXPECT_FALSE(engine->Checkpoint().ok());
  wal_faults_->set_schedule(FaultSchedule{});
  EXPECT_EQ(engine->pager()->wal_epoch(), 0u);
  EXPECT_EQ(engine->pager()->wal_frame_count(), frames);
  EXPECT_EQ(engine->pager()->wal_backfill_watermark(), frames);

  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), kBatchRows);

  // The live engine keeps committing (unsynced commits never consult the
  // sticky sync flag) and the next crash image carries batch B too.
  ASSERT_TRUE(CommitBatch(engine.get(), kBatchRows).ok());
  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), 2 * kBatchRows);
}

TEST_F(WalRecoveryTest, InjectedEpochHeaderFsyncFailureKeepsOldGeneration) {
  // Fail the wrap's header fsync instead (WAL sync #2: #1 is the fold
  // sync). In memory the old generation stays live; on disk the header
  // may already carry the new epoch — recovery then sees an empty log
  // over the fully folded main file, losing only unsynced commits, which
  // is the documented contract without sync_on_commit.
  auto engine = OpenWithWalFaults(/*sync_on_commit=*/false);
  ASSERT_TRUE(CommitBatch(engine.get(), 0).ok());
  auto pinned = engine->BeginRead().value();
  const uint64_t frames = engine->pager()->wal_frame_count();
  FaultSchedule s;
  s.fail_sync_at = wal_faults_->counters().syncs + 2;
  wal_faults_->set_schedule(s);
  EXPECT_FALSE(engine->Checkpoint().ok());
  wal_faults_->set_schedule(FaultSchedule{});
  EXPECT_EQ(engine->pager()->wal_epoch(), 0u);
  EXPECT_EQ(engine->pager()->wal_frame_count(), frames);
  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), kBatchRows);

  // The old generation keeps accepting commits, and a later successful
  // checkpoint (fold + wrap) squares the header away again. Refresh the
  // pin past the new commit so the fold can complete (rolling-pin style).
  ASSERT_TRUE(CommitBatch(engine.get(), kBatchRows).ok());
  pinned.reset();
  pinned = engine->BeginRead().value();
  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_EQ(engine->pager()->wal_epoch(), 1u);
  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), 2 * kBatchRows);
}

TEST_F(WalRecoveryTest, InjectedTornFirstWrappedFrameDropsOnlyThatCommit) {
  // Clean wrap, then batch B's commit write tears one-and-a-bit frames
  // into the reclaimed prefix (worst case: the rollback truncate fails
  // too, so the torn tail persists). Recovery must drop B atomically and
  // must not resurrect the stale generation-0 frames behind the tear.
  auto engine = OpenWithWalFaults(/*sync_on_commit=*/false);
  ASSERT_TRUE(CommitBatch(engine.get(), 0).ok());
  auto pinned = engine->BeginRead().value();
  ASSERT_TRUE(engine->Checkpoint().ok());
  ASSERT_EQ(engine->pager()->wal_epoch(), 1u);

  const FaultCounters before = wal_faults_->counters();
  FaultSchedule s;
  s.torn_write_at = before.writes + 1;
  s.torn_write_bytes = Wal::kFrameSize + 100;
  s.fail_truncate_at = before.truncates + 1;
  wal_faults_->set_schedule(s);
  EXPECT_FALSE(CommitBatch(engine.get(), kBatchRows).ok());
  wal_faults_->set_schedule(FaultSchedule{});

  FreezeCrashImage();
  {
    // Row counts alone cannot prove survivors stayed dead (their content
    // is already folded, so replaying one is invisible to a scan); check
    // the recovered log directly.
    IoStats stats;
    auto wal = Wal::Open(crash_ + "-wal", &stats).value();
    EXPECT_EQ(wal->frame_count(), 0u);
    EXPECT_EQ(wal->epoch(), 1u);
  }
  EXPECT_EQ(RecoveredRowCount(), kBatchRows);

  // Live engine: the dirty-tail guard re-truncates before the retried
  // commit's write, which then lands in the reclaimed slots.
  EXPECT_TRUE(CommitBatch(engine.get(), kBatchRows).ok());
  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), 2 * kBatchRows);
}

TEST_F(WalRecoveryTest, CommitStraddlingWrapBoundarySurvives) {
  // After a wrap, a commit larger than the previous generation overwrites
  // every reclaimed slot AND extends past the old end of file in one
  // positional write. Clean case: everything recovers.
  auto engine = StorageEngine::Open(path_).value();
  ASSERT_TRUE(CommitBatch(engine.get(), 0).ok());
  auto pinned = engine->BeginRead().value();
  const uint64_t stale_frames = engine->pager()->wal_frame_count();
  ASSERT_TRUE(engine->Checkpoint().ok());
  ASSERT_EQ(engine->pager()->wal_epoch(), 1u);

  ASSERT_TRUE(CommitRows(engine.get(), kBatchRows, 3 * kBatchRows).ok());
  ASSERT_GT(engine->pager()->wal_frame_count(), stale_frames)
      << "batch B must straddle the old generation's end for this test";
  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), 4 * kBatchRows);
}

TEST_F(WalRecoveryTest, InjectedTearAtWrapStraddlePointDropsCommit) {
  // Same straddling commit, torn exactly past the old generation's last
  // slot: the prefix inside the reclaimed region is bit-perfect (epoch 1,
  // no marker yet), the extension is garbage. All-or-nothing must hold.
  auto engine = OpenWithWalFaults(/*sync_on_commit=*/false);
  ASSERT_TRUE(CommitBatch(engine.get(), 0).ok());
  auto pinned = engine->BeginRead().value();
  const uint64_t stale_frames = engine->pager()->wal_frame_count();
  ASSERT_TRUE(engine->Checkpoint().ok());
  ASSERT_EQ(engine->pager()->wal_epoch(), 1u);

  FaultSchedule s;
  s.torn_write_at = wal_faults_->counters().writes + 1;
  s.torn_write_bytes = stale_frames * Wal::kFrameSize + 100;
  s.fail_truncate_at = wal_faults_->counters().truncates + 1;
  wal_faults_->set_schedule(s);
  EXPECT_FALSE(CommitRows(engine.get(), kBatchRows, 3 * kBatchRows).ok());
  wal_faults_->set_schedule(FaultSchedule{});

  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), kBatchRows);

  EXPECT_TRUE(CommitRows(engine.get(), kBatchRows, 3 * kBatchRows).ok());
  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), 4 * kBatchRows);
}

TEST_F(WalRecoveryTest, InjectedPipelinedFlushWriteFailureAcksNothing) {
  // Group commit with sync_on_commit: the frames are staged and the
  // group-commit leader's one batched write fails. Nothing
  // reached the file, so a crash image holds batch A only; the live
  // engine applies the sticky no-ack rule exactly as for a failed fsync.
  auto engine = OpenWithWalFaults(/*sync_on_commit=*/true);
  ASSERT_TRUE(CommitBatch(engine.get(), 0).ok());
  ASSERT_TRUE(engine->Checkpoint().ok());

  FaultSchedule s;
  s.fail_write_at = wal_faults_->counters().writes + 1;
  wal_faults_->set_schedule(s);
  EXPECT_FALSE(CommitBatch(engine.get(), kBatchRows).ok());
  wal_faults_->set_schedule(FaultSchedule{});

  FreezeCrashImage();
  EXPECT_EQ(RecoveredRowCount(), kBatchRows);

  // Sticky: no later synced commit is acknowledged by this pager.
  EXPECT_FALSE(CommitBatch(engine.get(), 2 * kBatchRows).ok());
}

TEST_F(WalRecoveryTest, StaleSurvivorsIgnoredAfterWrapRestart) {
  // WAL-level wrap semantics, no engine: two folded commits, wrap, one
  // generation-1 commit. Recovery must index exactly the new commit and
  // shed the two stale survivors (whose checksums are still perfect).
  IoStats stats;
  const std::string wal_path = (dir_ / "wal").string();
  const std::string copy_path = (dir_ / "wal_crash").string();
  auto wal = Wal::Open(wal_path, &stats).value();
  Page p;
  p.Zero();
  p.WriteU32(0, 11);
  ASSERT_TRUE(wal->AppendCommit({{3, &p}}, 1, kWrite).ok());
  p.WriteU32(0, 22);
  ASSERT_TRUE(wal->AppendCommit({{4, &p}}, 2, kWrite).ok());
  ASSERT_TRUE(wal->Sync().ok());
  ASSERT_TRUE(wal->AdvanceBackfillWatermark(2, 2).ok());
  ASSERT_TRUE(wal->WrapRestart().ok());
  EXPECT_EQ(wal->epoch(), 1u);
  EXPECT_EQ(wal->frame_count(), 0u);

  // Crash before any generation-1 frame: an empty epoch-1 log.
  std::filesystem::copy_file(wal_path, copy_path);
  {
    auto crashed = Wal::Open(copy_path, &stats).value();
    EXPECT_EQ(crashed->epoch(), 1u);
    EXPECT_EQ(crashed->frame_count(), 0u);
  }

  p.WriteU32(0, 33);
  ASSERT_TRUE(wal->AppendCommit({{5, &p}}, 3, kWrite).ok());
  std::filesystem::copy_file(
      wal_path, copy_path, std::filesystem::copy_options::overwrite_existing);
  {
    auto crashed = Wal::Open(copy_path, &stats).value();
    EXPECT_EQ(crashed->epoch(), 1u);
    EXPECT_EQ(crashed->frame_count(), 1u);
    EXPECT_EQ(crashed->last_committed_seq(), 3u);
    ASSERT_TRUE(crashed->FindFrame(5, 3).has_value());
    Page out;
    ASSERT_TRUE(crashed->ReadFrame(1, &out).ok());
    EXPECT_EQ(out.ReadU32(0), 33u);
    EXPECT_FALSE(crashed->FindFrame(3, 3).has_value());  // stale survivor
    EXPECT_FALSE(crashed->FindFrame(4, 3).has_value());
  }
}

TEST_F(WalRecoveryTest, FormatV2HeaderStillOpens) {
  // A pre-epoch (v2) header must open as generation 0 with every frame
  // intact: v2 frames carry a zero where the epoch now lives, covered by
  // the same checksum, so only the file header differs.
  IoStats stats;
  const std::string wal_path = (dir_ / "wal").string();
  {
    auto wal = Wal::Open(wal_path, &stats).value();
    Page p;
    p.Zero();
    p.WriteU32(0, 77);
    ASSERT_TRUE(wal->AppendCommit({{9, &p}}, 1, kWrite).ok());
  }
  {
    // Rewrite the file header in the v2 layout (no epoch field).
    struct V2Header {
      uint32_t magic;
      uint32_t version;
      uint64_t backfill_watermark;
      uint64_t backfill_seq;
      uint64_t checksum;
    } h;
    h.magic = Wal::kWalMagic;
    h.version = 2;
    h.backfill_watermark = 0;
    h.backfill_seq = 0;
    h.checksum = Hash64(&h, offsetof(V2Header, checksum));
    uint8_t raw[Wal::kHeaderSize] = {0};
    std::memcpy(raw, &h, sizeof(h));
    std::fstream f(wal_path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.write(reinterpret_cast<const char*>(raw), Wal::kHeaderSize);
  }
  auto wal = Wal::Open(wal_path, &stats).value();
  EXPECT_EQ(wal->epoch(), 0u);
  EXPECT_EQ(wal->frame_count(), 1u);
  Page out;
  ASSERT_TRUE(wal->ReadFrame(1, &out).ok());
  EXPECT_EQ(out.ReadU32(0), 77u);
}

}  // namespace
}  // namespace micronn
