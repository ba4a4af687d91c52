// Stress tests for the concurrent storage read path: N reader threads
// scanning while a writer commits batches (with the commit fsync enabled)
// and auto-checkpointing fires. Stronger than the engine-level smoke test:
// the writer *waits* for reader progress after every commit, so a read
// path that stalls behind commits deadlocks the test (caught by the
// timeout) instead of passing vacuously, and every scan cross-checks three
// views of the committed state to detect torn snapshots.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/engine.h"
#include "storage/key_encoding.h"
#include "storage/pager.h"

namespace micronn {
namespace {

class PagerConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_pagercc_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = dir_ / "db";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

// Commits `rows` new rows into "t" and records the new expected total in
// the same transaction under meta/"count", so any snapshot must observe
// the row set and the counter in agreement.
Status CommitBatch(StorageEngine* engine, uint64_t start, uint64_t rows) {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                           engine->BeginWrite());
  Result<BTree> t = txn->OpenOrCreateTable("t");
  if (!t.ok()) {
    engine->Rollback(std::move(txn));
    return t.status();
  }
  for (uint64_t i = start; i < start + rows; ++i) {
    Status st = t->Put(key::U64(i), "row" + std::to_string(i));
    if (!st.ok()) {
      engine->Rollback(std::move(txn));
      return st;
    }
  }
  Result<BTree> meta = txn->OpenOrCreateTable("meta");
  if (!meta.ok()) {
    engine->Rollback(std::move(txn));
    return meta.status();
  }
  Status st = meta->Put("count", std::to_string(start + rows));
  if (!st.ok()) {
    engine->Rollback(std::move(txn));
    return st;
  }
  txn->AddRowDelta("t", static_cast<int64_t>(rows));
  return engine->Commit(std::move(txn));
}

// One reader scan: returns false (torn snapshot) if the full scan of "t",
// the meta/"count" value, and the catalog row_count disagree with each
// other or with the batch invariant.
bool ConsistentScan(StorageEngine* engine, uint64_t batch_rows) {
  auto txn_or = engine->BeginRead();
  if (!txn_or.ok()) return false;
  std::unique_ptr<ReadTransaction> txn = std::move(*txn_or);

  auto meta = txn->OpenTable("meta");
  if (!meta.ok()) return false;
  auto count_val = meta->Get("count");
  if (!count_val.ok() || !count_val->has_value()) return false;
  const uint64_t expected = std::stoull(**count_val);

  auto t = txn->OpenTable("t");
  if (!t.ok()) return false;
  auto info = txn->GetTableInfo("t");
  if (!info.ok() || info->row_count != expected) return false;

  BTreeCursor c = t->NewCursor();
  if (!c.SeekToFirst().ok()) return false;
  uint64_t scanned = 0;
  while (c.Valid()) {
    ++scanned;
    if (!c.Next().ok()) return false;
  }
  return scanned == expected && expected % batch_rows == 0;
}

TEST_F(PagerConcurrencyTest, ReadersProgressDuringSyncedCommits) {
  PagerOptions options;
  // Every commit fdatasyncs the WAL: with the old global-mutex design each
  // fsync stalled the whole read path; now it must not.
  options.sync_on_commit = true;
  auto engine = StorageEngine::Open(path_, options).value();

  constexpr uint64_t kBatchRows = 50;
  constexpr int kBatches = 20;
  ASSERT_TRUE(CommitBatch(engine.get(), 0, kBatchRows).ok());
  const uint64_t seq_after_setup = engine->last_committed_seq();

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<uint64_t> scans{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        if (!ConsistentScan(engine.get(), kBatchRows)) {
          ++torn;
        }
        ++scans;
      }
    });
  }

  // The writer demands reader progress after every commit: if no reader
  // completes a scan while the writer sits between two commits, the test
  // fails on wait_failures rather than hanging.
  int wait_failures = 0;
  for (int b = 1; b <= kBatches; ++b) {
    const uint64_t scans_before = scans.load();
    ASSERT_TRUE(CommitBatch(engine.get(), b * kBatchRows, kBatchRows).ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (scans.load() == scans_before) {
      if (std::chrono::steady_clock::now() > deadline) {
        ++wait_failures;
        break;
      }
      std::this_thread::yield();
    }
  }
  stop.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(wait_failures, 0);
  EXPECT_GE(scans.load(), static_cast<uint64_t>(kBatches));
  // Each commit advances the sequence by exactly one.
  EXPECT_EQ(engine->last_committed_seq(), seq_after_setup + kBatches);

  // Final state: everything committed is visible.
  auto txn = engine->BeginRead().value();
  EXPECT_EQ(txn->GetTableInfo("t").value().row_count,
            kBatchRows * (1 + kBatches));
}

TEST_F(PagerConcurrencyTest, NoTornSnapshotUnderAutoCheckpoint) {
  PagerOptions options;
  // Tiny WAL threshold so auto-checkpoint wants to fire throughout the
  // run; it may only succeed in reader gaps, never under a live snapshot.
  options.auto_checkpoint_frames = 32;
  auto engine = StorageEngine::Open(path_, options).value();

  constexpr uint64_t kBatchRows = 25;
  constexpr int kBatches = 40;
  ASSERT_TRUE(CommitBatch(engine.get(), 0, kBatchRows).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<uint64_t> scans{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        if (!ConsistentScan(engine.get(), kBatchRows)) {
          ++torn;
        }
        ++scans;
        // Brief registry gaps give the auto-checkpoint a chance to run.
        std::this_thread::yield();
      }
    });
  }

  for (int b = 1; b <= kBatches; ++b) {
    ASSERT_TRUE(CommitBatch(engine.get(), b * kBatchRows, kBatchRows).ok());
  }
  stop.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(scans.load(), 0u);

  // Deterministic checkpoint coverage: whether or not the auto-checkpoint
  // found an idle window during the run, it must succeed now, and the
  // folded pages must survive reopen without the WAL.
  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_GT(engine->io_stats().checkpoint_pages.load(), 0u);
  ASSERT_TRUE(engine->Close().ok());
  ASSERT_TRUE(RemoveFileIfExists(path_ + "-wal").ok());

  auto reopened = StorageEngine::Open(path_).value();
  auto txn = reopened->BeginRead().value();
  EXPECT_EQ(txn->GetTableInfo("t").value().row_count,
            kBatchRows * (1 + kBatches));
}

TEST_F(PagerConcurrencyTest, SnapshotStableAcrossManyCommits) {
  auto engine = StorageEngine::Open(path_).value();
  constexpr uint64_t kBatchRows = 10;
  ASSERT_TRUE(CommitBatch(engine.get(), 0, kBatchRows).ok());

  // Pin one snapshot, then rescan it repeatedly while 50 commits land:
  // every rescan must return identical state (snapshot stability is the
  // strongest form of "no torn reads").
  auto pinned = engine->BeginRead().value();
  std::atomic<bool> stop{false};
  std::atomic<int> divergences{0};
  std::thread rescanner([&] {
    while (!stop.load()) {
      auto t = pinned->OpenTable("t");
      if (!t.ok()) {
        ++divergences;
        continue;
      }
      BTreeCursor c = t->NewCursor();
      if (!c.SeekToFirst().ok()) {
        ++divergences;
        continue;
      }
      uint64_t n = 0;
      while (c.Valid()) {
        ++n;
        if (!c.Next().ok()) break;
      }
      if (n != kBatchRows) ++divergences;
    }
  });

  for (int b = 1; b <= 50; ++b) {
    ASSERT_TRUE(CommitBatch(engine.get(), b * kBatchRows, kBatchRows).ok());
  }
  stop.store(true);
  rescanner.join();
  EXPECT_EQ(divergences.load(), 0);

  // A fresh snapshot sees all 51 batches.
  auto fresh = engine->BeginRead().value();
  EXPECT_EQ(fresh->GetTableInfo("t").value().row_count, kBatchRows * 51);
}

// The incremental checkpoint contract (deliberately supersedes the old
// "Busy whenever a reader exists" regression test): a checkpoint under a
// pinned reader snapshot folds every frame at-or-below the reader's
// horizon, advances the persistent backfill watermark, and returns Ok.
// Only an active writer still yields Busy, and the WAL is reset only once
// all frames are folded and no reader remains.
TEST_F(PagerConcurrencyTest, CheckpointProgressesUnderPinnedReader) {
  auto engine = StorageEngine::Open(path_).value();
  ASSERT_TRUE(CommitBatch(engine.get(), 0, 10).ok());
  Pager* pager = engine->pager();

  // Pin a snapshot at the current horizon, then land two commits whose
  // frames lie beyond it.
  auto pinned = engine->BeginRead().value();
  const uint64_t horizon_frames = pager->wal_frame_count();
  ASSERT_GT(horizon_frames, 0u);
  ASSERT_TRUE(CommitBatch(engine.get(), 10, 10).ok());
  ASSERT_TRUE(CommitBatch(engine.get(), 20, 10).ok());
  const uint64_t all_frames = pager->wal_frame_count();
  ASSERT_GT(all_frames, horizon_frames);

  // Partial checkpoint: Ok (not Busy), folds exactly the prefix at-or-
  // below the pinned horizon, leaves the tail and the log itself alone.
  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_EQ(pager->wal_backfill_watermark(), horizon_frames);
  EXPECT_EQ(pager->wal_frame_count(), all_frames);
  EXPECT_GT(engine->io_stats().checkpoint_pages.load(), 0u);

  // Re-running with the horizon unchanged is a cheap no-op, not an error.
  const uint64_t pages_after_first =
      engine->io_stats().checkpoint_pages.load();
  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_EQ(pager->wal_backfill_watermark(), horizon_frames);
  EXPECT_EQ(engine->io_stats().checkpoint_pages.load(), pages_after_first);

  // The pinned snapshot still reads its own version after the fold.
  {
    auto t = pinned->OpenTable("t").value();
    BTreeCursor c = t.NewCursor();
    ASSERT_TRUE(c.SeekToFirst().ok());
    uint64_t n = 0;
    while (c.Valid()) {
      ++n;
      ASSERT_TRUE(c.Next().ok());
    }
    EXPECT_EQ(n, 10u);
  }

  // An open write transaction still makes the checkpoint yield.
  {
    auto writer = engine->BeginWrite().value();
    Status st = engine->Checkpoint();
    EXPECT_TRUE(st.IsBusy()) << st.ToString();
    engine->Rollback(std::move(writer));
  }

  // Horizon released: the next checkpoint folds the tail and resets.
  pinned.reset();
  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_EQ(pager->wal_frame_count(), 0u);
  EXPECT_EQ(pager->wal_backfill_watermark(), 0u);

  // Everything folded must live in the main file: reopen without the WAL.
  ASSERT_TRUE(engine->Close().ok());
  ASSERT_TRUE(RemoveFileIfExists(path_ + "-wal").ok());
  auto reopened = StorageEngine::Open(path_).value();
  auto txn = reopened->BeginRead().value();
  EXPECT_EQ(txn->GetTableInfo("t").value().row_count, 30u);
}

TEST_F(PagerConcurrencyTest, WalBackpressureBoundsWalGrowth) {
  PagerOptions options;
  options.auto_checkpoint_frames = 0;  // isolate the backpressure path
  options.wal_backpressure_frames = 64;
  options.wal_backpressure_wait_ms = 5000;
  auto engine = StorageEngine::Open(path_, options).value();
  Pager* pager = engine->pager();

  constexpr uint64_t kBatchRows = 20;
  ASSERT_TRUE(CommitBatch(engine.get(), 0, kBatchRows).ok());

  // A transient reader churns throughout: the blocking checkpoint must
  // reclaim the log in registry gaps rather than be starved by them.
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!stop.load()) {
      if (!ConsistentScan(engine.get(), kBatchRows)) {
        ++torn;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  uint64_t max_frames = 0;
  for (int b = 1; b <= 60; ++b) {
    ASSERT_TRUE(CommitBatch(engine.get(), b * kBatchRows, kBatchRows).ok());
    max_frames = std::max(max_frames, pager->wal_frame_count());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0);

  // Every commit that left the WAL past the threshold performed a
  // blocking full checkpoint before returning, so the post-commit frame
  // count can never run away: at most the threshold plus the frames the
  // triggering commit itself appended (with generous slack for a fold
  // that timed out against the reader and settled for partial backfill).
  EXPECT_LE(max_frames, options.wal_backpressure_frames + 64)
      << "WAL kept growing past the backpressure threshold";

  auto txn = engine->BeginRead().value();
  EXPECT_EQ(txn->GetTableInfo("t").value().row_count, kBatchRows * 61);
}

TEST_F(PagerConcurrencyTest, BackpressureTimesOutUnderPinnedReader) {
  PagerOptions options;
  options.auto_checkpoint_frames = 0;
  options.wal_backpressure_frames = 8;
  options.wal_backpressure_wait_ms = 50;  // keep the test fast
  auto engine = StorageEngine::Open(path_, options).value();
  Pager* pager = engine->pager();

  ASSERT_TRUE(CommitBatch(engine.get(), 0, 10).ok());
  auto pinned = engine->BeginRead().value();
  const uint64_t horizon_frames = pager->wal_frame_count();

  // Commits past the threshold must not deadlock on the pinned snapshot:
  // each blocking checkpoint folds up to the pinned horizon, times out
  // waiting for the registry to drain, and lets the commit return.
  for (int b = 1; b <= 5; ++b) {
    ASSERT_TRUE(CommitBatch(engine.get(), b * 10, 10).ok());
  }
  EXPECT_GT(pager->wal_frame_count(), options.wal_backpressure_frames);
  EXPECT_EQ(pager->wal_backfill_watermark(), horizon_frames);

  // Once the pin lifts, the next triggering commit reclaims the log.
  pinned.reset();
  ASSERT_TRUE(CommitBatch(engine.get(), 60, 10).ok());
  EXPECT_LE(pager->wal_frame_count(), options.wal_backpressure_frames);
}

// Commits rows into `table` without the meta/"count" invariant, so
// multiple writer threads can interleave commits freely.
Status CommitRows(StorageEngine* engine, const std::string& table,
                  uint64_t start, uint64_t rows) {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                           engine->BeginWrite());
  Result<BTree> t = txn->OpenOrCreateTable(table);
  if (!t.ok()) {
    engine->Rollback(std::move(txn));
    return t.status();
  }
  for (uint64_t i = start; i < start + rows; ++i) {
    Status st = t->Put(key::U64(i), "row" + std::to_string(i));
    if (!st.ok()) {
      engine->Rollback(std::move(txn));
      return st;
    }
  }
  txn->AddRowDelta(table, static_cast<int64_t>(rows));
  return engine->Commit(std::move(txn));
}

TEST_F(PagerConcurrencyTest, GroupCommitSharesFsyncsAndStaysDurable) {
  PagerOptions options;
  options.sync_on_commit = true;
  // Keep wal_syncs attributable to commits alone.
  options.auto_checkpoint_frames = 0;
  options.wal_backpressure_frames = 0;
  auto engine = StorageEngine::Open(path_, options).value();
  ASSERT_TRUE(CommitRows(engine.get(), "g", 0, 1).ok());  // create table

  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 25;
  constexpr uint64_t kRowsPerCommit = 4;
  constexpr uint64_t kThreadStride = 1u << 20;

  // Group commit shares fsyncs whenever committers overlap; scheduling
  // decides how often they do, so retry the burst a few times and require
  // that at least one run observes strictly fewer fsyncs than commits
  // (i.e. at least one follower was covered by a leader's sync).
  bool shared = false;
  int rounds = 0;
  for (; rounds < 5 && !shared; ++rounds) {
    const IoStats::View before = engine->io_stats().Snapshot();
    std::atomic<bool> go{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> committers;
    for (int t = 0; t < kThreads; ++t) {
      committers.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        const uint64_t base =
            static_cast<uint64_t>(t + 1) * kThreadStride +
            static_cast<uint64_t>(rounds) * kCommitsPerThread * kRowsPerCommit;
        for (int c = 0; c < kCommitsPerThread; ++c) {
          if (!CommitRows(engine.get(), "g", base + c * kRowsPerCommit,
                          kRowsPerCommit)
                   .ok()) {
            ++failures;
          }
        }
      });
    }
    go.store(true);
    for (auto& th : committers) th.join();
    ASSERT_EQ(failures.load(), 0);

    const IoStats::View delta = engine->io_stats().Snapshot() - before;
    ASSERT_EQ(delta.commits,
              static_cast<uint64_t>(kThreads) * kCommitsPerThread);
    // Never more than one fsync per commit, and at least one overall.
    EXPECT_LE(delta.wal_syncs, delta.commits);
    EXPECT_GE(delta.wal_syncs, 1u);
    shared = delta.wal_syncs < delta.commits;
  }
  EXPECT_TRUE(shared)
      << "no fsync was ever shared across " << rounds << " rounds of "
      << kThreads << "-thread commit bursts";

  // Durability: freeze the files as a power cut would and recover the
  // copy — every acknowledged commit must survive.
  const uint64_t expected_rows =
      1 + static_cast<uint64_t>(rounds) * kThreads * kCommitsPerThread *
              kRowsPerCommit;
  const std::string crash = (dir_ / "crash_db").string();
  std::filesystem::copy_file(path_, crash);
  std::filesystem::copy_file(path_ + "-wal", crash + "-wal");
  auto recovered = StorageEngine::Open(crash).value();
  auto txn = recovered->BeginRead().value();
  EXPECT_EQ(txn->GetTableInfo("g").value().row_count, expected_rows);
}

// Pipelined group commit batches the *appends*, not just the fsyncs: the
// leader writes every follower's staged frames as one contiguous WAL
// write before the shared sync, so a commit burst must show strictly
// fewer frame-carrying WAL writes than commits (and never more).
TEST_F(PagerConcurrencyTest, PipelinedGroupCommitBatchesAppends) {
  PagerOptions options;
  options.sync_on_commit = true;
  // Keep wal_writes / wal_syncs attributable to commits alone.
  options.auto_checkpoint_frames = 0;
  options.wal_backpressure_frames = 0;
  ASSERT_TRUE(options.commit_pipeline);  // pipelining is the default
  auto engine = StorageEngine::Open(path_, options).value();
  ASSERT_TRUE(CommitRows(engine.get(), "g", 0, 1).ok());  // create table

  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 25;
  constexpr uint64_t kRowsPerCommit = 4;
  constexpr uint64_t kThreadStride = 1u << 20;

  // Scheduling decides how often committers overlap, so retry the burst
  // and require that at least one run observes a multi-commit batch.
  bool batched = false;
  int rounds = 0;
  for (; rounds < 5 && !batched; ++rounds) {
    const IoStats::View before = engine->io_stats().Snapshot();
    std::atomic<bool> go{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> committers;
    for (int t = 0; t < kThreads; ++t) {
      committers.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        const uint64_t base =
            static_cast<uint64_t>(t + 1) * kThreadStride +
            static_cast<uint64_t>(rounds) * kCommitsPerThread * kRowsPerCommit;
        for (int c = 0; c < kCommitsPerThread; ++c) {
          if (!CommitRows(engine.get(), "g", base + c * kRowsPerCommit,
                          kRowsPerCommit)
                   .ok()) {
            ++failures;
          }
        }
      });
    }
    go.store(true);
    for (auto& th : committers) th.join();
    ASSERT_EQ(failures.load(), 0);

    const IoStats::View delta = engine->io_stats().Snapshot() - before;
    ASSERT_EQ(delta.commits,
              static_cast<uint64_t>(kThreads) * kCommitsPerThread);
    // Staged commits never write per-commit: at most one WAL write per
    // flushed group, so never more writes than commits.
    EXPECT_LE(delta.wal_writes, delta.commits);
    EXPECT_GE(delta.wal_writes, 1u);
    batched = delta.wal_writes < delta.commits;
  }
  EXPECT_TRUE(batched)
      << "no WAL write ever carried more than one commit across " << rounds
      << " rounds of " << kThreads << "-thread bursts";

  // Durability: freeze the files as a power cut would and recover the
  // copy — batching appends must not weaken the acked-commit guarantee.
  const uint64_t expected_rows =
      1 + static_cast<uint64_t>(rounds) * kThreads * kCommitsPerThread *
              kRowsPerCommit;
  const std::string crash = (dir_ / "crash_db").string();
  std::filesystem::copy_file(path_, crash);
  std::filesystem::copy_file(path_ + "-wal", crash + "-wal");
  auto recovered = StorageEngine::Open(crash).value();
  auto txn = recovered->BeginRead().value();
  EXPECT_EQ(txn->GetTableInfo("g").value().row_count, expected_rows);
}

// One wrap-bounds run: commits kBatches batches while a rolling reader
// snapshot (refreshed *after* every commit, so one is always live) pins
// the registry, checkpointing every 4 batches. Returns the peak WAL
// footprint observed after any checkpoint.
struct WrapRunStats {
  uint64_t max_frames = 0;     // peak post-checkpoint frame count
  uintmax_t max_wal_bytes = 0; // peak post-checkpoint WAL file size
  uint32_t final_epoch = 0;
};
WrapRunStats RunRollingPinWorkload(const std::string& path,
                                   bool wal_wraparound) {
  constexpr uint64_t kBatchRows = 20;
  constexpr int kBatches = 40;
  PagerOptions options;
  options.wal_wraparound = wal_wraparound;
  options.auto_checkpoint_frames = 0;  // only the explicit checkpoints
  options.wal_backpressure_frames = 0;
  auto engine = StorageEngine::Open(path, options).value();
  Pager* pager = engine->pager();

  WrapRunStats stats;
  std::unique_ptr<ReadTransaction> pinned;
  for (int b = 0; b < kBatches; ++b) {
    EXPECT_TRUE(CommitBatch(engine.get(), b * kBatchRows, kBatchRows).ok());
    // Rolling pin: drop the old snapshot only after taking the new one,
    // so the registry is never empty and the truncating reset can never
    // fire — only wrap-around can reclaim the log.
    auto next = engine->BeginRead().value();
    pinned = std::move(next);
    EXPECT_EQ(pinned->GetTableInfo("t").value().row_count,
              (b + 1) * kBatchRows);
    // Sample the peak after the commit, before any reclamation.
    stats.max_frames = std::max(stats.max_frames, pager->wal_frame_count());
    stats.max_wal_bytes = std::max(
        stats.max_wal_bytes, std::filesystem::file_size(path + "-wal"));
    if ((b + 1) % 4 == 0) {
      EXPECT_TRUE(engine->Checkpoint().ok());
      // The snapshot pinned before the checkpoint still reads its state.
      EXPECT_EQ(pinned->GetTableInfo("t").value().row_count,
                (b + 1) * kBatchRows);
    }
  }
  stats.final_epoch = pager->wal_epoch();
  pinned.reset();
  EXPECT_TRUE(engine->Close().ok());

  // Recovery: the wrapped (or grown) log replays to the full row set.
  auto reopened = StorageEngine::Open(path).value();
  auto txn = reopened->BeginRead().value();
  EXPECT_EQ(txn->GetTableInfo("t").value().row_count, kBatches * kBatchRows);
  return stats;
}

// Acceptance property of WAL wrap-around: under a rolling pinned snapshot
// the truncating reset never fires, yet the WAL footprint stays bounded
// at O(live frames) because each full fold wraps back to slot 1. The
// wrap-off control run shows what the bound saves: its log grows with
// every batch and never shrinks.
TEST_F(PagerConcurrencyTest, WalWrapBoundsGrowthUnderRollingPinnedReader) {
  const WrapRunStats on = RunRollingPinWorkload(path_, true);
  const WrapRunStats off =
      RunRollingPinWorkload((dir_ / "db_nowrap").string(), false);

  // Wrap-on reclaimed the log repeatedly (10 checkpoints → 10 wraps).
  EXPECT_GE(on.final_epoch, 2u);
  EXPECT_EQ(off.final_epoch, 0u);

  // Bounded footprint: the wrap-on peak stays within the live-frame
  // working set (one checkpoint interval), while the wrap-off log ends up
  // holding the whole run. Require a 2x separation at minimum — the
  // actual gap is ~10x (40 batches vs one 4-batch interval).
  EXPECT_GE(off.max_frames, 2 * on.max_frames)
      << "wrap-around did not bound WAL growth (on=" << on.max_frames
      << " frames, off=" << off.max_frames << " frames)";
  EXPECT_GE(off.max_wal_bytes, 2 * on.max_wal_bytes)
      << "wrap-around did not bound WAL file size (on=" << on.max_wal_bytes
      << " bytes, off=" << off.max_wal_bytes << " bytes)";
}

// ---------------------------------------------------------------------------
// Demand-vs-demand dedup through the in-flight read registry
// ---------------------------------------------------------------------------

// Latch on one main-file page: the first ReadAt of that page blocks until
// Release() (optionally failing afterwards); every other read passes.
struct PageGate {
  std::atomic<uint64_t> offset{std::numeric_limits<uint64_t>::max()};
  std::atomic<int> target_reads{0};  // ReadAt calls on the gated page
  std::atomic<int> batch_reads{0};   // ReadBatch calls (any page)
  std::atomic<bool> fail_first{false};
  std::mutex m;
  std::condition_variable cv;
  bool open = false;

  void Release() {
    {
      std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
  }
};

class GatedFile final : public FileHandle {
 public:
  GatedFile(std::unique_ptr<FileHandle> base, std::shared_ptr<PageGate> gate)
      : base_(std::move(base)), gate_(std::move(gate)) {}

  Status ReadAt(uint64_t offset, void* buf, size_t n) override {
    if (offset == gate_->offset.load() && ++gate_->target_reads == 1) {
      std::unique_lock<std::mutex> lock(gate_->m);
      gate_->cv.wait(lock, [&] { return gate_->open; });
      if (gate_->fail_first.load()) {
        return Status::IOError("injected read fault in " + base_->path());
      }
    }
    return base_->ReadAt(offset, buf, n);
  }
  Status ReadBatch(ReadOp* ops, size_t n) override {
    ++gate_->batch_reads;
    return base_->ReadBatch(ops, n);
  }
  Status WriteAt(uint64_t offset, const void* buf, size_t n) override {
    return base_->WriteAt(offset, buf, n);
  }
  Status WriteBatch(WriteOp* ops, size_t n) override {
    return base_->WriteBatch(ops, n);
  }
  Status Append(const void* buf, size_t n) override {
    return base_->Append(buf, n);
  }
  Status Sync() override { return base_->Sync(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  uint64_t size() const override { return base_->size(); }
  const std::string& path() const override { return base_->path(); }
  void set_io_stats(IoStats* stats) override { base_->set_io_stats(stats); }

 private:
  std::unique_ptr<FileHandle> base_;
  std::shared_ptr<PageGate> gate_;
};

// Spins until `pred` holds; false after a 10 s timeout.
bool SpinUntil(const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

class DemandDedupTest : public PagerConcurrencyTest {
 protected:
  static constexpr size_t kMaxReaders = 8;

  // Opens a pager whose main file goes through the gate, commits four
  // distinct pages, folds them into the main file, drops the cache, and
  // gates the third page.
  void SetUp() override {
    PagerConcurrencyTest::SetUp();
    gate_ = std::make_shared<PageGate>();
    PagerOptions options;
    options.file_wrapper = [gate = gate_](std::unique_ptr<FileHandle> base,
                                          std::string_view role)
        -> std::unique_ptr<FileHandle> {
      if (role != "db") return base;
      return std::make_unique<GatedFile>(std::move(base), gate);
    };
    pager_ = Pager::Open(path_, options).value();
    std::vector<PageId> pages;
    auto txn = pager_->BeginWrite().value();
    for (uint32_t i = 0; i < 4; ++i) {
      const PageId pid = pager_->AllocatePage(txn.get()).value();
      pager_->GetMutablePage(txn.get(), pid).value()->WriteU32(0, 500 + i);
      pages.push_back(pid);
    }
    ASSERT_TRUE(pager_->CommitWrite(std::move(txn)).ok());
    ASSERT_TRUE(pager_->Checkpoint().ok());
    ASSERT_EQ(pager_->wal_frame_count(), 0u);  // served by the main file
    pager_->DropCaches();
    target_ = pages[2];
    gate_->offset.store(static_cast<uint64_t>(target_) * kPageSize);
    seq_ = pager_->BeginSnapshot();
  }
  void TearDown() override {
    ReleaseAndJoin();  // never leave a reader parked on a failed assert
    if (pager_ != nullptr) pager_->EndSnapshot(seq_);
    pager_.reset();
    PagerConcurrencyTest::TearDown();
  }

  // Starts a thread that demand-reads the gated page into slot `r`.
  void StartReader(size_t r) {
    readers_.emplace_back([this, r] {
      Result<PagePtr> page = pager_->ReadPage(target_, seq_);
      status_[r] = page.status();
      if (page.ok()) page_[r] = *page;
    });
  }
  // Opens the latch and joins every reader.
  void ReleaseAndJoin() {
    gate_->Release();
    for (std::thread& t : readers_) t.join();
    readers_.clear();
  }
  uint64_t ReadJoins() { return pager_->io_stats().read_joins.load(); }

  std::shared_ptr<PageGate> gate_;
  std::unique_ptr<Pager> pager_;
  PageId target_ = 0;
  uint64_t seq_ = 0;
  std::vector<std::thread> readers_;
  std::array<Status, kMaxReaders> status_;
  std::array<PagePtr, kMaxReaders> page_;
};

TEST_F(DemandDedupTest, ConcurrentMissesShareOneRead) {
  const IoStats::View before = pager_->io_stats().Snapshot();
  for (size_t r = 0; r < kMaxReaders; ++r) StartReader(r);
  // One reader leads (parked in the gated ReadAt); the other seven must
  // join its registry entry before the latch opens.
  EXPECT_TRUE(SpinUntil([&] {
    return ReadJoins() - before.read_joins >= kMaxReaders - 1;
  })) << "demand misses did not join the in-flight read";
  ReleaseAndJoin();

  const IoStats::View delta = pager_->io_stats().Snapshot() - before;
  EXPECT_EQ(delta.pages_read_main, 1u);
  EXPECT_EQ(gate_->target_reads.load(), 1);
  for (size_t r = 0; r < kMaxReaders; ++r) {
    ASSERT_TRUE(status_[r].ok()) << "reader " << r << ": "
                                 << status_[r].ToString();
    EXPECT_EQ(page_[r]->ReadU32(0), 502u);
    EXPECT_EQ(std::memcmp(page_[r]->bytes(), page_[0]->bytes(), kPageSize),
              0);
  }
}

TEST_F(DemandDedupTest, ReadAheadSkipsPageInDemandFlight) {
  StartReader(0);
  ASSERT_TRUE(SpinUntil([&] { return gate_->target_reads.load() == 1; }));
  // The demand read is parked mid-pread: read-ahead of the same page must
  // neither wait for it nor issue a second read.
  const IoStats::View before = pager_->io_stats().Snapshot();
  const std::vector<PageId> ids = {target_};
  EXPECT_EQ(pager_->PrefetchPages(ids, seq_), nullptr);
  const IoStats::View delta = pager_->io_stats().Snapshot() - before;
  EXPECT_EQ(delta.batch_reads, 0u);
  EXPECT_EQ(delta.pages_read_main, 0u);
  EXPECT_EQ(gate_->batch_reads.load(), 0);
  EXPECT_EQ(gate_->target_reads.load(), 1);
  ReleaseAndJoin();
  EXPECT_TRUE(status_[0].ok()) << status_[0].ToString();
}

TEST_F(DemandDedupTest, FailedLeaderHandsOffToWaiter) {
  gate_->fail_first.store(true);
  const IoStats::View before = pager_->io_stats().Snapshot();
  StartReader(0);  // the leader: parks in the gated read, then fails
  ASSERT_TRUE(SpinUntil([&] { return gate_->target_reads.load() == 1; }));
  StartReader(1);  // the waiter
  ASSERT_TRUE(SpinUntil([&] { return ReadJoins() > before.read_joins; }));
  ReleaseAndJoin();

  // The leader's caller sees its own failure; the woken waiter misses the
  // cache, becomes the next leader, and reads the page itself.
  EXPECT_TRUE(status_[0].IsIOError()) << status_[0].ToString();
  ASSERT_TRUE(status_[1].ok()) << status_[1].ToString();
  EXPECT_EQ(page_[1]->ReadU32(0), 502u);
  EXPECT_EQ(gate_->target_reads.load(), 2);
  EXPECT_EQ((pager_->io_stats().Snapshot() - before).pages_read_main, 1u);
}

}  // namespace
}  // namespace micronn
