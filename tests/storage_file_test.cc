// Tests for the low-level storage pieces: File, PageCache, Wal, Pager,
// key encoding.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/rng.h"
#include "storage/file.h"
#include "storage/key_encoding.h"
#include "storage/page_cache.h"
#include "storage/pager.h"
#include "storage/wal.h"

namespace micronn {
namespace {

constexpr Wal::AppendMode kWrite = Wal::AppendMode::kWrite;

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const { return dir_ / name; }
  std::filesystem::path dir_;
};

using FileTest = TempDir;

TEST_F(FileTest, WriteReadRoundTrip) {
  auto file = File::Open(Path("f")).value();
  ASSERT_TRUE(file->WriteAt(0, "hello", 5).ok());
  ASSERT_TRUE(file->WriteAt(100, "world", 5).ok());
  char buf[5];
  ASSERT_TRUE(file->ReadAt(100, buf, 5).ok());
  EXPECT_EQ(std::string(buf, 5), "world");
  EXPECT_EQ(file->size(), 105u);
}

TEST_F(FileTest, AppendGrowsFile) {
  auto file = File::Open(Path("f")).value();
  ASSERT_TRUE(file->Append("abc", 3).ok());
  ASSERT_TRUE(file->Append("def", 3).ok());
  char buf[6];
  ASSERT_TRUE(file->ReadAt(0, buf, 6).ok());
  EXPECT_EQ(std::string(buf, 6), "abcdef");
}

TEST_F(FileTest, ShortReadFails) {
  auto file = File::Open(Path("f")).value();
  ASSERT_TRUE(file->WriteAt(0, "abc", 3).ok());
  char buf[10];
  EXPECT_FALSE(file->ReadAt(0, buf, 10).ok());
}

TEST_F(FileTest, TruncateShrinks) {
  auto file = File::Open(Path("f")).value();
  ASSERT_TRUE(file->WriteAt(0, "abcdef", 6).ok());
  ASSERT_TRUE(file->Truncate(3).ok());
  EXPECT_EQ(file->size(), 3u);
  char buf[3];
  ASSERT_TRUE(file->ReadAt(0, buf, 3).ok());
}

TEST_F(FileTest, SizeSurvivesReopen) {
  {
    auto file = File::Open(Path("f")).value();
    ASSERT_TRUE(file->WriteAt(0, "abcdef", 6).ok());
  }
  auto file = File::Open(Path("f")).value();
  EXPECT_EQ(file->size(), 6u);
}

TEST(KeyEncodingTest, U32Order) {
  EXPECT_LT(key::U32(1), key::U32(2));
  EXPECT_LT(key::U32(255), key::U32(256));
  EXPECT_LT(key::U32(0), key::U32(0xffffffff));
}

TEST(KeyEncodingTest, U64RoundTrip) {
  for (uint64_t v : {0ull, 1ull, 0x123456789abcdefull, ~0ull}) {
    std::string s = key::U64(v);
    std::string_view sv = s;
    uint64_t out;
    ASSERT_TRUE(key::ConsumeU64(&sv, &out));
    EXPECT_EQ(out, v);
    EXPECT_TRUE(sv.empty());
  }
}

TEST(KeyEncodingTest, I64Order) {
  auto enc = [](int64_t v) {
    std::string s;
    key::AppendI64(&s, v);
    return s;
  };
  EXPECT_LT(enc(-5), enc(-1));
  EXPECT_LT(enc(-1), enc(0));
  EXPECT_LT(enc(0), enc(1));
  EXPECT_LT(enc(1), enc(INT64_MAX));
  EXPECT_LT(enc(INT64_MIN), enc(-1000000));
}

TEST(KeyEncodingTest, I64RoundTrip) {
  for (int64_t v : {INT64_MIN, int64_t{-7}, int64_t{0}, int64_t{42},
                    INT64_MAX}) {
    std::string s;
    key::AppendI64(&s, v);
    std::string_view sv = s;
    int64_t out;
    ASSERT_TRUE(key::ConsumeI64(&sv, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(KeyEncodingTest, F64Order) {
  auto enc = [](double v) {
    std::string s;
    key::AppendF64(&s, v);
    return s;
  };
  EXPECT_LT(enc(-1e30), enc(-1.0));
  EXPECT_LT(enc(-1.0), enc(-0.5));
  EXPECT_LT(enc(-0.5), enc(0.0));
  EXPECT_LT(enc(0.0), enc(0.5));
  EXPECT_LT(enc(0.5), enc(1e30));
}

TEST(KeyEncodingTest, F64RoundTrip) {
  for (double v : {-1e300, -1.5, 0.0, 2.25, 1e300}) {
    std::string s;
    key::AppendF64(&s, v);
    std::string_view sv = s;
    double out;
    ASSERT_TRUE(key::ConsumeF64(&sv, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(KeyEncodingTest, StringEscapingAndOrder) {
  EXPECT_LT(key::Str("a"), key::Str("b"));
  EXPECT_LT(key::Str("a"), key::Str("aa"));
  EXPECT_LT(key::Str(""), key::Str("a"));
  // Embedded NULs preserve order and round-trip.
  const std::string with_nul = std::string("a\0b", 3);
  EXPECT_LT(key::Str("a"), key::Str(with_nul));
  std::string encoded = key::Str(with_nul);
  std::string_view sv = encoded;
  std::string out;
  ASSERT_TRUE(key::ConsumeString(&sv, &out));
  EXPECT_EQ(out, with_nul);
  EXPECT_TRUE(sv.empty());
}

TEST(KeyEncodingTest, TupleOrderMatchesComponentOrder) {
  auto enc = [](uint32_t part, uint64_t vid) {
    std::string s;
    key::AppendU32(&s, part);
    key::AppendU64(&s, vid);
    return s;
  };
  EXPECT_LT(enc(1, 999), enc(2, 0));
  EXPECT_LT(enc(1, 5), enc(1, 6));
}

TEST(PageCacheTest, HitAndMiss) {
  PageCache cache(10 * (kPageSize + 64));
  EXPECT_EQ(cache.Get(3, 0), nullptr);
  auto page = std::make_shared<Page>();
  page->WriteU32(0, 42);
  cache.Put(3, 0, page);
  auto hit = cache.Get(3, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->ReadU32(0), 42u);
  EXPECT_EQ(cache.Get(3, 1), nullptr);  // different version
}

TEST(PageCacheTest, EvictsLruUnderBudget) {
  PageCache cache(3 * (kPageSize + 64));
  for (PageId p = 1; p <= 5; ++p) {
    cache.Put(p, 0, std::make_shared<Page>());
  }
  EXPECT_EQ(cache.entry_count(), 3u);
  EXPECT_EQ(cache.Get(1, 0), nullptr);  // oldest evicted
  EXPECT_NE(cache.Get(5, 0), nullptr);
}

TEST(PageCacheTest, GetRefreshesRecency) {
  PageCache cache(2 * (kPageSize + 64));
  cache.Put(1, 0, std::make_shared<Page>());
  cache.Put(2, 0, std::make_shared<Page>());
  cache.Get(1, 0);                             // 1 is now MRU
  cache.Put(3, 0, std::make_shared<Page>());   // evicts 2
  EXPECT_NE(cache.Get(1, 0), nullptr);
  EXPECT_EQ(cache.Get(2, 0), nullptr);
}

TEST(PageCacheTest, ZeroBudgetPassesThrough) {
  PageCache cache(0);
  auto page = std::make_shared<Page>();
  EXPECT_NE(cache.Put(1, 0, page), nullptr);
  EXPECT_EQ(cache.Get(1, 0), nullptr);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(PageCacheTest, ShrinkingBudgetBelowShardGranularityKeepsCacheAlive) {
  // A production-sized budget picks multiple shards; shrinking the budget
  // to a few pages afterwards must leave a small working cache (each shard
  // floors at one page), not evict every insert immediately.
  PageCache cache(8ull << 20);
  ASSERT_GT(cache.shard_count(), 1u);
  cache.set_budget_bytes(3 * PageCache::kEntryBytes);
  for (PageId p = 1; p <= 3; ++p) {
    cache.Put(p, 0, std::make_shared<Page>());
  }
  EXPECT_NE(cache.Get(3, 0), nullptr);  // the newest insert always survives
  EXPECT_GE(cache.entry_count(), 1u);
  EXPECT_LE(cache.entry_count(), cache.shard_count());
}

TEST(PageCacheTest, ShardOverridePinsTheCount) {
  // Auto-pick scales with the budget...
  EXPECT_EQ(PageCache(3 * PageCache::kEntryBytes).shard_count(), 1u);
  EXPECT_GT(PageCache(64ull << 20).shard_count(), 1u);
  // ...while an explicit override pins it: rounded down to a power of
  // two, clamped to kMaxShards, independent of the budget.
  EXPECT_EQ(PageCache(64ull << 20, 1).shard_count(), 1u);
  EXPECT_EQ(PageCache(3 * PageCache::kEntryBytes, 8).shard_count(), 8u);
  EXPECT_EQ(PageCache(8ull << 20, 7).shard_count(), 4u);
  EXPECT_EQ(PageCache(8ull << 20, 1000).shard_count(),
            PageCache::kMaxShards);
}

TEST(PageCacheTest, HitMissCountersFeedIoStats) {
  IoStats stats;
  PageCache cache(64 * PageCache::kEntryBytes, 4);
  cache.set_io_stats(&stats);
  for (PageId p = 1; p <= 16; ++p) {
    cache.Put(p, 0, std::make_shared<Page>());
  }
  for (PageId p = 1; p <= 16; ++p) {
    EXPECT_NE(cache.Get(p, 0), nullptr);
  }
  for (PageId p = 100; p < 108; ++p) {
    EXPECT_EQ(cache.Get(p, 0), nullptr);
  }
  const IoStats::View v = stats.Snapshot();
  EXPECT_EQ(v.pages_cache_hit, 16u);
  EXPECT_EQ(v.CacheMisses(), 8u);
  EXPECT_EQ(v.cache_evictions, 0u);
}

TEST(PageCacheTest, SequentialPagesSpreadAcrossShards) {
  // One page per shard: if the hash sent 16 sequential page ids to a
  // single shard, only the newest would survive.
  IoStats stats;
  PageCache cache(4 * PageCache::kEntryBytes, 4);
  cache.set_io_stats(&stats);
  for (PageId p = 1; p <= 16; ++p) {
    cache.Put(p, 0, std::make_shared<Page>());
  }
  EXPECT_GT(cache.entry_count(), 1u);
  EXPECT_EQ(stats.Snapshot().cache_evictions, 16u - cache.entry_count());
}

TEST(PageCacheTest, DropVersionedKeepsMainFilePages) {
  PageCache cache(10 * (kPageSize + 64));
  cache.Put(1, 0, std::make_shared<Page>());
  cache.Put(1, 7, std::make_shared<Page>());
  cache.Put(2, 3, std::make_shared<Page>());
  cache.DropVersioned();
  EXPECT_NE(cache.Get(1, 0), nullptr);
  EXPECT_EQ(cache.Get(1, 7), nullptr);
  EXPECT_EQ(cache.Get(2, 3), nullptr);
}

using WalTest = TempDir;

TEST_F(WalTest, AppendAndLookup) {
  IoStats stats;
  auto wal = Wal::Open(Path("wal"), &stats).value();
  Page p1, p2;
  p1.Zero();
  p2.Zero();
  p1.WriteU32(0, 111);
  p2.WriteU32(0, 222);
  ASSERT_TRUE(wal->AppendCommit({{5, &p1}, {9, &p2}}, 1, kWrite).ok());
  EXPECT_EQ(wal->frame_count(), 2u);
  EXPECT_EQ(wal->last_committed_seq(), 1u);
  ASSERT_TRUE(wal->FindFrame(5, 1).has_value());
  EXPECT_FALSE(wal->FindFrame(5, 0).has_value());  // before the commit
  Page out;
  ASSERT_TRUE(wal->ReadFrame(*wal->FindFrame(9, 1), &out).ok());
  EXPECT_EQ(out.ReadU32(0), 222u);
}

TEST_F(WalTest, SnapshotSeesOnlyItsVersion) {
  IoStats stats;
  auto wal = Wal::Open(Path("wal"), &stats).value();
  Page v1, v2;
  v1.Zero();
  v2.Zero();
  v1.WriteU32(0, 1);
  v2.WriteU32(0, 2);
  ASSERT_TRUE(wal->AppendCommit({{5, &v1}}, 1, kWrite).ok());
  ASSERT_TRUE(wal->AppendCommit({{5, &v2}}, 2, kWrite).ok());
  Page out;
  ASSERT_TRUE(wal->ReadFrame(*wal->FindFrame(5, 1), &out).ok());
  EXPECT_EQ(out.ReadU32(0), 1u);
  ASSERT_TRUE(wal->ReadFrame(*wal->FindFrame(5, 2), &out).ok());
  EXPECT_EQ(out.ReadU32(0), 2u);
}

TEST_F(WalTest, RecoverySurvivesReopen) {
  IoStats stats;
  {
    auto wal = Wal::Open(Path("wal"), &stats).value();
    Page p;
    p.Zero();
    p.WriteU32(0, 7);
    ASSERT_TRUE(wal->AppendCommit({{3, &p}}, 1, kWrite).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto wal = Wal::Open(Path("wal"), &stats).value();
  EXPECT_EQ(wal->frame_count(), 1u);
  EXPECT_EQ(wal->last_committed_seq(), 1u);
  Page out;
  ASSERT_TRUE(wal->ReadFrame(*wal->FindFrame(3, 1), &out).ok());
  EXPECT_EQ(out.ReadU32(0), 7u);
}

TEST_F(WalTest, TornTailDiscarded) {
  IoStats stats;
  {
    auto wal = Wal::Open(Path("wal"), &stats).value();
    Page p;
    p.Zero();
    ASSERT_TRUE(wal->AppendCommit({{3, &p}}, 1, kWrite).ok());
    ASSERT_TRUE(wal->AppendCommit({{4, &p}, {5, &p}}, 2, kWrite).ok());
  }
  // Corrupt the tail: truncate into the middle of the last commit.
  {
    auto file = File::Open(Path("wal")).value();
    ASSERT_TRUE(file->Truncate(file->size() - Wal::kFrameSize - 10).ok());
  }
  auto wal = Wal::Open(Path("wal"), &stats).value();
  EXPECT_EQ(wal->last_committed_seq(), 1u);
  EXPECT_EQ(wal->frame_count(), 1u);
  EXPECT_FALSE(wal->FindFrame(4, 2).has_value());
}

TEST_F(WalTest, CorruptChecksumStopsRecovery) {
  IoStats stats;
  {
    auto wal = Wal::Open(Path("wal"), &stats).value();
    Page p;
    p.Zero();
    ASSERT_TRUE(wal->AppendCommit({{3, &p}}, 1, kWrite).ok());
    ASSERT_TRUE(wal->AppendCommit({{4, &p}}, 2, kWrite).ok());
  }
  {
    auto file = File::Open(Path("wal")).value();
    // Flip a byte inside the second frame's page image.
    const uint64_t off =
        Wal::kHeaderSize + Wal::kFrameSize + Wal::kFrameHeaderSize + 100;
    char b = 'x';
    ASSERT_TRUE(file->WriteAt(off, &b, 1).ok());
  }
  auto wal = Wal::Open(Path("wal"), &stats).value();
  EXPECT_EQ(wal->last_committed_seq(), 1u);
}

using PagerTest = TempDir;

TEST_F(PagerTest, FreshDatabaseInitializes) {
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  EXPECT_EQ(pager->page_count(), 1u);
  const uint64_t seq = pager->BeginSnapshot();
  auto header = pager->ReadPage(0, seq).value();
  EXPECT_EQ(header->ReadU64(DbHeader::kOffMagic), DbHeader::kMagic);
  pager->EndSnapshot(seq);
}

TEST_F(PagerTest, WriteCommitReadBack) {
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  auto txn = pager->BeginWrite().value();
  const PageId pid = pager->AllocatePage(txn.get()).value();
  Page* p = pager->GetMutablePage(txn.get(), pid).value();
  p->WriteU32(100, 0xabcd);
  ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  const uint64_t seq = pager->BeginSnapshot();
  auto rp = pager->ReadPage(pid, seq).value();
  EXPECT_EQ(rp->ReadU32(100), 0xabcdu);
  pager->EndSnapshot(seq);
}

TEST_F(PagerTest, SnapshotIsolation) {
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  PageId pid;
  {
    auto txn = pager->BeginWrite().value();
    pid = pager->AllocatePage(txn.get()).value();
    pager->GetMutablePage(txn.get(), pid).value()->WriteU32(0, 1);
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  const uint64_t old_snap = pager->BeginSnapshot();
  {
    auto txn = pager->BeginWrite().value();
    pager->GetMutablePage(txn.get(), pid).value()->WriteU32(0, 2);
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  // The old snapshot still sees version 1; a fresh snapshot sees 2.
  EXPECT_EQ(pager->ReadPage(pid, old_snap).value()->ReadU32(0), 1u);
  const uint64_t new_snap = pager->BeginSnapshot();
  EXPECT_EQ(pager->ReadPage(pid, new_snap).value()->ReadU32(0), 2u);
  pager->EndSnapshot(old_snap);
  pager->EndSnapshot(new_snap);
}

TEST_F(PagerTest, RollbackDiscardsChanges) {
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  PageId pid;
  {
    auto txn = pager->BeginWrite().value();
    pid = pager->AllocatePage(txn.get()).value();
    pager->GetMutablePage(txn.get(), pid).value()->WriteU32(0, 1);
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  {
    auto txn = pager->BeginWrite().value();
    pager->GetMutablePage(txn.get(), pid).value()->WriteU32(0, 99);
    txn.reset();  // dropping the state rolls back
  }
  const uint64_t seq = pager->BeginSnapshot();
  EXPECT_EQ(pager->ReadPage(pid, seq).value()->ReadU32(0), 1u);
  pager->EndSnapshot(seq);
}

TEST_F(PagerTest, TryBeginWriteReportsBusy) {
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  auto txn = pager->BeginWrite().value();
  auto second = pager->TryBeginWrite();
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsBusy());
  txn.reset();
  EXPECT_TRUE(pager->TryBeginWrite().ok());
}

TEST_F(PagerTest, DroppedWriteStateFreesSlot) {
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  {
    auto txn = pager->BeginWrite().value();
    pager->AllocatePage(txn.get()).value();
  }  // neither committed nor rolled back explicitly
  EXPECT_TRUE(pager->TryBeginWrite().ok());
}

TEST_F(PagerTest, FreelistReusesPages) {
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  PageId first;
  {
    auto txn = pager->BeginWrite().value();
    first = pager->AllocatePage(txn.get()).value();
    ASSERT_TRUE(pager->FreePage(txn.get(), first).ok());
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  {
    auto txn = pager->BeginWrite().value();
    const PageId reused = pager->AllocatePage(txn.get()).value();
    EXPECT_EQ(reused, first);
  }
}

TEST_F(PagerTest, PersistsAcrossReopenWithoutCheckpoint) {
  PageId pid;
  {
    auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
    auto txn = pager->BeginWrite().value();
    pid = pager->AllocatePage(txn.get()).value();
    pager->GetMutablePage(txn.get(), pid).value()->WriteU32(8, 1234);
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
    // Simulate crash: drop the pager without Close() (no checkpoint). The
    // destructor checkpoints best-effort, so instead reopen the WAL file
    // path directly below.
    auto seq = pager->BeginSnapshot();  // hold a reader to block checkpoint
    ASSERT_TRUE(pager->Close().ok());
    pager->EndSnapshot(seq);
  }
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  const uint64_t seq = pager->BeginSnapshot();
  EXPECT_EQ(pager->ReadPage(pid, seq).value()->ReadU32(8), 1234u);
  pager->EndSnapshot(seq);
}

TEST_F(PagerTest, CheckpointFoldsWalIntoMainFile) {
  PageId pid;
  {
    auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
    auto txn = pager->BeginWrite().value();
    pid = pager->AllocatePage(txn.get()).value();
    pager->GetMutablePage(txn.get(), pid).value()->WriteU32(8, 77);
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
    ASSERT_TRUE(pager->Checkpoint().ok());
    ASSERT_TRUE(pager->Close().ok());
  }
  // After a full checkpoint the WAL holds no frames — only its file
  // header (with the backfill watermark reset to zero) remains.
  auto wal_file = File::Open(Path("db") + "-wal").value();
  EXPECT_EQ(wal_file->size(), Wal::kHeaderSize);
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  const uint64_t seq = pager->BeginSnapshot();
  EXPECT_EQ(pager->ReadPage(pid, seq).value()->ReadU32(8), 77u);
  pager->EndSnapshot(seq);
}

TEST_F(PagerTest, CheckpointBackfillsUnderActiveReader) {
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  PageId pid;
  {
    auto txn = pager->BeginWrite().value();
    pid = pager->AllocatePage(txn.get()).value();
    pager->GetMutablePage(txn.get(), pid).value()->WriteU32(8, 1);
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  // A reader pinned *below* a second commit: a live reader no longer
  // makes the checkpoint Busy — frames at-or-below its snapshot are
  // folded and the watermark advances — but the frames above it stay
  // unfolded, so the log can be neither reset nor wrapped.
  const uint64_t seq = pager->BeginSnapshot();
  const uint64_t frames = pager->wal_frame_count();
  ASSERT_GT(frames, 0u);
  {
    auto txn = pager->BeginWrite().value();
    pager->GetMutablePage(txn.get(), pid).value()->WriteU32(8, 2);
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  const uint64_t total = pager->wal_frame_count();
  ASSERT_GT(total, frames);
  EXPECT_TRUE(pager->Checkpoint().ok());
  EXPECT_EQ(pager->wal_backfill_watermark(), frames);
  EXPECT_EQ(pager->wal_frame_count(), total);  // folded, not reset
  EXPECT_EQ(pager->wal_epoch(), 0u);
  EXPECT_EQ(pager->ReadPage(pid, seq).value()->ReadU32(8), 1u);
  // Roll the pin up to the head: the next fold covers every frame while a
  // reader is still registered, so the log wraps instead of resetting.
  const uint64_t head = pager->BeginSnapshot();
  pager->EndSnapshot(seq);
  EXPECT_TRUE(pager->Checkpoint().ok());
  EXPECT_EQ(pager->wal_epoch(), 1u);
  EXPECT_EQ(pager->wal_frame_count(), 0u);
  EXPECT_EQ(pager->wal_backfill_watermark(), 0u);
  EXPECT_EQ(pager->ReadPage(pid, head).value()->ReadU32(8), 2u);
  pager->EndSnapshot(head);
}

TEST_F(PagerTest, CheckpointWrapsUnderActiveReader) {
  // Wrap-around on (the default): once the fold is complete, a live
  // reader no longer pins the log — a new frame generation begins at
  // slot 1 and the reader keeps reading through the folded main file.
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  PageId pid;
  {
    auto txn = pager->BeginWrite().value();
    pid = pager->AllocatePage(txn.get()).value();
    pager->GetMutablePage(txn.get(), pid).value()->WriteU32(8, 4242);
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  const uint64_t seq = pager->BeginSnapshot();
  ASSERT_GT(pager->wal_frame_count(), 0u);
  EXPECT_TRUE(pager->Checkpoint().ok());
  EXPECT_EQ(pager->wal_frame_count(), 0u);
  EXPECT_EQ(pager->wal_backfill_watermark(), 0u);
  EXPECT_EQ(pager->wal_epoch(), 1u);
  EXPECT_EQ(pager->ReadPage(pid, seq).value()->ReadU32(8), 4242u);
  pager->EndSnapshot(seq);
  // Commits after the wrap reuse the reclaimed slots (same file region).
  {
    auto txn = pager->BeginWrite().value();
    pager->GetMutablePage(txn.get(), pid).value()->WriteU32(8, 4343);
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  const uint64_t seq2 = pager->BeginSnapshot();
  EXPECT_EQ(pager->ReadPage(pid, seq2).value()->ReadU32(8), 4343u);
  pager->EndSnapshot(seq2);
}

TEST_F(PagerTest, ColdStartAfterDropCachesStillReads) {
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  PageId pid;
  {
    auto txn = pager->BeginWrite().value();
    pid = pager->AllocatePage(txn.get()).value();
    pager->GetMutablePage(txn.get(), pid).value()->WriteU32(0, 5);
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  pager->DropCaches();
  const uint64_t seq = pager->BeginSnapshot();
  EXPECT_EQ(pager->ReadPage(pid, seq).value()->ReadU32(0), 5u);
  pager->EndSnapshot(seq);
}

}  // namespace
}  // namespace micronn
