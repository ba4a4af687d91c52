// End-to-end page integrity: checksummed page format v4, corruption
// detection on every read path, Scrub (verify / backfill / repair from
// WAL / format upgrade), the legacy v3 lazy-upgrade path, the transient
// vs permanent I/O error taxonomy, and the demand-read join of in-flight
// async prefetches. Complements storage_file_test (file-layer units) and
// corruption_sweep_test (randomized DB-level sweep).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "storage/engine.h"
#include "storage/key_encoding.h"
#include "support/fault_injection_file.h"

namespace micronn {
namespace {

class StorageIntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_integrity_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = dir_ / "db";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Commits `rows` rows into table "t" (keys U64(start..start+rows)).
  static Status CommitRows(StorageEngine* engine, uint64_t start,
                           uint64_t rows) {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                             engine->BeginWrite());
    Result<BTree> t = txn->OpenOrCreateTable("t");
    if (!t.ok()) {
      engine->Rollback(std::move(txn));
      return t.status();
    }
    for (uint64_t i = start; i < start + rows; ++i) {
      Status st = t->Put(key::U64(i), "row-" + std::to_string(i) +
                                          std::string(100, 'x'));
      if (!st.ok()) {
        engine->Rollback(std::move(txn));
        return st;
      }
    }
    txn->AddRowDelta("t", static_cast<int64_t>(rows));
    return engine->Commit(std::move(txn));
  }

  // Full scan of "t"; returns rows seen or the error.
  static Result<uint64_t> ScanAll(StorageEngine* engine) {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> txn,
                             engine->BeginRead());
    MICRONN_ASSIGN_OR_RETURN(BTree t, txn->OpenTable("t"));
    BTreeCursor c = t.NewCursor();
    MICRONN_RETURN_IF_ERROR(c.SeekToFirst());
    uint64_t n = 0;
    while (c.Valid()) {
      MICRONN_ASSIGN_OR_RETURN(std::string v, c.value());
      if (v.find("row-") != 0) {
        return Status::Corruption("unexpected row payload");
      }
      ++n;
      MICRONN_RETURN_IF_ERROR(c.Next());
    }
    return n;
  }

  // Flips one byte of the file at `path` (offset from the file start).
  static void FlipByte(const std::string& path, uint64_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
    ASSERT_TRUE(f.good());
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(StorageIntegrityTest, FreshDbIsFormatV4WithChecksums) {
  auto engine = StorageEngine::Open(path_).value();
  ASSERT_TRUE(CommitRows(engine.get(), 0, 200).ok());
  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_GE(engine->pager()->format_version(), 4u);
  // The checkpoint fold wrote a checksum slot for every folded page.
  EXPECT_GT(engine->pager()->checksum_slot_count(), 1u);
  EXPECT_EQ(ScanAll(engine.get()).value(), 200u);
  ASSERT_TRUE(engine->Close().ok());

  // Reopen: verification on, every read checks out.
  engine = StorageEngine::Open(path_).value();
  EXPECT_EQ(ScanAll(engine.get()).value(), 200u);
  EXPECT_EQ(engine->io_stats().Snapshot().corruptions_detected, 0u);
}

TEST_F(StorageIntegrityTest, OnDiskBitFlipSurfacesAsCorruption) {
  {
    auto engine = StorageEngine::Open(path_).value();
    ASSERT_TRUE(CommitRows(engine.get(), 0, 500).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  // Flip one byte in the middle of a data page (not page 0).
  const uint64_t file_size = std::filesystem::file_size(path_);
  ASSERT_GT(file_size, 3 * kPageSize);
  FlipByte(path_, 2 * kPageSize + 1234);

  auto engine = StorageEngine::Open(path_).value();
  Result<uint64_t> scan = ScanAll(engine.get());
  // The flipped page is on the scan's path: the read must fail with
  // Corruption — never serve the flipped image as row content.
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
  EXPECT_GE(engine->io_stats().Snapshot().corruptions_detected, 1u);
}

TEST_F(StorageIntegrityTest, ScrubRepairsCorruptPageFromWal) {
  auto engine = StorageEngine::Open(path_).value();
  ASSERT_TRUE(CommitRows(engine.get(), 0, 500).ok());
  // The repair window: frames folded into the main file by a *partial*
  // checkpoint stay physically in the WAL (and indexed) because newer
  // frames above the reader horizon keep the log from resetting. Pin the
  // horizon between two commits — the second touches only another table,
  // so table t's pages fold below the watermark and stay repairable.
  Pager* pager = engine->pager();
  const uint64_t snap = pager->BeginSnapshot();
  {
    auto txn = engine->BeginWrite().value();
    BTree t2 = txn->OpenOrCreateTable("t2").value();
    ASSERT_TRUE(t2.Put(key::U64(1), "other-table").ok());
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
  }
  ASSERT_TRUE(engine->Checkpoint().ok());
  ASSERT_GT(pager->wal_frame_count(), 0u);
  ASSERT_GT(pager->wal_backfill_watermark(), 0u);

  // Corrupt a folded page in the main file behind the pager's back, then
  // drop the cache so the next read goes to disk.
  FlipByte(path_, 2 * kPageSize + 99);
  engine->DropCaches();

  ScrubReport report;
  ASSERT_TRUE(pager->Scrub(&report).ok());
  pager->EndSnapshot(snap);
  EXPECT_GE(report.corruptions_found, 1u);
  EXPECT_GE(report.pages_repaired, 1u);
  EXPECT_TRUE(report.unrepairable.empty());

  // Repaired: the full scan succeeds again.
  engine->DropCaches();
  EXPECT_EQ(ScanAll(engine.get()).value(), 500u);
}

TEST_F(StorageIntegrityTest, ScrubReportsUnrepairablePages) {
  {
    auto engine = StorageEngine::Open(path_).value();
    ASSERT_TRUE(CommitRows(engine.get(), 0, 500).ok());
    ASSERT_TRUE(engine->Close().ok());  // full fold + WAL reset
  }
  FlipByte(path_, 3 * kPageSize + 7);

  auto engine = StorageEngine::Open(path_).value();
  ScrubReport report;
  ASSERT_TRUE(engine->pager()->Scrub(&report).ok());
  EXPECT_GE(report.corruptions_found, 1u);
  EXPECT_EQ(report.pages_repaired, 0u);  // no WAL frame holds the content
  ASSERT_FALSE(report.unrepairable.empty());
  EXPECT_EQ(report.unrepairable[0], PageId{3});
  // Not masked: reading the lost page still fails loudly.
  Result<uint64_t> scan = ScanAll(engine.get());
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsCorruption());
}

TEST_F(StorageIntegrityTest, LegacyV3DatabaseLazilyUpgrades) {
  {
    auto engine = StorageEngine::Open(path_).value();
    ASSERT_TRUE(CommitRows(engine.get(), 0, 300).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  // Rewind the on-disk header to format v3 and drop the sidecar — the
  // state a database written by a pre-checksum build is in.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(DbHeader::kOffVersion);
    const char v3[4] = {3, 0, 0, 0};
    f.write(v3, 4);
    ASSERT_TRUE(f.good());
  }
  std::filesystem::remove(path_ + "-sum");

  // Legacy DBs open normally and keep serving; verification is lenient
  // (absent slots tolerated) until a scrub proves full coverage.
  auto engine = StorageEngine::Open(path_).value();
  Pager* pager = engine->pager();
  EXPECT_EQ(pager->format_version(), 3u);
  EXPECT_EQ(ScanAll(engine.get()).value(), 300u);

  // Writes accumulate slots lazily through checkpoint folds.
  ASSERT_TRUE(CommitRows(engine.get(), 300, 100).ok());
  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_GT(pager->checksum_slot_count(), 0u);

  // Scrub backfills the rest and flips the header to v4.
  ScrubReport report;
  ASSERT_TRUE(pager->Scrub(&report).ok());
  EXPECT_EQ(report.corruptions_found, 0u);
  EXPECT_TRUE(report.upgraded_format);
  EXPECT_GE(pager->format_version(), 4u);
  EXPECT_EQ(ScanAll(engine.get()).value(), 400u);
  ASSERT_TRUE(engine->Close().ok());

  // The upgrade is persistent, and verification is strict from here on.
  engine = StorageEngine::Open(path_).value();
  EXPECT_GE(engine->pager()->format_version(), 4u);
  EXPECT_EQ(ScanAll(engine.get()).value(), 400u);
}

TEST_F(StorageIntegrityTest, DeletedSidecarOfV4DbDegradesToLenient) {
  {
    auto engine = StorageEngine::Open(path_).value();
    ASSERT_TRUE(CommitRows(engine.get(), 0, 200).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  std::filesystem::remove(path_ + "-sum");
  // A v4 header with no sidecar must not reject every page — strictness
  // demotes with a warning, data keeps serving, and a scrub restores it.
  auto engine = StorageEngine::Open(path_).value();
  EXPECT_EQ(ScanAll(engine.get()).value(), 200u);
  ScrubReport report;
  ASSERT_TRUE(engine->pager()->Scrub(&report).ok());
  EXPECT_GT(report.slots_backfilled, 0u);
  EXPECT_EQ(ScanAll(engine.get()).value(), 200u);
}

TEST_F(StorageIntegrityTest, TransientReadFaultsAreRetried) {
  {
    auto engine = StorageEngine::Open(path_).value();
    ASSERT_TRUE(CommitRows(engine.get(), 0, 100).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  // The first read of the reopen (the header) fails twice with
  // Unavailable, then succeeds: the retry layer must absorb it within
  // its budget (default 3) and count the absorbed attempts.
  PagerOptions options;
  options.file_wrapper = [](std::unique_ptr<FileHandle> base,
                            std::string_view role) {
    if (role != "db") return base;
    FaultSchedule s;
    s.transient_read_at = 1;
    s.transient_read_failures = 2;
    return std::unique_ptr<FileHandle>(
        new FaultInjectionFile(std::move(base), s));
  };
  auto engine = StorageEngine::Open(path_, options).value();
  EXPECT_EQ(ScanAll(engine.get()).value(), 100u);
  EXPECT_GE(engine->io_stats().Snapshot().io_retries, 2u);
}

TEST_F(StorageIntegrityTest, StickyEioIsNotRetried) {
  {
    auto engine = StorageEngine::Open(path_).value();
    ASSERT_TRUE(CommitRows(engine.get(), 0, 100).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  // Dying media: every read returns EIO. Permanent per the taxonomy —
  // the open must fail fast (no retry storm) with an I/O error.
  PagerOptions options;
  options.file_wrapper = [](std::unique_ptr<FileHandle> base,
                            std::string_view role) {
    if (role != "db") return base;
    FaultSchedule s;
    s.sticky_eio_read_at = 1;
    return std::unique_ptr<FileHandle>(
        new FaultInjectionFile(std::move(base), s));
  };
  Result<std::unique_ptr<StorageEngine>> engine =
      StorageEngine::Open(path_, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsIOError()) << engine.status().ToString();
}

TEST_F(StorageIntegrityTest, InjectedReadCorruptionIsCaught) {
  {
    auto engine = StorageEngine::Open(path_).value();
    ASSERT_TRUE(CommitRows(engine.get(), 0, 500).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  // Bit-flip in flight (between platter and page cache) on a later read:
  // the checksum must catch what the disk's own ECC did not.
  PagerOptions options;
  options.cache_bytes = 0;  // every read hits the file
  options.file_wrapper = [](std::unique_ptr<FileHandle> base,
                            std::string_view role) {
    if (role != "db") return base;
    FaultSchedule s;
    s.corrupt_read_at = 10;
    s.corrupt_read_byte = 2000;
    return std::unique_ptr<FileHandle>(
        new FaultInjectionFile(std::move(base), s));
  };
  auto engine = StorageEngine::Open(path_, options).value();
  Result<uint64_t> scan = ScanAll(engine.get());
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
  EXPECT_GE(engine->io_stats().Snapshot().corruptions_detected, 1u);
}

TEST_F(StorageIntegrityTest, DemandReadJoinsInflightPrefetch) {
  auto engine = StorageEngine::Open(path_).value();
  ASSERT_TRUE(CommitRows(engine.get(), 0, 500).ok());
  ASSERT_TRUE(engine->Checkpoint().ok());
  Pager* pager = engine->pager();
  engine->DropCaches();

  const uint64_t snap = pager->BeginSnapshot();
  std::vector<PageId> ids;
  for (PageId id = 1; id < pager->page_count(); ++id) ids.push_back(id);
  ASSERT_FALSE(ids.empty());
  std::unique_ptr<AsyncPrefetch> h = pager->PrefetchPages(ids, snap);
  ASSERT_NE(h, nullptr);
  // Demand-read one of the in-flight pages before reaping the handle:
  // the read must JOIN the submitted batch (driving its reap) instead of
  // issuing a duplicate main-file read.
  ASSERT_TRUE(pager->ReadPage(ids[0], snap).ok());
  EXPECT_GE(pager->io_stats().Snapshot().read_joins, 1u);
  h->Finish();
  pager->EndSnapshot(snap);
  EXPECT_EQ(ScanAll(engine.get()).value(), 500u);
}

}  // namespace
}  // namespace micronn
