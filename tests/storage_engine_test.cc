// StorageEngine tests: catalog, transactions, snapshot isolation across
// tables, concurrency, crash recovery at the engine level.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "storage/engine.h"
#include "storage/key_encoding.h"

namespace micronn {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_engine_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = dir_ / "db";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(EngineTest, CreateTableAndReadBack) {
  auto engine = StorageEngine::Open(path_).value();
  {
    auto txn = engine->BeginWrite().value();
    BTree t = txn->OpenOrCreateTable("vectors").value();
    ASSERT_TRUE(t.Put("k1", "v1").ok());
    txn->AddRowDelta("vectors", 1);
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
  }
  {
    auto txn = engine->BeginRead().value();
    BTree t = txn->OpenTable("vectors").value();
    EXPECT_EQ(*t.Get("k1").value(), "v1");
    EXPECT_EQ(txn->GetTableInfo("vectors").value().row_count, 1u);
  }
}

TEST_F(EngineTest, MissingTableIsNotFound) {
  auto engine = StorageEngine::Open(path_).value();
  auto txn = engine->BeginRead().value();
  auto t = txn->OpenTable("nope");
  EXPECT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsNotFound());
}

TEST_F(EngineTest, RollbackLeavesNoTrace) {
  auto engine = StorageEngine::Open(path_).value();
  {
    auto txn = engine->BeginWrite().value();
    BTree t = txn->OpenOrCreateTable("temp").value();
    ASSERT_TRUE(t.Put("a", "b").ok());
    engine->Rollback(std::move(txn));
  }
  auto txn = engine->BeginRead().value();
  EXPECT_TRUE(txn->OpenTable("temp").status().IsNotFound());
}

TEST_F(EngineTest, MultipleTablesIndependent) {
  auto engine = StorageEngine::Open(path_).value();
  {
    auto txn = engine->BeginWrite().value();
    BTree a = txn->OpenOrCreateTable("a").value();
    BTree b = txn->OpenOrCreateTable("b").value();
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(a.Put(key::U64(i), "a" + std::to_string(i)).ok());
      ASSERT_TRUE(b.Put(key::U64(i), "b" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
  }
  auto txn = engine->BeginRead().value();
  BTree a = txn->OpenTable("a").value();
  BTree b = txn->OpenTable("b").value();
  EXPECT_EQ(*a.Get(key::U64(42)).value(), "a42");
  EXPECT_EQ(*b.Get(key::U64(42)).value(), "b42");
}

TEST_F(EngineTest, DropTableRemovesIt) {
  auto engine = StorageEngine::Open(path_).value();
  {
    auto txn = engine->BeginWrite().value();
    BTree t = txn->OpenOrCreateTable("gone").value();
    ASSERT_TRUE(t.Put("x", std::string(5000, 'y')).ok());
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
  }
  {
    auto txn = engine->BeginWrite().value();
    ASSERT_TRUE(txn->DropTable("gone").ok());
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
  }
  auto txn = engine->BeginRead().value();
  EXPECT_TRUE(txn->OpenTable("gone").status().IsNotFound());
}

TEST_F(EngineTest, RowCountTracksDeltas) {
  auto engine = StorageEngine::Open(path_).value();
  {
    auto txn = engine->BeginWrite().value();
    txn->OpenOrCreateTable("t").value();
    txn->AddRowDelta("t", 10);
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
  }
  {
    auto txn = engine->BeginWrite().value();
    txn->AddRowDelta("t", -3);
    // Uncommitted delta visible inside the txn:
    EXPECT_EQ(txn->GetTableInfo("t").value().row_count, 7u);
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
  }
  auto txn = engine->BeginRead().value();
  EXPECT_EQ(txn->GetTableInfo("t").value().row_count, 7u);
}

TEST_F(EngineTest, SnapshotReadersSeeOldStateDuringWrite) {
  auto engine = StorageEngine::Open(path_).value();
  {
    auto txn = engine->BeginWrite().value();
    BTree t = txn->OpenOrCreateTable("t").value();
    ASSERT_TRUE(t.Put("k", "old").ok());
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
  }
  auto reader = engine->BeginRead().value();
  {
    auto writer = engine->BeginWrite().value();
    BTree t = writer->OpenTable("t").value();
    ASSERT_TRUE(t.Put("k", "new").ok());
    // Reader opened before the write still sees the old value mid-write...
    BTree rt = reader->OpenTable("t").value();
    EXPECT_EQ(*rt.Get("k").value(), "old");
    ASSERT_TRUE(engine->Commit(std::move(writer)).ok());
  }
  // ...and after the commit (snapshot stability).
  BTree rt = reader->OpenTable("t").value();
  EXPECT_EQ(*rt.Get("k").value(), "old");
  auto fresh = engine->BeginRead().value();
  BTree ft = fresh->OpenTable("t").value();
  EXPECT_EQ(*ft.Get("k").value(), "new");
}

TEST_F(EngineTest, DataSurvivesReopen) {
  {
    auto engine = StorageEngine::Open(path_).value();
    auto txn = engine->BeginWrite().value();
    BTree t = txn->OpenOrCreateTable("persist").value();
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(t.Put(key::U64(i), "value" + std::to_string(i)).ok());
    }
    txn->AddRowDelta("persist", 1000);
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  auto engine = StorageEngine::Open(path_).value();
  auto txn = engine->BeginRead().value();
  BTree t = txn->OpenTable("persist").value();
  EXPECT_EQ(*t.Get(key::U64(999)).value(), "value999");
  EXPECT_EQ(txn->GetTableInfo("persist").value().row_count, 1000u);
}

TEST_F(EngineTest, CrashRecoveryFromWal) {
  // Simulate a crash at the filesystem level: after a commit (but before
  // any checkpoint) copy the main file + WAL aside, exactly as a power cut
  // would freeze them, then recover from the copy.
  const std::string crash = dir_ / "crash_db";
  {
    auto engine = StorageEngine::Open(path_).value();
    auto txn = engine->BeginWrite().value();
    BTree t = txn->OpenOrCreateTable("walled").value();
    ASSERT_TRUE(t.Put("committed", "yes").ok());
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
    // Engine still open, nothing checkpointed: the main file lacks the
    // commit; only the WAL has it.
    std::filesystem::copy_file(path_, crash);
    std::filesystem::copy_file(path_ + "-wal", crash + "-wal");
  }
  auto engine = StorageEngine::Open(crash).value();
  auto txn = engine->BeginRead().value();
  BTree t = txn->OpenTable("walled").value();
  EXPECT_EQ(*t.Get("committed").value(), "yes");
}

TEST_F(EngineTest, ConcurrentReadersWhileWriting) {
  auto engine = StorageEngine::Open(path_).value();
  {
    auto txn = engine->BeginWrite().value();
    BTree t = txn->OpenOrCreateTable("t").value();
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(t.Put(key::U64(i), std::string(100, 'v')).ok());
    }
    txn->AddRowDelta("t", 2000);
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::atomic<int> reads_done{0};
  std::atomic<int> readers_warm{0};  // readers that completed >= 1 scan
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      bool first = true;
      while (!stop.load()) {
        auto txn = engine->BeginRead();
        if (!txn.ok()) {
          ++reader_errors;
          continue;
        }
        auto t = (*txn)->OpenTable("t");
        if (!t.ok()) {
          ++reader_errors;
          continue;
        }
        // Full scan must always see a consistent count (2000 + multiple of
        // 100 from committed writer batches).
        BTreeCursor c = t->NewCursor();
        if (!c.SeekToFirst().ok()) {
          ++reader_errors;
          continue;
        }
        int count = 0;
        bool bad = false;
        while (c.Valid()) {
          ++count;
          if (!c.Next().ok()) {
            bad = true;
            break;
          }
        }
        if (bad || count < 2000 || (count - 2000) % 100 != 0) {
          ++reader_errors;
        }
        ++reads_done;
        if (first) {
          first = false;
          ++readers_warm;
        }
      }
    });
  }
  // Wait until every reader is demonstrably scanning before the first
  // commit: on a loaded (or single-core) machine the writer can otherwise
  // finish all batches before the reader threads are even scheduled, which
  // would vacuously satisfy the progress assertion below.
  while (readers_warm.load() < 3) {
    std::this_thread::yield();
  }
  // Writer: 10 batches of 100 inserts each.
  for (int batch = 0; batch < 10; ++batch) {
    auto txn = engine->BeginWrite().value();
    BTree t = txn->OpenTable("t").value();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          t.Put(key::U64(10000 + batch * 100 + i), "new").ok());
    }
    txn->AddRowDelta("t", 100);
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_GT(reads_done.load(), 0);
}

TEST_F(EngineTest, SingleWriterEnforced) {
  auto engine = StorageEngine::Open(path_).value();
  auto w1 = engine->BeginWrite().value();
  auto w2 = engine->TryBeginWrite();
  EXPECT_TRUE(w2.status().IsBusy());
  engine->Rollback(std::move(w1));
  auto w3 = engine->TryBeginWrite();
  EXPECT_TRUE(w3.ok());
  engine->Rollback(std::move(*w3));
}

// A transaction destroyed without Commit or Rollback (an early return in
// the caller) rolls back: the writer slot frees up and its writes vanish.
TEST_F(EngineTest, DroppedTransactionRollsBack) {
  auto engine = StorageEngine::Open(path_).value();
  {
    auto txn = engine->BeginWrite().value();
    BTree t = txn->OpenOrCreateTable("t").value();
    ASSERT_TRUE(t.Put("k", "v").ok());
    txn->AddRowDelta("t", 1);
  }
  auto next = engine->TryBeginWrite();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  next->reset();
  auto reader = engine->BeginRead().value();
  EXPECT_TRUE(reader->OpenTable("t").status().IsNotFound());
}

TEST_F(EngineTest, LargeValuesThroughEngine) {
  auto engine = StorageEngine::Open(path_).value();
  const std::string blob(3840, 'f');  // a 960-dim float vector's size
  {
    auto txn = engine->BeginWrite().value();
    BTree t = txn->OpenOrCreateTable("vec").value();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(t.Put(key::U64(i), blob).ok());
    }
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
  }
  auto txn = engine->BeginRead().value();
  BTree t = txn->OpenTable("vec").value();
  EXPECT_EQ(t.Get(key::U64(123)).value()->size(), blob.size());
}

TEST_F(EngineTest, CheckpointThenReopenWithoutWal) {
  {
    auto engine = StorageEngine::Open(path_).value();
    auto txn = engine->BeginWrite().value();
    BTree t = txn->OpenOrCreateTable("t").value();
    ASSERT_TRUE(t.Put("k", "v").ok());
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
    ASSERT_TRUE(engine->Checkpoint().ok());
    ASSERT_TRUE(engine->Close().ok());
  }
  // Delete the (empty) WAL to prove the main file is self-contained.
  ASSERT_TRUE(RemoveFileIfExists(path_ + "-wal").ok());
  auto engine = StorageEngine::Open(path_).value();
  auto txn = engine->BeginRead().value();
  BTree t = txn->OpenTable("t").value();
  EXPECT_EQ(*t.Get("k").value(), "v");
}

}  // namespace
}  // namespace micronn
