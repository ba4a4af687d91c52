// Property-based storage tests: crash-point fuzzing of WAL recovery and
// randomized multi-transaction engine workloads checked against an
// in-memory model.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "storage/engine.h"
#include "storage/key_encoding.h"
#include "storage/wal.h"
#include "support/fault_injection_file.h"

namespace micronn {
namespace {

class PropertyDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_prop_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& f) const { return dir_ / f; }
  std::filesystem::path dir_;
};

// Crash-point fuzzing: commit a known sequence of transactions, then chop
// the WAL at every possible frame-ish boundary and verify that recovery
// always yields a consistent prefix of committed transactions.
class WalCrashPointTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalCrashPointTest, RecoversConsistentPrefix) {
  const uint64_t seed = GetParam();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("micronn_walfuzz_" + std::to_string(::getpid()) + "_" +
                    std::to_string(seed));
  std::filesystem::create_directories(dir);
  const std::string db_path = dir / "db";

  // Commit 12 transactions, each writing marker rows keyed by txn number.
  constexpr int kTxns = 12;
  {
    auto engine = StorageEngine::Open(db_path).value();
    for (int t = 0; t < kTxns; ++t) {
      auto txn = engine->BeginWrite().value();
      BTree tree = txn->OpenOrCreateTable("t").value();
      Rng rng(seed * 131 + t);
      const int rows = 1 + static_cast<int>(rng.Uniform(40));
      for (int r = 0; r < rows; ++r) {
        ASSERT_TRUE(tree.Put(key::U64(t * 1000 + r),
                             "txn" + std::to_string(t)).ok());
      }
      // Marker row that lets recovery checking identify complete txns.
      ASSERT_TRUE(tree.Put(key::U64(900000 + t), "committed").ok());
      ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
    }
    // Leave without checkpoint: everything lives in the WAL. (Close()
    // would checkpoint, so snapshot the files by copying.)
    std::filesystem::copy_file(db_path, std::string(dir / "frozen"));
    std::filesystem::copy_file(db_path + "-wal",
                               std::string(dir / "frozen-wal"));
  }

  // Chop the frozen WAL at pseudo-random byte offsets and recover.
  const auto wal_size = std::filesystem::file_size(dir / "frozen-wal");
  Rng rng(seed);
  for (int trial = 0; trial < 12; ++trial) {
    const uint64_t cut = rng.Uniform(wal_size + 1);
    const std::string crash_db = dir / ("crash" + std::to_string(trial));
    std::filesystem::copy_file(dir / "frozen", crash_db);
    std::filesystem::copy_file(dir / "frozen-wal", crash_db + "-wal");
    {
      auto file = File::Open(crash_db + "-wal").value();
      ASSERT_TRUE(file->Truncate(cut).ok());
    }
    auto engine = StorageEngine::Open(crash_db).value();
    auto txn = engine->BeginRead().value();
    Result<BTree> tree = txn->OpenTable("t");
    int last_complete = -1;
    if (tree.ok()) {
      for (int t = 0; t < kTxns; ++t) {
        auto marker = tree->Get(key::U64(900000 + t)).value();
        if (marker.has_value()) {
          last_complete = t;
        } else {
          break;
        }
      }
      // Prefix property: if txn T's marker survived, all of T's rows and
      // all earlier txns' markers must be present; no later markers may
      // appear after the first missing one.
      for (int t = 0; t <= last_complete; ++t) {
        EXPECT_TRUE(tree->Get(key::U64(t * 1000 + 0)).value().has_value())
            << "cut=" << cut << " txn=" << t;
      }
      for (int t = last_complete + 1; t < kTxns; ++t) {
        EXPECT_FALSE(tree->Get(key::U64(900000 + t)).value().has_value())
            << "cut=" << cut << " txn=" << t;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalCrashPointTest,
                         ::testing::Values(1, 2, 3, 4));

// Randomized engine workload vs model across reopen cycles: interleaves
// puts/deletes/commits/rollbacks/checkpoints/reopens and verifies the
// surviving state matches the model of committed operations.
class EngineModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineModelTest, CommittedStateMatchesModel) {
  const uint64_t seed = GetParam();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("micronn_engmodel_" + std::to_string(::getpid()) + "_" +
                    std::to_string(seed));
  std::filesystem::create_directories(dir);
  const std::string path = dir / "db";

  Rng rng(seed);
  std::map<std::string, std::string> model;  // committed state
  auto engine = StorageEngine::Open(path).value();
  {
    auto txn = engine->BeginWrite().value();
    txn->OpenOrCreateTable("t").value();
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
  }

  for (int round = 0; round < 40; ++round) {
    const uint64_t action = rng.Uniform(10);
    if (action < 6) {
      // A write transaction with several ops; 25% chance of rollback.
      auto txn = engine->BeginWrite().value();
      BTree tree = txn->OpenTable("t").value();
      std::map<std::string, std::optional<std::string>> pending;
      const int ops = 1 + static_cast<int>(rng.Uniform(30));
      for (int i = 0; i < ops; ++i) {
        const std::string k = key::U64(rng.Uniform(200));
        if (rng.Uniform(4) == 0) {
          ASSERT_TRUE(tree.Delete(k).ok());
          pending[k] = std::nullopt;
        } else {
          std::string v(rng.Uniform(300), 'a' + round % 26);
          ASSERT_TRUE(tree.Put(k, v).ok());
          pending[k] = v;
        }
      }
      if (rng.Uniform(4) == 0) {
        engine->Rollback(std::move(txn));
      } else {
        ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
        for (auto& [k, v] : pending) {
          if (v.has_value()) {
            model[k] = *v;
          } else {
            model.erase(k);
          }
        }
      }
    } else if (action < 8) {
      Status st = engine->Checkpoint();
      EXPECT_TRUE(st.ok() || st.IsBusy()) << st.ToString();
    } else {
      // Reopen the engine (clean restart path).
      ASSERT_TRUE(engine->Close().ok());
      engine.reset();
      engine = StorageEngine::Open(path).value();
    }
    // Verify the full committed state every few rounds.
    if (round % 5 == 4) {
      auto txn = engine->BeginRead().value();
      BTree tree = txn->OpenTable("t").value();
      BTreeCursor c = tree.NewCursor();
      ASSERT_TRUE(c.SeekToFirst().ok());
      auto it = model.begin();
      while (c.Valid()) {
        ASSERT_NE(it, model.end()) << "extra key after round " << round;
        EXPECT_EQ(c.key(), it->first);
        EXPECT_EQ(c.value().value(), it->second);
        ASSERT_TRUE(c.Next().ok());
        ++it;
      }
      EXPECT_EQ(it, model.end()) << "missing keys after round " << round;
    }
  }
  engine->Close().ok();
  engine.reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineModelTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// Randomized fault-schedule sweep: the WAL (and sometimes the main file)
// handle fails operations on a seed-derived schedule while a sequence of
// transactions commits. The invariant under ANY schedule:
//   - every acknowledged commit survives a crash-and-recover, and
//   - every transaction is all-or-nothing (an unacknowledged commit may
//     legally survive — e.g. a failed commit fsync whose write proved
//     durable — but it must never be torn).
class FaultScheduleSweepTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // One transaction: rows t*1000 .. t*1000+rows-1 plus marker 900000+t.
  // Any failure rolls back and reports the txn unacknowledged.
  static Status TryCommitTxn(StorageEngine* engine, int t, Rng* rng) {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                             engine->BeginWrite());
    Result<BTree> tree = txn->OpenOrCreateTable("t");
    if (!tree.ok()) {
      engine->Rollback(std::move(txn));
      return tree.status();
    }
    const int rows = 1 + static_cast<int>(rng->Uniform(30));
    for (int r = 0; r < rows; ++r) {
      Status st = tree->Put(key::U64(t * 1000 + r), "txn" + std::to_string(t));
      if (!st.ok()) {
        engine->Rollback(std::move(txn));
        return st;
      }
    }
    Status st = tree->Put(key::U64(900000 + t), "committed");
    if (!st.ok()) {
      engine->Rollback(std::move(txn));
      return st;
    }
    return engine->Commit(std::move(txn));
  }
};

TEST_P(FaultScheduleSweepTest, AcknowledgedCommitsSurviveAnySchedule) {
  const uint64_t seed = GetParam();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("micronn_faultsweep_" + std::to_string(::getpid()) + "_" +
                    std::to_string(seed));
  std::filesystem::create_directories(dir);
  const std::string path = dir / "db";
  const std::string crash = dir / "crash";

  Rng rng(seed * 2654435761ULL + 99);

  FaultInjectionFile* wal_file = nullptr;
  FaultInjectionFile* db_file = nullptr;
  PagerOptions opts;
  opts.sync_on_commit = rng.Uniform(2) == 0;
  opts.file_wrapper = [&wal_file, &db_file](std::unique_ptr<FileHandle> base,
                                            std::string_view role)
      -> std::unique_ptr<FileHandle> {
    auto wrapped = std::make_unique<FaultInjectionFile>(std::move(base),
                                                        FaultSchedule{});
    (role == "wal" ? wal_file : db_file) = wrapped.get();
    return wrapped;
  };
  auto engine = StorageEngine::Open(path, opts).value();
  ASSERT_NE(wal_file, nullptr);
  ASSERT_NE(db_file, nullptr);

  // Arm a seed-derived schedule aimed into the upcoming workload (offsets
  // start from the current counters, so setup I/O never absorbs a fault).
  auto arm = [&rng](FaultInjectionFile* f) {
    const FaultCounters c = f->counters();
    FaultSchedule s;
    switch (rng.Uniform(4)) {
      case 0:
        s.fail_write_at = c.writes + 1 + rng.Uniform(25);
        break;
      case 1:
        s.torn_write_at = c.writes + 1 + rng.Uniform(25);
        s.torn_write_bytes = rng.Uniform(2 * Wal::kFrameSize);
        if (rng.Uniform(2) == 0) s.fail_truncate_at = c.truncates + 1;
        break;
      case 2:
        s.fail_sync_at = c.syncs + 1 + rng.Uniform(8);
        break;
      case 3:
        s.fail_read_at = c.reads + 1 + rng.Uniform(60);
        break;
    }
    if (rng.Uniform(3) == 0) s.eintr_every = 2 + rng.Uniform(3);
    f->set_schedule(s);
  };
  arm(wal_file);
  if (rng.Uniform(3) == 0) arm(db_file);

  constexpr int kTxns = 10;
  bool acked[kTxns] = {};
  for (int t = 0; t < kTxns; ++t) {
    acked[t] = TryCommitTxn(engine.get(), t, &rng).ok();
    if (rng.Uniform(4) == 0) {
      engine->Checkpoint().ok();  // allowed to fail under injected faults
    }
  }

  // Freeze the files while the engine is still open — a crash at the end
  // of the workload. (Closing would run a checkpoint through the still-
  // armed schedule and change what is on disk.)
  std::filesystem::copy_file(path, crash);
  std::filesystem::copy_file(path + "-wal", crash + "-wal");

  // Recover the frozen image with a clean (fault-free) stack.
  auto recovered = StorageEngine::Open(crash).value();
  auto txn = recovered->BeginRead().value();
  Result<BTree> tree = txn->OpenTable("t");
  for (int t = 0; t < kTxns; ++t) {
    const bool marker =
        tree.ok() && tree->Get(key::U64(900000 + t)).value().has_value();
    const bool first_row =
        tree.ok() && tree->Get(key::U64(t * 1000)).value().has_value();
    if (acked[t]) {
      EXPECT_TRUE(marker) << "seed=" << seed << ": acknowledged txn " << t
                          << " lost by recovery";
    }
    EXPECT_EQ(marker, first_row)
        << "seed=" << seed << ": txn " << t << " recovered torn";
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScheduleSweepTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Pipelined-commit property sweep: randomized multi-threaded committers
// race through the group-commit pipeline (staged appends + leader batch
// write + shared fsync) while the WAL fails a seed-derived write/sync
// schedule. Invariants under ANY schedule and interleaving:
//   - per-submission failure isolation: a fault failing the leader's
//     batched write (or the shared fsync) must not acknowledge ANY member
//     of that group — every commit reported ok must survive the crash
//     image, with no exception for followers;
//   - atomicity: every transaction recovers all-or-nothing.
// A start gate releases all committers at once so the schedule lands in a
// genuinely concurrent group even on a single-core CI runner.
class PipelinedCommitSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelinedCommitSweepTest, FaultedGroupAcksNoMember) {
  const uint64_t seed = GetParam();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("micronn_pipesweep_" + std::to_string(::getpid()) + "_" +
                    std::to_string(seed));
  std::filesystem::create_directories(dir);
  const std::string path = dir / "db";
  const std::string crash = dir / "crash";

  Rng rng(seed * 1099511628211ULL + 7);
  FaultInjectionFile* wal_file = nullptr;
  PagerOptions opts;
  opts.sync_on_commit = true;
  opts.file_wrapper = [&wal_file](std::unique_ptr<FileHandle> base,
                                  std::string_view role)
      -> std::unique_ptr<FileHandle> {
    if (role != "wal") return base;
    auto wrapped =
        std::make_unique<FaultInjectionFile>(std::move(base), FaultSchedule{});
    wal_file = wrapped.get();
    return wrapped;
  };
  auto engine = StorageEngine::Open(path, opts).value();
  ASSERT_NE(wal_file, nullptr);
  {
    auto txn = engine->BeginWrite().value();
    txn->OpenOrCreateTable("t").value();
    ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
  }

  // Arm one seed-derived WAL fault aimed into the sweep (write-path only:
  // the sweep probes commit acknowledgement, not read errors). Offsets
  // start from the current counters so setup I/O never absorbs it.
  {
    const FaultCounters c = wal_file->counters();
    FaultSchedule s;
    switch (rng.Uniform(3)) {
      case 0:
        s.fail_write_at = c.writes + 1 + rng.Uniform(20);
        break;
      case 1:
        s.torn_write_at = c.writes + 1 + rng.Uniform(20);
        s.torn_write_bytes = rng.Uniform(3 * Wal::kFrameSize);
        if (rng.Uniform(2) == 0) s.fail_truncate_at = c.truncates + 1;
        break;
      case 2:
        s.fail_sync_at = c.syncs + 1 + rng.Uniform(12);
        break;
    }
    wal_file->set_schedule(s);
  }

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 6;
  std::array<std::array<bool, kTxnsPerThread>, kThreads> acked{};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng trng(seed * 7919 + t);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * 100 + i;
        auto txn = engine->BeginWrite();
        if (!txn.ok()) continue;
        Result<BTree> tree = (*txn)->OpenTable("t");
        if (!tree.ok()) {
          engine->Rollback(std::move(*txn));
          continue;
        }
        bool built = true;
        const int rows = 1 + static_cast<int>(trng.Uniform(12));
        for (int r = 0; r < rows && built; ++r) {
          built = tree->Put(key::U64(id * 1000 + r),
                            "txn" + std::to_string(id)).ok();
        }
        if (built) {
          built = tree->Put(key::U64(900000 + id), "committed").ok();
        }
        if (!built) {
          engine->Rollback(std::move(*txn));
          continue;
        }
        acked[t][i] = engine->Commit(std::move(*txn)).ok();
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();

  // Freeze the files while the engine is still open (closing would run a
  // checkpoint and change what a crash would have found).
  std::filesystem::copy_file(path, crash);
  std::filesystem::copy_file(path + "-wal", crash + "-wal");

  auto recovered = StorageEngine::Open(crash).value();
  auto txn = recovered->BeginRead().value();
  Result<BTree> tree = txn->OpenTable("t");
  ASSERT_TRUE(tree.ok());
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kTxnsPerThread; ++i) {
      const uint64_t id = static_cast<uint64_t>(t) * 100 + i;
      const bool marker =
          tree->Get(key::U64(900000 + id)).value().has_value();
      const bool first_row =
          tree->Get(key::U64(id * 1000)).value().has_value();
      if (acked[t][i]) {
        EXPECT_TRUE(marker) << "seed=" << seed << ": acknowledged commit ("
                            << t << "," << i << ") lost by recovery";
      }
      EXPECT_EQ(marker, first_row)
          << "seed=" << seed << ": commit (" << t << "," << i
          << ") recovered torn";
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinedCommitSweepTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

using FreelistTest = PropertyDir;

TEST_F(FreelistTest, PagesRecycleAcrossTableLifecycles) {
  // Creating and dropping tables repeatedly must not grow the file
  // unboundedly: freed pages get reused.
  auto engine = StorageEngine::Open(Path("db")).value();
  uint32_t pages_after_first = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    {
      auto txn = engine->BeginWrite().value();
      BTree tree = txn->OpenOrCreateTable("cycle").value();
      for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(tree.Put(key::U64(i), std::string(500, 'x')).ok());
      }
      ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
    }
    {
      auto txn = engine->BeginWrite().value();
      ASSERT_TRUE(txn->DropTable("cycle").ok());
      ASSERT_TRUE(engine->Commit(std::move(txn)).ok());
    }
    if (cycle == 0) {
      pages_after_first = engine->pager()->page_count();
    }
  }
  // Allow mild slack for freelist/catalog pages, but no linear growth.
  EXPECT_LE(engine->pager()->page_count(), pages_after_first + 8);
}

}  // namespace
}  // namespace micronn
