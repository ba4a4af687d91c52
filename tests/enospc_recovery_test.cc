// ENOSPC crash matrix: a full filesystem mid-commit, mid-checkpoint, or
// mid-WAL-flush must never acknowledge a torn write. The pager rolls the
// transaction back, flips into read-only degraded mode (reads keep
// serving every committed snapshot, writes fail fast), auto-recovers once
// space returns, and a reopen from any of these states comes up clean
// with exactly the acknowledged data.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "core/db.h"
#include "storage/engine.h"
#include "storage/key_encoding.h"
#include "support/fault_injection_file.h"

namespace micronn {
namespace {

// Shared handle registry: the wrapper hands out raw pointers so tests can
// re-arm schedules mid-run ("the disk fills up now", "space is freed").
// Pointers stay valid while the engine that owns the files is open.
struct FaultRig {
  std::map<std::string, FaultInjectionFile*> files;

  void ArmEnospcEverywhere() {
    FaultSchedule s;
    s.enospc_after = 1;
    for (auto& [role, f] : files) f->set_schedule(s);
  }
  void FreeSpace() {
    for (auto& [role, f] : files) f->set_schedule(FaultSchedule{});
  }
};

std::function<std::unique_ptr<FileHandle>(std::unique_ptr<FileHandle>,
                                          std::string_view)>
MakeWrapper(std::shared_ptr<FaultRig> rig) {
  return [rig](std::unique_ptr<FileHandle> base, std::string_view role) {
    auto f = std::make_unique<FaultInjectionFile>(std::move(base),
                                                 FaultSchedule{});
    rig->files[std::string(role)] = f.get();
    return std::unique_ptr<FileHandle>(std::move(f));
  };
}

class EnospcRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_enospc_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = dir_ / "db";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

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
                                          std::string(60, 'p'));
      if (!st.ok()) {
        engine->Rollback(std::move(txn));
        return st;
      }
    }
    txn->AddRowDelta("t", static_cast<int64_t>(rows));
    return engine->Commit(std::move(txn));
  }

  static Result<uint64_t> CountRows(StorageEngine* engine) {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> txn,
                             engine->BeginRead());
    MICRONN_ASSIGN_OR_RETURN(BTree t, txn->OpenTable("t"));
    BTreeCursor c = t.NewCursor();
    MICRONN_RETURN_IF_ERROR(c.SeekToFirst());
    uint64_t n = 0;
    while (c.Valid()) {
      ++n;
      MICRONN_RETURN_IF_ERROR(c.Next());
    }
    return n;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(EnospcRecoveryTest, MidCommitRollsBackDegradesAndRecovers) {
  auto rig = std::make_shared<FaultRig>();
  PagerOptions options;
  options.file_wrapper = MakeWrapper(rig);
  // This test frees space immediately after a *failed* probe and expects
  // the very next write to recover; disable the probe backoff so that
  // write actually probes (DegradedProbeIsRateLimited covers the limiter).
  options.enospc_probe_backoff_ms = 0;
  auto engine = StorageEngine::Open(path_, options).value();
  ASSERT_TRUE(CommitRows(engine.get(), 0, 200).ok());

  // The disk fills up: the next commit's WAL append fails. Nothing of the
  // batch may be acknowledged or visible.
  rig->ArmEnospcEverywhere();
  Status st = CommitRows(engine.get(), 200, 100);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_TRUE(engine->pager()->degraded_state().read_only);

  // Degraded mode: reads keep serving the committed state...
  EXPECT_EQ(CountRows(engine.get()).value(), 200u);
  // ...and writes fail fast (the space probe finds the disk still full).
  st = CommitRows(engine.get(), 200, 100);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_EQ(CountRows(engine.get()).value(), 200u);

  // Space is freed: the next write's probe clears degraded mode and the
  // commit lands normally.
  rig->FreeSpace();
  ASSERT_TRUE(CommitRows(engine.get(), 200, 100).ok());
  EXPECT_FALSE(engine->pager()->degraded_state().read_only);
  EXPECT_EQ(CountRows(engine.get()).value(), 300u);
}

// The space probe is rate-limited: while the disk stays full, repeated
// write attempts fail fast out of an exponential backoff window instead
// of issuing filesystem syscalls each time; a successful probe resets
// the schedule so the next incident starts fresh.
TEST_F(EnospcRecoveryTest, DegradedProbeIsRateLimited) {
  auto rig = std::make_shared<FaultRig>();
  PagerOptions options;
  options.file_wrapper = MakeWrapper(rig);
  options.enospc_probe_backoff_ms = 100;  // wide windows: the count stays low
  options.enospc_probe_max_backoff_ms = 400;
  auto engine = StorageEngine::Open(path_, options).value();
  ASSERT_TRUE(CommitRows(engine.get(), 0, 100).ok());

  rig->ArmEnospcEverywhere();
  ASSERT_FALSE(CommitRows(engine.get(), 100, 10).ok());
  ASSERT_TRUE(engine->pager()->degraded_state().read_only);

  // Hammer writes while the disk stays full. Every attempt fails fast;
  // only a handful actually probe (100/200/400ms windows), where an
  // unlimited prober would have probed on all 25.
  const uint64_t probes_before = engine->io_stats().Snapshot().enospc_probes;
  for (int i = 0; i < 25; ++i) {
    ASSERT_FALSE(CommitRows(engine.get(), 100, 10).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const uint64_t probes =
      engine->io_stats().Snapshot().enospc_probes - probes_before;
  EXPECT_GE(probes, 1u);
  EXPECT_LE(probes, 8u) << "probe backoff is not limiting syscalls";

  // Space returns: recovery waits out at most one backoff window.
  rig->FreeSpace();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine->pager()->degraded_state().read_only &&
         std::chrono::steady_clock::now() < deadline) {
    CommitRows(engine.get(), 100, 10).ok();  // probes once the window opens
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(engine->pager()->degraded_state().read_only);
  EXPECT_EQ(CountRows(engine.get()).value(), 110u);
}

TEST_F(EnospcRecoveryTest, MidCheckpointDegradesAndRecovers) {
  auto rig = std::make_shared<FaultRig>();
  PagerOptions options;
  options.auto_checkpoint_frames = 0;  // checkpoint only when told to
  options.file_wrapper = MakeWrapper(rig);
  auto engine = StorageEngine::Open(path_, options).value();
  ASSERT_TRUE(CommitRows(engine.get(), 0, 300).ok());

  // The checkpoint's fold into the main file hits a full disk.
  rig->ArmEnospcEverywhere();
  Status st = engine->Checkpoint();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_TRUE(engine->pager()->degraded_state().read_only);
  // The WAL is still authoritative: reads are unaffected.
  EXPECT_EQ(CountRows(engine.get()).value(), 300u);

  rig->FreeSpace();
  ASSERT_TRUE(CommitRows(engine.get(), 300, 100).ok());  // probe recovers
  EXPECT_FALSE(engine->pager()->degraded_state().read_only);
  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_EQ(CountRows(engine.get()).value(), 400u);
}

TEST_F(EnospcRecoveryTest, MidWalFlushWithSyncIsStickyUntilReopen) {
  auto rig = std::make_shared<FaultRig>();
  PagerOptions options;
  options.sync_on_commit = true;  // pipelined group commit
  options.file_wrapper = MakeWrapper(rig);
  auto engine = StorageEngine::Open(path_, options).value();
  ASSERT_TRUE(CommitRows(engine.get(), 0, 100).ok());

  // The group-commit flush hits ENOSPC. Frames of the group were already
  // published to concurrent committers, so the failure is sticky: no
  // further synced commit is acknowledged until reopen (the conservative
  // choice — durability state is undefined after a failed flush).
  rig->ArmEnospcEverywhere();
  Status st = CommitRows(engine.get(), 100, 50);
  ASSERT_FALSE(st.ok());
  rig->FreeSpace();
  // Both attempts write the same rows, so recovery lands on one of two
  // consistent states regardless of which attempt's frames survived.
  EXPECT_FALSE(CommitRows(engine.get(), 100, 50).ok());  // still poisoned

  // Reopen: every acked row is present; the unacked tail may or may not
  // be (an unacked commit can still be durable — same as a crash between
  // WAL write and acknowledgement), but never partially.
  engine->Close().ok();  // best-effort close of a poisoned pager
  engine = StorageEngine::Open(path_, PagerOptions{}).value();
  const uint64_t n = CountRows(engine.get()).value();
  ASSERT_TRUE(n == 100u || n == 150u) << n;
  ASSERT_TRUE(CommitRows(engine.get(), 150, 50).ok());  // writes resume
  EXPECT_EQ(CountRows(engine.get()).value(), n == 100u ? 150u : 200u);
}

TEST_F(EnospcRecoveryTest, ReopenAfterMidCommitEnospcIsClean) {
  auto rig = std::make_shared<FaultRig>();
  PagerOptions options;
  options.file_wrapper = MakeWrapper(rig);
  {
    auto engine = StorageEngine::Open(path_, options).value();
    ASSERT_TRUE(CommitRows(engine.get(), 0, 200).ok());
    rig->ArmEnospcEverywhere();
    ASSERT_FALSE(CommitRows(engine.get(), 200, 100).ok());
    rig->FreeSpace();  // the close's checkpoint may write freely
    engine->Close().ok();
  }
  auto engine = StorageEngine::Open(path_, PagerOptions{}).value();
  EXPECT_EQ(CountRows(engine.get()).value(), 200u);
  ASSERT_TRUE(CommitRows(engine.get(), 200, 100).ok());
  EXPECT_EQ(CountRows(engine.get()).value(), 300u);
}

TEST_F(EnospcRecoveryTest, DbServesQueriesWhileDegraded) {
  auto rig = std::make_shared<FaultRig>();
  DbOptions options;
  options.dim = 8;
  options.pager.file_wrapper = MakeWrapper(rig);
  auto db = DB::Open(path_, options).value();

  std::vector<UpsertRequest> batch;
  for (int i = 0; i < 50; ++i) {
    UpsertRequest req;
    req.asset_id = "a" + std::to_string(i);
    req.vector.assign(8, 0.f);
    req.vector[i % 8] = 1.f + 0.01f * static_cast<float>(i);
    batch.push_back(std::move(req));
  }
  ASSERT_TRUE(db->Upsert(batch).ok());

  rig->ArmEnospcEverywhere();
  Status st = db->Upsert({{"overflow", {1, 1, 1, 1, 1, 1, 1, 1}, {}}});
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_TRUE(db->engine()->pager()->degraded_state().read_only);

  // Searches keep serving the committed state while the disk is full.
  SearchRequest req;
  req.query = {1, 0, 0, 0, 0, 0, 0, 0};
  req.k = 5;
  auto resp = db->Search(req).value();
  EXPECT_EQ(resp.items.size(), 5u);
  for (const ResultItem& item : resp.items) {
    EXPECT_NE(item.asset_id, "overflow");  // nothing torn became visible
  }

  // Space returns: writes resume and become searchable.
  rig->FreeSpace();
  ASSERT_TRUE(db->Upsert({{"back", {0, 0, 0, 0, 0, 0, 0, 2}, {}}}).ok());
  EXPECT_FALSE(db->engine()->pager()->degraded_state().read_only);
  req.query = {0, 0, 0, 0, 0, 0, 0, 2};
  resp = db->Search(req).value();
  ASSERT_FALSE(resp.items.empty());
  EXPECT_EQ(resp.items[0].asset_id, "back");
}

}  // namespace
}  // namespace micronn
