// The self-healing service layer: DB::Health() aggregation (verdict,
// degraded cause, quarantine, scrub cursor, integrity counters), the
// resumable budgeted ScrubStep cursor, quarantine persistence across
// reopen, and the BackgroundService's ENOSPC auto-recovery. Complements
// scrub_stress_test (healer under concurrent traffic) and
// enospc_recovery_test (the crash matrix behind read-only mode).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/maintainer.h"
#include "ivf/schema.h"
#include "numerics/distance.h"
#include "storage/engine.h"
#include "storage/key_encoding.h"
#include "support/fault_injection_file.h"

namespace micronn {
namespace {

// Shared handle registry (same pattern as enospc_recovery_test): the
// wrapper hands out raw pointers so the test can fill/free the "disk"
// mid-run. Pointers stay valid while the owning DB is open.
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

class HealthTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 8;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_health_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "db").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DbOptions Options() const {
    DbOptions options;
    options.dim = kDim;
    options.target_cluster_size = 32;
    return options;
  }

  // Upserts `rows` random vectors a0..a<rows-1>, recording ground truth.
  void LoadRows(DB* db, int rows, uint64_t seed = 7) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> dist(-1.f, 1.f);
    std::vector<UpsertRequest> batch;
    for (int i = 0; i < rows; ++i) {
      UpsertRequest req;
      req.asset_id = "a" + std::to_string(i);
      req.vector.resize(kDim);
      for (float& v : req.vector) v = dist(rng);
      truth_[req.asset_id] = req.vector;
      batch.push_back(std::move(req));
      if (batch.size() == 64) {
        ASSERT_TRUE(db->Upsert(batch).ok());
        batch.clear();
      }
    }
    if (!batch.empty()) ASSERT_TRUE(db->Upsert(batch).ok());
  }

  static void FlipByte(const std::string& file, uint64_t offset) {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << file;
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    ASSERT_TRUE(f.good()) << file << " @" << offset;
    b = static_cast<char>(b ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
    ASSERT_TRUE(f.good());
  }

  // Lands one commit through the raw engine (a scratch-table put). A
  // DB::Upsert would not do here: it quantizes every new row into the
  // SQ8 delta partition, rewriting the sidecar tree and shadowing any
  // pinned repair window over it with newer WAL frames.
  void CommitScratch(DB* db, uint64_t n) {
    auto txn = db->engine()->BeginWrite().value();
    BTree t = txn->OpenOrCreateTable("scratch").value();
    ASSERT_TRUE(t.Put(key::U64(n), "x").ok());
    ASSERT_TRUE(db->engine()->Commit(std::move(txn)).ok());
  }

  std::filesystem::path dir_;
  std::string path_;
  std::map<std::string, std::vector<float>> truth_;
};

TEST_F(HealthTest, HealthyDbReportsHealthy) {
  auto db = DB::Open(path_, Options()).value();
  LoadRows(db.get(), 200);
  ASSERT_TRUE(db->BuildIndex().ok());

  const HealthReport h = db->Health();
  EXPECT_EQ(h.verdict, HealthVerdict::kHealthy);
  EXPECT_STREQ(h.VerdictName(), "healthy");
  EXPECT_FALSE(h.read_only);
  EXPECT_TRUE(h.read_only_cause.empty());
  EXPECT_EQ(h.read_only_for_ms, 0u);
  EXPECT_TRUE(h.strict_checksums);  // fresh databases are born v4-strict
  EXPECT_GE(h.format_version, 4u);
  EXPECT_TRUE(h.quarantined_sq8_partitions.empty());
  EXPECT_EQ(h.quarantined_attribute_rows, 0u);
  EXPECT_FALSE(h.scrub_active);
  EXPECT_EQ(h.scrub_passes_completed, 0u);
  EXPECT_EQ(h.corruptions_detected, 0u);

  const std::string json = h.ToJson();
  EXPECT_NE(json.find("\"verdict\":\"healthy\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"strict_checksums\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"quarantined_sq8_partitions\":[]"), std::string::npos)
      << json;
  EXPECT_TRUE(db->Close().ok());
}

TEST_F(HealthTest, IoStatsSnapshotAccessor) {
  auto db = DB::Open(path_, Options()).value();
  const IoStats::View before = db->io_stats_snapshot();
  LoadRows(db.get(), 64);
  const IoStats::View after = db->io_stats_snapshot();
  // A copyable snapshot with working deltas — bench/tests no longer need
  // to reach through engine()->pager() for counters.
  const IoStats::View delta = after - before;
  EXPECT_GT(delta.commits, 0u);
  EXPECT_GT(delta.frames_written, 0u);
  EXPECT_EQ(delta.corruptions_detected, 0u);
  EXPECT_TRUE(db->Close().ok());
}

// The incremental scrub cursor: a pass proceeds in bounded batches, the
// writer slot is free between batches (a commit lands mid-pass), and the
// finished pass repairs a corrupt folded page from the WAL exactly like
// the monolithic Scrub.
TEST_F(HealthTest, ScrubStepIsResumableBoundedAndRepairs) {
  auto db = DB::Open(path_, Options()).value();
  LoadRows(db.get(), 300);
  Pager* pager = db->engine()->pager();

  // Open the repair window. A guard snapshot across BuildIndex keeps its
  // final checkpoint from resetting the WAL (which would discard the
  // index's frames); re-pinning at the built state and folding then
  // leaves every index page folded-but-indexed — repairable.
  const uint64_t guard = pager->BeginSnapshot();
  ASSERT_TRUE(db->BuildIndex().ok());
  const uint64_t snap = pager->BeginSnapshot();
  pager->EndSnapshot(guard);
  CommitScratch(db.get(), 1);
  ASSERT_TRUE(db->engine()->Checkpoint().ok());
  ASSERT_GT(pager->wal_frame_count(), 0u);
  ASSERT_GT(pager->wal_backfill_watermark(), 0u);

  // Corrupt the SQ8 sidecar root (folded by the checkpoint above, frame
  // still in the WAL).
  PageId sq8_root = kInvalidPage;
  {
    auto txn = db->engine()->BeginRead().value();
    sq8_root = txn->GetTableInfo(kSq8Table).value().root;
  }
  ASSERT_NE(sq8_root, kInvalidPage);
  FlipByte(path_, static_cast<uint64_t>(sq8_root) * kPageSize + 512);
  db->DropCaches();

  // Drive the pass in 4-page batches, committing between two batches to
  // prove the writer slot is released at the step boundary.
  Result<bool> first = db->ScrubStep(4);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(*first);  // a 300-row indexed db is far more than 4 pages
  {
    const ScrubState s = pager->scrub_state();
    EXPECT_TRUE(s.active);
    EXPECT_LE(s.next_page, 4u);
    EXPECT_LE(s.max_step_pages, 4u);
  }
  CommitScratch(db.get(), 2);  // commit interleaves mid-pass
  bool done = false;
  int steps = 1;
  while (!done) {
    Result<bool> step = db->ScrubStep(4);
    ASSERT_TRUE(step.ok()) << step.status().ToString();
    done = *step;
    ASSERT_LT(++steps, 100000);
  }

  const ScrubState s = pager->scrub_state();
  EXPECT_FALSE(s.active);
  EXPECT_EQ(s.passes_completed, 1u);
  EXPECT_GE(s.steps, 2u);
  EXPECT_LE(s.max_step_pages, 4u);
  EXPECT_GE(s.last_report.corruptions_found, 1u);
  EXPECT_GE(s.last_report.pages_repaired, 1u);
  EXPECT_TRUE(s.last_report.unrepairable.empty());

  // The repaired sidecar serves quantized plans again.
  db->DropCaches();
  SearchRequest req;
  req.query = truth_["a0"];
  req.k = 10;
  req.nprobe = 4;
  Result<SearchResponse> resp = db->Search(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->explain.partitions_quarantined, 0u);
  EXPECT_GT(resp->explain.partitions_quantized, 0u);

  pager->EndSnapshot(snap);
  EXPECT_TRUE(db->Close().ok());
}

// Satellite regression: a corrupt SQ8 sidecar page quarantines the
// partition (float fallback, flagged in EXPLAIN and in Health()); a
// reopened database re-detects the quarantine from disk; after a scrub
// repairs the page, plans are quantized again and EXPLAIN is clean.
TEST_F(HealthTest, QuarantinePersistsAcrossReopenAndScrubHeals) {
  auto db = DB::Open(path_, Options()).value();
  LoadRows(db.get(), 300);
  Pager* pager = db->engine()->pager();

  // Same guarded repair window as above: the built index's frames stay
  // folded-but-indexed in the WAL.
  const uint64_t guard = pager->BeginSnapshot();
  ASSERT_TRUE(db->BuildIndex().ok());
  const uint64_t snap = pager->BeginSnapshot();
  pager->EndSnapshot(guard);
  CommitScratch(db.get(), 1);
  ASSERT_TRUE(db->engine()->Checkpoint().ok());
  ASSERT_GT(pager->wal_frame_count(), 0u);
  ASSERT_GT(pager->wal_backfill_watermark(), 0u);

  PageId sq8_root = kInvalidPage;
  {
    auto txn = db->engine()->BeginRead().value();
    sq8_root = txn->GetTableInfo(kSq8Table).value().root;
  }
  ASSERT_NE(sq8_root, kInvalidPage);
  FlipByte(path_, static_cast<uint64_t>(sq8_root) * kPageSize + 512);
  db->DropCaches();

  SearchRequest req;
  req.query = truth_["a1"];
  req.k = 10;
  req.nprobe = 4;

  // On the live handle the damage is invisible: reads are WAL-first, and
  // the pristine frame still serves the page. Queries stay quantized and
  // clean — the corruption is latent until something reads the main file.
  {
    Result<SearchResponse> resp = db->Search(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->explain.partitions_quarantined, 0u);
  }

  // A copy of the files opened elsewhere models a restart that lost the
  // frame index for the folded prefix: its reads hit the main file, so
  // the first probe of the damaged partition detects the corruption,
  // quarantines the partition, and still answers correctly via the float
  // fallback. Health() mirrors the quarantine as degraded-serving.
  const std::string copy = (dir_ / "copy").string();
  for (const char* suffix : {"", "-wal", "-sum"}) {
    if (std::filesystem::exists(path_ + suffix)) {
      std::filesystem::copy_file(path_ + suffix, copy + suffix);
    }
  }
  {
    auto db2 = DB::Open(copy, Options()).value();
    db2->DropCaches();
    ASSERT_TRUE(db2->Health().quarantined_sq8_partitions.empty());
    Result<SearchResponse> resp = db2->Search(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_GT(resp->explain.partitions_quarantined, 0u);
    for (const ResultItem& item : resp->items) {
      auto it = truth_.find(item.asset_id);
      ASSERT_NE(it, truth_.end()) << "fabricated id " << item.asset_id;
      EXPECT_NEAR(item.distance,
                  Distance(Options().metric, req.query.data(),
                           it->second.data(), kDim),
                  1e-3f);
    }
    const HealthReport h = db2->Health();
    EXPECT_EQ(h.verdict, HealthVerdict::kDegradedServing);
    EXPECT_FALSE(h.quarantined_sq8_partitions.empty());
    EXPECT_GT(h.corruptions_detected, 0u);
    db2->Close().ok();  // best-effort: the copy is corrupt by design
  }

  // Scrub the original (its WAL still indexes the pristine frame),
  // then verify plans return to quantized with a clean EXPLAIN.
  Result<ScrubReport> scrub = db->Scrub();
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  EXPECT_GE(scrub->pages_repaired, 1u);
  EXPECT_TRUE(scrub->unrepairable.empty());
  db->DropCaches();
  {
    Result<SearchResponse> resp = db->Search(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->explain.partitions_quarantined, 0u);
    EXPECT_GT(resp->explain.partitions_quantized, 0u);
    const HealthReport h = db->Health();
    EXPECT_EQ(h.verdict, HealthVerdict::kHealthy);
    EXPECT_TRUE(h.quarantined_sq8_partitions.empty());
  }

  pager->EndSnapshot(snap);
  EXPECT_TRUE(db->Close().ok());
}

// ENOSPC: Health() reports read-only with the cause, and the
// BackgroundService alone (no write traffic) exits degraded mode once
// space returns, through the pager's rate-limited probe.
TEST_F(HealthTest, EnospcReadOnlyHealthAndMonitorAutoRecovery) {
  auto rig = std::make_shared<FaultRig>();
  DbOptions options = Options();
  options.pager.file_wrapper = MakeWrapper(rig);
  auto db = DB::Open(path_, options).value();
  LoadRows(db.get(), 64);

  rig->ArmEnospcEverywhere();
  {
    std::vector<UpsertRequest> one(1);
    one[0].asset_id = "spill";
    one[0].vector.assign(kDim, 0.5f);
    Status st = db->Upsert(one);
    EXPECT_FALSE(st.ok());
  }
  ASSERT_TRUE(db->engine()->pager()->degraded_state().read_only);
  {
    const HealthReport h = db->Health();
    EXPECT_EQ(h.verdict, HealthVerdict::kReadOnly);
    EXPECT_TRUE(h.read_only);
    EXPECT_FALSE(h.read_only_cause.empty());
    const std::string json = h.ToJson();
    EXPECT_NE(json.find("\"verdict\":\"read_only\""), std::string::npos)
        << json;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(db->Health().read_only_for_ms, 0u);

  // Reads keep serving while degraded.
  EXPECT_EQ(db->VectorCount().value(), 64u);

  // Start the monitor while the disk is still full: its first probe
  // fails and arms the backoff; freeing space lets a later probe clear
  // degraded mode with no write traffic at all.
  BackgroundService::Options mon;
  mon.interval = std::chrono::milliseconds(2);
  mon.delta_trigger = UINT64_MAX;  // healing only
  BackgroundService monitor(db.get(), mon);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  rig->FreeSpace();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (db->engine()->pager()->degraded_state().read_only &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(db->engine()->pager()->degraded_state().read_only);
  EXPECT_GE(monitor.enospc_recoveries(), 1u);
  EXPECT_EQ(db->Health().verdict, HealthVerdict::kHealthy);
  monitor.Stop();

  // Writes work again.
  std::vector<UpsertRequest> one(1);
  one[0].asset_id = "post";
  one[0].vector.assign(kDim, 0.25f);
  EXPECT_TRUE(db->Upsert(one).ok());
  EXPECT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace micronn
