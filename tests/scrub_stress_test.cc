// Scrub-under-traffic stress: inject repairable page corruption into a
// built database, then let the BackgroundService heal it to
// kHealthy — no explicit DB::Scrub() call — while writer and reader
// threads hammer the database. The acceptance bar:
//   - every acked commit is durable and searchable afterwards,
//   - every successful query verifies exactly against ground truth
//     (failures may only be explicit Corruption/IOError),
//   - the budgeted scrub never holds the writer slot longer than one
//     scrub_batch_pages batch (ScrubState::max_step_pages), and commits
//     land between batches while the pass is active.
// Run under ASan and TSan in CI; the test contains no raw shared state —
// ground truth is mutex-guarded, counters are atomics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/maintainer.h"
#include "ivf/schema.h"
#include "numerics/distance.h"
#include "query/stats.h"
#include "storage/engine.h"
#include "storage/key_encoding.h"
#include "support/fault_injection_file.h"

namespace micronn {
namespace {

class ScrubStressTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 8;
  static constexpr int kRows = 400;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_scrubstress_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
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

  static bool AcceptableFailure(const Status& st) {
    return st.IsCorruption() || st.IsIOError() || st.IsBusy();
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(ScrubStressTest, BackgroundHealerRepairsUnderConcurrentTraffic) {
  // Mutex-guarded ground truth. Writers insert BEFORE calling Upsert, so
  // anything a reader can ever observe is already present; entries for
  // commits that later fail are harmless (membership superset).
  std::mutex truth_mutex;
  std::map<std::string, std::vector<float>> truth;

  // File wrapper so the test can inject a *transient* read fault later
  // (the quarantine seed). Handles stay valid while the DB is open.
  auto rig = std::make_shared<std::map<std::string, FaultInjectionFile*>>();
  DbOptions options = Options();
  options.pager.file_wrapper = [rig](std::unique_ptr<FileHandle> base,
                                     std::string_view role) {
    auto f =
        std::make_unique<FaultInjectionFile>(std::move(base), FaultSchedule{});
    (*rig)[std::string(role)] = f.get();
    return std::unique_ptr<FileHandle>(std::move(f));
  };
  auto db = DB::Open(path_, options).value();
  {
    std::mt19937 rng(11);
    std::uniform_real_distribution<float> dist(-1.f, 1.f);
    std::vector<UpsertRequest> batch;
    for (int i = 0; i < kRows; ++i) {
      UpsertRequest req;
      req.asset_id = "a" + std::to_string(i);
      req.vector.resize(kDim);
      for (float& v : req.vector) v = dist(rng);
      truth[req.asset_id] = req.vector;
      batch.push_back(std::move(req));
      if (batch.size() == 64) {
        ASSERT_TRUE(db->Upsert(batch).ok());
        batch.clear();
      }
    }
    if (!batch.empty()) ASSERT_TRUE(db->Upsert(batch).ok());
  }
  Pager* pager = db->engine()->pager();

  // Repair window: a guard snapshot across BuildIndex keeps its final
  // checkpoint from resetting the WAL; re-pin at the built state, land a
  // raw engine commit (a DB::Upsert would rewrite the SQ8 tree and shadow
  // the pages we are about to corrupt), and fold. The index's frames stay
  // folded-but-indexed for the whole test, so every corrupted folded page
  // is repairable.
  const uint64_t guard = pager->BeginSnapshot();
  ASSERT_TRUE(db->BuildIndex().ok());
  const uint64_t snap = pager->BeginSnapshot();
  pager->EndSnapshot(guard);
  {
    auto txn = db->engine()->BeginWrite().value();
    BTree t = txn->OpenOrCreateTable("scratch").value();
    ASSERT_TRUE(t.Put(key::U64(1), "x").ok());
    ASSERT_TRUE(db->engine()->Commit(std::move(txn)).ok());
  }
  ASSERT_TRUE(db->engine()->Checkpoint().ok());
  ASSERT_GT(pager->wal_frame_count(), 0u);
  ASSERT_GT(pager->wal_backfill_watermark(), 0u);

  // Corrupt roots of tables the index rebuild wrote (frames still in the
  // WAL) but writer traffic never touches — Upsert rewrites the vectors /
  // SQ8 / meta trees, which would shadow the damage with newer frames and
  // turn the repair into a skip. Centroids, SQ8 params, and attribute
  // stats are only written by index builds, so they stay repairable.
  int corrupted = 0;
  {
    auto txn = db->engine()->BeginRead().value();
    for (const char* table :
         {kCentroidsTable, kSq8ParamsTable, kStatsTable}) {
      Result<TableInfo> info = txn->GetTableInfo(table);
      if (!info.ok() || info->root == kInvalidPage) continue;
      FlipByte(path_, static_cast<uint64_t>(info->root) * kPageSize + 777);
      ++corrupted;
    }
  }
  ASSERT_GE(corrupted, 2);
  db->DropCaches();

  // Seed a real SQ8 quarantine with a *transient* disk fault: reads are
  // WAL-first, so corrupt the next WAL read and search until the flip
  // lands on an SQ8 frame — the executor quarantines that partition and
  // falls back to float scans. The bytes on disk stay good (only the
  // read was corrupted), so the healer's re-verification pass can clear
  // the quarantine honestly. This is also what arms the monitor: the
  // on-disk damage above is latent (queries serve the pristine frames),
  // but the transient fault bumps the corruption counter and degrades
  // the verdict, and the scheduled pass then finds and repairs the
  // latent damage too.
  {
    std::mt19937 rng(99);
    std::uniform_real_distribution<float> dist(-1.f, 1.f);
    FaultInjectionFile* wal = (*rig)["wal"];
    ASSERT_NE(wal, nullptr);
    for (int attempt = 0; attempt < 500; ++attempt) {
      FaultSchedule s;
      // Stagger which read of the search sequence gets flipped so the
      // fault walks through centroid/vector/SQ8 reads across attempts.
      s.corrupt_read_at = wal->counters().reads + 1 + (attempt % 32);
      wal->set_schedule(s);
      SearchRequest req;
      req.query.resize(kDim);
      for (float& v : req.query) v = dist(rng);
      req.k = 10;
      req.nprobe = 4;
      (void)db->Search(req);  // may fail with Corruption: that is the point
      db->DropCaches();
      if (!db->Health().quarantined_sq8_partitions.empty()) break;
    }
    wal->set_schedule(FaultSchedule{});
    const HealthReport h = db->Health();
    ASSERT_FALSE(h.quarantined_sq8_partitions.empty());
    ASSERT_EQ(h.verdict, HealthVerdict::kDegradedServing) << h.ToJson();
    ASSERT_GT(h.corruptions_detected, 0u);
  }

  // The healer: tight poll interval and a small batch/budget so the pass
  // demonstrably spans many steps while traffic runs beside it. The
  // trigger is the observed corruption/quarantine above — no cold-start
  // pass, no explicit Scrub().
  BackgroundService::Options mon;
  mon.interval = std::chrono::milliseconds(5);
  mon.delta_trigger = UINT64_MAX;  // healing only
  mon.scrub_batch_pages = 8;
  mon.scrub_io_budget_bytes_per_sec = 2ull << 20;  // ~2 MiB/s
  BackgroundService monitor(db.get(), mon);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked_commits{0};
  std::atomic<uint64_t> commits_during_scrub{0};
  std::atomic<uint64_t> queries_ok{0};
  std::atomic<uint64_t> queries_degraded{0};

  // 2 writers: small unique batches; truth inserted before the Upsert.
  // Acked ids are collected per-thread for the durability spot check.
  std::vector<std::vector<std::string>> acked(2);
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937 rng(1000 + w);
      std::uniform_real_distribution<float> dist(-1.f, 1.f);
      // Hold the first upsert until a pass is observed active, so commits
      // land mid-pass however the threads are scheduled: the I/O budget
      // spreads the pass over many throttled steps, and once the verdict
      // is healthy the service starts no second pass to commit into.
      bool scrub_was_active = false;
      while (!stop.load(std::memory_order_relaxed) &&
             !(scrub_was_active = pager->scrub_state().active)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (int n = 0; !stop.load(std::memory_order_relaxed); ++n) {
        std::vector<UpsertRequest> batch(3);
        for (int j = 0; j < 3; ++j) {
          batch[j].asset_id =
              "w" + std::to_string(w) + "_" + std::to_string(n * 3 + j);
          batch[j].vector.resize(kDim);
          for (float& v : batch[j].vector) v = dist(rng);
        }
        {
          std::lock_guard<std::mutex> lock(truth_mutex);
          for (const UpsertRequest& r : batch) truth[r.asset_id] = r.vector;
        }
        if (n > 0) scrub_was_active = pager->scrub_state().active;
        Status st = db->Upsert(batch);
        if (st.ok()) {
          acked_commits.fetch_add(1, std::memory_order_relaxed);
          for (const UpsertRequest& r : batch) {
            acked[w].push_back(r.asset_id);
          }
          if (scrub_was_active) {
            commits_during_scrub.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          EXPECT_TRUE(AcceptableFailure(st)) << st.ToString();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  // 2 readers: every successful response verifies exactly against ground
  // truth; failures must be explicit integrity errors.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937 rng(2000 + r);
      std::uniform_real_distribution<float> dist(-1.f, 1.f);
      while (!stop.load(std::memory_order_relaxed)) {
        SearchRequest req;
        req.query.resize(kDim);
        for (float& v : req.query) v = dist(rng);
        req.k = 10;
        req.nprobe = 4;
        Result<SearchResponse> resp = db->Search(req);
        if (!resp.ok()) {
          EXPECT_TRUE(AcceptableFailure(resp.status()))
              << resp.status().ToString();
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(truth_mutex);
          for (const ResultItem& item : resp->items) {
            auto it = truth.find(item.asset_id);
            ASSERT_NE(it, truth.end())
                << "fabricated asset id " << item.asset_id;
            const float want = Distance(Metric::kL2, req.query.data(),
                                        it->second.data(), kDim);
            EXPECT_NEAR(item.distance, want, 1e-3f)
                << "wrong distance for " << item.asset_id;
          }
        }
        queries_ok.fetch_add(1, std::memory_order_relaxed);
        if (resp->explain.partitions_quarantined > 0) {
          queries_degraded.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  // Wait for the healer to finish a pass and the verdict to settle at
  // healthy — the whole point: no explicit DB::Scrub() anywhere here.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    if (monitor.passes_completed() >= 1 &&
        db->Health().verdict == HealthVerdict::kHealthy) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  monitor.Stop();

  // Healed, by the background healer alone.
  EXPECT_GE(monitor.passes_completed(), 1u);
  const HealthReport h = db->Health();
  EXPECT_EQ(h.verdict, HealthVerdict::kHealthy) << h.ToJson();
  EXPECT_TRUE(h.quarantined_sq8_partitions.empty());
  const ScrubState s = pager->scrub_state();
  EXPECT_GE(s.last_report.corruptions_found, 1u);
  EXPECT_GE(s.last_report.pages_repaired, 1u);
  EXPECT_TRUE(s.last_report.unrepairable.empty());

  // Concurrency assertions: the budgeted scrub was genuinely incremental
  // (many bounded steps) and commits landed while a pass was active.
  EXPECT_LE(s.max_step_pages, mon.scrub_batch_pages);
  EXPECT_GE(monitor.scrub_steps(), 2u);
  EXPECT_GE(acked_commits.load(), 1u);
  EXPECT_GE(commits_during_scrub.load(), 1u);
  EXPECT_GE(queries_ok.load(), 1u);

  // Post-heal: quantized plans with a clean EXPLAIN.
  db->DropCaches();
  {
    SearchRequest req;
    req.query.assign(kDim, 0.1f);
    req.k = 10;
    req.nprobe = 4;
    Result<SearchResponse> resp = db->Search(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->explain.partitions_quarantined, 0u);
    EXPECT_GT(resp->explain.partitions_quantized, 0u);
  }

  // Durability spot check: acked commits are searchable with exact
  // distance 0 (vectors are unique with overwhelming probability).
  std::vector<std::string> sample;
  for (const auto& ids : acked) {
    for (size_t i = 0; i < ids.size(); i += std::max<size_t>(1, ids.size() / 10)) {
      sample.push_back(ids[i]);
    }
  }
  ASSERT_FALSE(sample.empty());
  for (const std::string& id : sample) {
    std::vector<float> vec;
    {
      std::lock_guard<std::mutex> lock(truth_mutex);
      vec = truth[id];
    }
    SearchRequest req;
    req.query = vec;
    req.k = 1;
    req.exact = true;
    Result<SearchResponse> resp = db->Search(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->items.size(), 1u) << id;
    EXPECT_EQ(resp->items[0].asset_id, id);
    EXPECT_NEAR(resp->items[0].distance, 0.f, 1e-4f);
  }

  pager->EndSnapshot(snap);
  EXPECT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace micronn
