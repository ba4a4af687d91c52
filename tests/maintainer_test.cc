// Tests for the background service loop (Figure 1's Index Monitor plus
// the self-healing scrub and ENOSPC re-probe).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "core/maintainer.h"
#include "datagen/dataset.h"
#include "support/fault_injection_file.h"

namespace micronn {
namespace {

class MaintainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_maint_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    ds_ = GenerateDataset({"m", 8, Metric::kL2, 3000, 8, 16, 0.2f, 88});
    DbOptions options;
    options.dim = 8;
    options.target_cluster_size = 50;
    db_ = DB::Open(dir_ / "db.mnn", options).value();
    std::vector<UpsertRequest> batch;
    for (size_t i = 0; i < ds_.spec.n; ++i) {
      UpsertRequest req;
      req.asset_id = "a" + std::to_string(i);
      req.vector.assign(ds_.row(i), ds_.row(i) + 8);
      batch.push_back(std::move(req));
    }
    EXPECT_TRUE(db_->Upsert(batch).ok());
    EXPECT_TRUE(db_->BuildIndex().ok());
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  Dataset ds_;
  std::unique_ptr<DB> db_;
};

TEST_F(MaintainerTest, FlushesDeltaWhenTriggerReached) {
  BackgroundService::Options options;
  options.interval = std::chrono::milliseconds(20);
  options.delta_trigger = 100;
  BackgroundService maintainer(db_.get(), options);
  // Below the trigger: nothing should happen.
  std::vector<UpsertRequest> batch;
  for (int i = 0; i < 50; ++i) {
    UpsertRequest req;
    req.asset_id = "n" + std::to_string(i);
    req.vector.assign(ds_.row(i), ds_.row(i) + 8);
    batch.push_back(std::move(req));
  }
  ASSERT_TRUE(db_->Upsert(batch).ok());
  maintainer.TriggerNow();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(maintainer.maintenance_runs(), 0u);
  EXPECT_EQ(db_->GetIndexStats().value().delta_count, 50u);
  // Cross the trigger: the maintainer flushes within a few intervals.
  batch.clear();
  for (int i = 50; i < 150; ++i) {
    UpsertRequest req;
    req.asset_id = "n" + std::to_string(i);
    req.vector.assign(ds_.row(i), ds_.row(i) + 8);
    batch.push_back(std::move(req));
  }
  ASSERT_TRUE(db_->Upsert(batch).ok());
  maintainer.TriggerNow();
  for (int spin = 0; spin < 100 && maintainer.maintenance_runs() == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(maintainer.maintenance_runs(), 1u);
  EXPECT_GE(maintainer.total_flushed(), 150u);
  EXPECT_EQ(db_->GetIndexStats().value().delta_count, 0u);
  maintainer.Stop();
}

TEST_F(MaintainerTest, SearchesStayCorrectWhileMaintainerRuns) {
  BackgroundService::Options options;
  options.interval = std::chrono::milliseconds(5);
  options.delta_trigger = 20;
  BackgroundService maintainer(db_.get(), options);
  // Stream upserts while searching; the maintainer flushes concurrently.
  for (int round = 0; round < 20; ++round) {
    std::vector<UpsertRequest> batch;
    for (int i = 0; i < 25; ++i) {
      UpsertRequest req;
      req.asset_id = "live" + std::to_string(round * 25 + i);
      req.vector.assign(ds_.row((round * 25 + i) % ds_.spec.n),
                        ds_.row((round * 25 + i) % ds_.spec.n) + 8);
      batch.push_back(std::move(req));
    }
    ASSERT_TRUE(db_->Upsert(batch).ok());
    SearchRequest req;
    req.query.assign(ds_.query(round % 8), ds_.query(round % 8) + 8);
    req.k = 5;
    auto resp = db_->Search(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->items.size(), 5u);
  }
  maintainer.Stop();
  // Everything the maintainer flushed must still be findable.
  SearchRequest req;
  req.query.assign(ds_.row(0), ds_.row(0) + 8);
  req.k = 1;
  req.nprobe = 8;
  EXPECT_FLOAT_EQ(db_->Search(req).value().items[0].distance, 0.f);
}

TEST_F(MaintainerTest, StopIsIdempotentAndFast) {
  BackgroundService::Options options;
  options.interval = std::chrono::hours(1);  // would never wake on its own
  BackgroundService maintainer(db_.get(), options);
  maintainer.Stop();
  maintainer.Stop();  // second stop is a no-op
}

// Upserts rows "extra0".."extra<n-1>" (copies of the dataset's first rows).
void UpsertExtra(DB* db, const Dataset& ds, int n) {
  std::vector<UpsertRequest> batch;
  for (int i = 0; i < n; ++i) {
    UpsertRequest req;
    req.asset_id = "extra" + std::to_string(i);
    req.vector.assign(ds.row(i), ds.row(i) + 8);
    batch.push_back(std::move(req));
  }
  ASSERT_TRUE(db->Upsert(batch).ok());
}

// Polls `done` every 5 ms for up to 10 s.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

TEST_F(MaintainerTest, OneLoopFlushesDeltaAndCompletesStartupScrub) {
  UpsertExtra(db_.get(), ds_, 150);
  BackgroundService::Options options;
  options.interval = std::chrono::milliseconds(10);
  options.delta_trigger = 100;
  options.scrub_io_budget_bytes_per_sec = 0;
  options.scrub_verify_on_start = true;
  BackgroundService service(db_.get(), options);
  EXPECT_TRUE(WaitFor([&] {
    return service.maintenance_runs() >= 1 && service.passes_completed() >= 1;
  }));
  service.Stop();
  EXPECT_GE(service.total_flushed(), 150u);
  EXPECT_GE(service.scrub_steps(), 1u);
  EXPECT_EQ(db_->GetIndexStats().value().delta_count, 0u);
  EXPECT_EQ(db_->Health().verdict, HealthVerdict::kHealthy);
}

TEST_F(MaintainerTest, ReadOnlyStoreIsProbedNotMaintained) {
  // Reopen the fixture's database with every file behind a fault
  // injector so the disk can be filled and freed mid-run.
  db_.reset();
  auto files = std::make_shared<std::vector<FaultInjectionFile*>>();
  DbOptions db_options;
  db_options.dim = 8;
  db_options.target_cluster_size = 50;
  db_options.pager.file_wrapper = [files](std::unique_ptr<FileHandle> base,
                                          std::string_view) {
    auto f = std::make_unique<FaultInjectionFile>(std::move(base),
                                                 FaultSchedule{});
    files->push_back(f.get());
    return std::unique_ptr<FileHandle>(std::move(f));
  };
  db_ = DB::Open(dir_ / "db.mnn", db_options).value();
  UpsertExtra(db_.get(), ds_, 150);

  FaultSchedule full;
  full.enospc_after = 1;
  for (FaultInjectionFile* f : *files) f->set_schedule(full);
  std::vector<UpsertRequest> spill(1);
  spill[0].asset_id = "spill";
  spill[0].vector.assign(8, 0.5f);
  EXPECT_FALSE(db_->Upsert(spill).ok());
  ASSERT_TRUE(db_->Health().read_only);

  const IoStats::View before = db_->io_stats_snapshot();
  BackgroundService::Options options;
  options.interval = std::chrono::milliseconds(2);
  options.delta_trigger = 100;  // already due: 150 rows wait in the delta
  BackgroundService service(db_.get(), options);
  EXPECT_TRUE(WaitFor([&] {
    return db_->io_stats_snapshot().enospc_probes > before.enospc_probes;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const IoStats::View read_only = db_->io_stats_snapshot() - before;
  EXPECT_TRUE(db_->Health().read_only);
  EXPECT_EQ(service.maintenance_runs(), 0u);
  // Neither the maintenance check nor Maintain ran: no page was read.
  EXPECT_EQ(read_only.pages_cache_hit + read_only.CacheMisses(), 0u);
  EXPECT_EQ(db_->GetIndexStats().value().delta_count, 150u);

  for (FaultInjectionFile* f : *files) f->set_schedule(FaultSchedule{});
  EXPECT_TRUE(WaitFor([&] { return service.maintenance_runs() >= 1; }));
  EXPECT_GE(service.enospc_recoveries(), 1u);
  service.Stop();
  EXPECT_EQ(db_->GetIndexStats().value().delta_count, 0u);
}

TEST_F(MaintainerTest, StopInterruptsThrottledScrub) {
  BackgroundService::Options options;
  options.interval = std::chrono::milliseconds(1);
  options.scrub_batch_pages = 1;
  options.scrub_io_budget_bytes_per_sec = 1;  // one page every ~68 min
  options.scrub_verify_on_start = true;
  BackgroundService service(db_.get(), options);
  // The pass is wanted from the first tick, and the empty bucket holds
  // it on the budget wait before its first batch.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(service.scrub_steps(), 0u);
  const auto start = std::chrono::steady_clock::now();
  service.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(300));
  EXPECT_EQ(service.passes_completed(), 0u);
}

}  // namespace
}  // namespace micronn
