// Randomized corruption sweep: flip seeded random bytes in the database
// file (and its checksum sidecar), reopen, and run the query mix. The
// contract under arbitrary single-byte corruption is absolute — every
// response is either verifiably CORRECT against in-memory ground truth,
// or an explicit Corruption error, or a smaller-but-correct result set
// with the quarantine flagged in EXPLAIN. A silently wrong row (bogus
// asset id, wrong distance, row violating the filter) fails the sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/maintainer.h"
#include "numerics/distance.h"

namespace micronn {
namespace {

struct GroundTruth {
  std::map<std::string, std::vector<float>> vectors;
  std::map<std::string, int64_t> years;
};

// Trial count of the randomized sweeps. MICRONN_SWEEP_TRIALS overrides
// the default 12 — CI's nightly/soak legs crank it up without a rebuild.
int SweepTrials() {
  const char* env = std::getenv("MICRONN_SWEEP_TRIALS");
  if (env == nullptr || *env == '\0') return 12;
  const int n = std::atoi(env);
  return n > 0 ? n : 12;
}

class CorruptionSweepTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 8;
  static constexpr int kRows = 300;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_sweep_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "db").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DbOptions Options() const {
    DbOptions options;
    options.dim = kDim;
    options.target_cluster_size = 32;  // several partitions at kRows
    return options;
  }

  // Builds the pristine database (clustered index + a delta-store tail)
  // and records ground truth, then closes it and snapshots its files.
  void BuildPristine() {
    std::mt19937 rng(7);
    std::uniform_real_distribution<float> dist(-1.f, 1.f);
    auto db = DB::Open(path_, Options()).value();
    std::vector<UpsertRequest> batch;
    for (int i = 0; i < kRows; ++i) {
      UpsertRequest req;
      req.asset_id = "a" + std::to_string(i);
      req.vector.resize(kDim);
      for (float& v : req.vector) v = dist(rng);
      const int64_t year = 2015 + (i % 12);
      req.attributes["year"] = AttributeValue::Int(year);
      truth_.vectors[req.asset_id] = req.vector;
      truth_.years[req.asset_id] = year;
      batch.push_back(std::move(req));
      if (batch.size() == 64) {
        ASSERT_TRUE(db->Upsert(batch).ok());
        batch.clear();
      }
    }
    if (!batch.empty()) ASSERT_TRUE(db->Upsert(batch).ok());
    ASSERT_TRUE(db->BuildIndex().ok());
    ASSERT_TRUE(db->AnalyzeStats().ok());
    // A delta-store tail so the sweep also covers the unclustered path.
    batch.clear();
    for (int i = kRows; i < kRows + 20; ++i) {
      UpsertRequest req;
      req.asset_id = "a" + std::to_string(i);
      req.vector.resize(kDim);
      for (float& v : req.vector) v = dist(rng);
      req.attributes["year"] = AttributeValue::Int(2026);
      truth_.vectors[req.asset_id] = req.vector;
      truth_.years[req.asset_id] = 2026;
      batch.push_back(std::move(req));
    }
    ASSERT_TRUE(db->Upsert(batch).ok());
    ASSERT_TRUE(db->Close().ok());

    for (const char* suffix : {"", "-sum", "-wal"}) {
      const std::string f = path_ + suffix;
      if (std::filesystem::exists(f)) {
        std::filesystem::copy_file(f, f + ".orig");
        pristine_.push_back(f);
      }
    }
  }

  void RestorePristine() {
    for (const std::string& f : pristine_) {
      std::filesystem::copy_file(f + ".orig", f,
                                 std::filesystem::copy_options::overwrite_existing);
    }
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

  // A failure is acceptable only if it is an explicit integrity error —
  // never a crash, never a silent success with wrong data.
  static bool AcceptableFailure(const Status& st) {
    return st.IsCorruption() || st.IsIOError();
  }

  // Every returned row must be genuine: a known asset whose exact
  // distance to the query matches ground truth. `min_year` > 0 also
  // checks the filter predicate against the true attribute value.
  void VerifyItems(const std::vector<float>& query,
                   const std::vector<ResultItem>& items, int64_t min_year,
                   const char* what) {
    for (const ResultItem& item : items) {
      auto it = truth_.vectors.find(item.asset_id);
      ASSERT_NE(it, truth_.vectors.end())
          << what << ": fabricated asset id " << item.asset_id;
      const float want =
          Distance(Options().metric, query.data(), it->second.data(), kDim);
      EXPECT_NEAR(item.distance, want, 1e-3f)
          << what << ": wrong distance for " << item.asset_id;
      if (min_year > 0) {
        EXPECT_GE(truth_.years[item.asset_id], min_year)
            << what << ": row violates filter: " << item.asset_id;
      }
    }
  }

  // Runs the query mix. Each query either verifies or fails acceptably.
  // Returns the number of queries that surfaced Corruption.
  int RunQueryMix(DB* db, std::mt19937& rng) {
    std::uniform_real_distribution<float> dist(-1.f, 1.f);
    int corruptions = 0;
    for (int q = 0; q < 6; ++q) {
      std::vector<float> query(kDim);
      for (float& v : query) v = dist(rng);

      SearchRequest req;
      req.query = query;
      req.k = 10;
      req.nprobe = 4;
      if (q % 3 == 1) {
        req.filter = Predicate::Compare("year", CompareOp::kGe,
                                        AttributeValue::Int(2020));
      } else if (q % 3 == 2) {
        req.exact = true;
        req.k = 5;
      }
      Result<SearchResponse> resp = db->Search(req);
      if (!resp.ok()) {
        EXPECT_TRUE(AcceptableFailure(resp.status()))
            << "query " << q << ": " << resp.status().ToString();
        ++corruptions;
        continue;
      }
      const int64_t min_year = (q % 3 == 1) ? 2020 : 0;
      VerifyItems(query, resp->items, min_year, "query");
      if (resp->explain.partitions_quarantined > 0 ||
          resp->explain.rows_quarantined > 0) {
        ++corruptions;  // served degraded, flagged in EXPLAIN
      }
    }
    return corruptions;
  }

  std::filesystem::path dir_;
  std::string path_;
  GroundTruth truth_;
  std::vector<std::string> pristine_;
};

TEST_F(CorruptionSweepTest, RandomByteFlipsNeverProduceWrongRows) {
  BuildPristine();
  const uint64_t db_size = std::filesystem::file_size(path_);
  ASSERT_GT(db_size, 0u);

  std::mt19937 rng(20260808);
  int detected_trials = 0;
  const int kTrials = SweepTrials();
  const int kSidecarTrials = std::max(2, kTrials / 6);
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    RestorePristine();

    // Most trials corrupt the database file; the last few corrupt the
    // checksum sidecar (a bad checksum over a good page must read as
    // Corruption, and Scrub must not "repair" the good page into
    // garbage).
    std::string victim = path_;
    uint64_t limit = db_size;
    if (trial >= kTrials - kSidecarTrials &&
        std::filesystem::exists(path_ + "-sum")) {
      victim = path_ + "-sum";
      limit = std::filesystem::file_size(victim);
    }
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < flips; ++f) {
      FlipByte(victim, rng() % limit);
    }

    Result<std::unique_ptr<DB>> open = DB::Open(path_, Options());
    if (!open.ok()) {
      EXPECT_TRUE(AcceptableFailure(open.status()))
          << open.status().ToString();
      ++detected_trials;
      continue;
    }
    DB* db = open->get();
    db->DropCaches();  // force every page through the (corrupted) disk

    int corruptions = RunQueryMix(db, rng);

    // Scrub is always safe to run and must never fabricate data: after
    // it, the query mix still holds the same correct-or-Corruption bar.
    Result<ScrubReport> scrub = db->Scrub();
    if (scrub.ok()) {
      corruptions += static_cast<int>(scrub->corruptions_found);
      corruptions += RunQueryMix(db, rng);
    } else {
      EXPECT_TRUE(AcceptableFailure(scrub.status()))
          << scrub.status().ToString();
      ++corruptions;
    }
    corruptions += static_cast<int>(
        db->io_stats().corruptions_detected.load(std::memory_order_relaxed));
    if (corruptions > 0) ++detected_trials;
    db->Close().ok();  // best-effort: the store may be corrupt
  }

  // The sweep is only meaningful if the flips actually bit somewhere.
  EXPECT_GE(detected_trials, kTrials / 2)
      << "corruption went undetected in most trials — checksum coverage "
         "has a hole";

  // And the pristine copy still serves everything correctly.
  RestorePristine();
  auto db = DB::Open(path_, Options()).value();
  std::mt19937 verify_rng(1);
  EXPECT_EQ(RunQueryMix(db.get(), verify_rng), 0);
  EXPECT_TRUE(db->Close().ok());
}

// Short soak with the background healer running: random flips, then the
// query mix runs while a BackgroundService scrubs behind it. The bar is the
// same — correct-or-explicit-Corruption, never silently wrong — plus the
// healer must actually complete passes whenever corruption was observed.
// CI's Release leg runs this with MICRONN_SWEEP_TRIALS raised.
TEST_F(CorruptionSweepTest, BackgroundHealerSoakNeverProducesWrongRows) {
  BuildPristine();
  const uint64_t db_size = std::filesystem::file_size(path_);
  ASSERT_GT(db_size, 0u);

  std::mt19937 rng(20260809);
  const int kTrials = std::max(3, SweepTrials() / 3);
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("soak trial " + std::to_string(trial));
    RestorePristine();
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < flips; ++f) {
      FlipByte(path_, rng() % db_size);
    }

    Result<std::unique_ptr<DB>> open = DB::Open(path_, Options());
    if (!open.ok()) {
      EXPECT_TRUE(AcceptableFailure(open.status()))
          << open.status().ToString();
      continue;
    }
    DB* db = open->get();
    db->DropCaches();

    BackgroundService::Options mon;
    mon.interval = std::chrono::milliseconds(3);
    mon.delta_trigger = UINT64_MAX;  // healing only
    mon.scrub_batch_pages = 32;
    mon.scrub_io_budget_bytes_per_sec = 0;  // unthrottled: keep CI short
    // Cold-start coverage: this database was just reopened over damaged
    // files, exactly the case where queries may never touch the bad page
    // but a scheduled verification pass finds it.
    mon.scrub_verify_on_start = true;
    BackgroundService monitor(db, mon);

    // Traffic while the healer works. Each mix holds the usual bar.
    bool observed = false;
    for (int round = 0; round < 4; ++round) {
      observed = RunQueryMix(db, rng) > 0 || observed;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    observed = observed || db->Health().corruptions_detected > 0;

    if (observed) {
      // The healer saw it too: wait for a completed pass, then the mix
      // must still be correct (possibly Corruption where the damage was
      // unrepairable, but never wrong rows).
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (monitor.passes_completed() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        monitor.TriggerNow();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      EXPECT_GE(monitor.passes_completed(), 1u);
    }
    RunQueryMix(db, rng);
    monitor.Stop();
    db->Close().ok();  // best-effort: the store may be corrupt
  }
}

}  // namespace
}  // namespace micronn
