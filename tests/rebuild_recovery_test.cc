// Crash-point sweep over the multi-commit index lifecycle. BuildIndex and
// Maintain each span many commits (staging chunks, SQ8 staging, the swap,
// chunked cleanup, the delta-flush chunks). A dry run counts the WAL
// writes of one operation; then, for a seeded sample of write indices k,
// the operation runs on a fresh copy of the same database with the k-th
// WAL write failing (FaultInjectionFile through PagerOptions::file_wrapper),
// which interrupts the lifecycle at exactly that commit. The database is
// closed and reopened without faults, so DB::Open's repair runs. After it:
// no staging ("#new") or retired ("#old") table is left, the rebuild flags
// are clear, the collection matches an in-memory oracle row for row
// (count and exact top-k), the SQ8 sidecar invariant holds row for row
// (codes, and every row's reconstruction error within its partition's
// stored max_error), and a following BuildIndex and Maintain work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/db.h"
#include "datagen/dataset.h"
#include "ivf/schema.h"
#include "numerics/distance.h"
#include "storage/engine.h"
#include "support/fault_injection_file.h"
#include "support/sq8_sidecar_check.h"

namespace micronn {
namespace {

constexpr uint32_t kDim = 8;
constexpr size_t kRows = 3000;
constexpr size_t kQueries = 4;
constexpr uint32_t kTopK = 10;
constexpr int kCrashPoints = 20;  // per operation

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Which lifecycle leftovers a catalog holds.
struct Leftovers {
  bool staging = false;
  bool retired = false;
};

Leftovers ListLeftovers(StorageEngine* engine) {
  Leftovers found;
  auto txn = engine->BeginRead().value();
  const std::vector<std::string> names = txn->ListTables().value();
  for (const std::string& name : names) {
    found.staging |= EndsWith(name, "#new");
    found.retired |= EndsWith(name, "#old");
  }
  return found;
}

class RebuildRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_rebuildrec_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    ds_ = GenerateDataset({"r", kDim, Metric::kL2, kRows, kQueries, 16,
                           0.2f, 19});
    options_.dim = kDim;
    options_.target_cluster_size = 50;
    // Small chunks: every phase spans many commits.
    options_.rebuild_chunk_rows = 64;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name / "db").string();
  }

  // Upserts assets a<first>..a<first+count-1>, mirrored into the oracle.
  // Asset i gets dataset row i + `offset`, moved by `offset` / 100 in every
  // dimension so that batches with different offsets never tie.
  void Put(DB* db, size_t first, size_t count, size_t offset) {
    std::vector<UpsertRequest> batch;
    for (size_t i = first; i < first + count; ++i) {
      UpsertRequest req;
      req.asset_id = "a" + std::to_string(i);
      const float* v = ds_.row((i + offset) % kRows);
      for (uint32_t d = 0; d < kDim; ++d) {
        req.vector.push_back(v[d] + 0.01f * static_cast<float>(offset));
      }
      oracle_[req.asset_id] = req.vector;
      batch.push_back(std::move(req));
    }
    ASSERT_TRUE(db->Upsert(batch).ok());
  }

  void Remove(DB* db, size_t first, size_t count) {
    std::vector<std::string> ids;
    for (size_t i = first; i < first + count; ++i) {
      ids.push_back("a" + std::to_string(i));
      oracle_.erase(ids.back());
    }
    ASSERT_TRUE(db->Delete(ids).ok());
  }

  // A built index over kRows rows. With `pending_delta`, a further batch
  // of inserts, replacements and deletes waits in the delta store, enough
  // for a delta flush of many chunks.
  void MakeTemplate(bool pending_delta) {
    std::filesystem::create_directories(dir_ / "template");
    auto db = DB::Open(Path("template"), options_).value();
    for (size_t i = 0; i < kRows; i += 500) Put(db.get(), i, 500, 0);
    ASSERT_TRUE(db->BuildIndex().ok());
    if (pending_delta) {
      Put(db.get(), kRows, 600, 7);  // new assets
      Put(db.get(), 0, 200, 11);     // replacements move rows to the delta
      Remove(db.get(), 200, 100);    // deletes shrink partitions
    }
    ASSERT_TRUE(db->Close().ok());
  }

  // A fresh copy of the template's files under `name`.
  std::string CopyTemplate(const std::string& name) {
    std::filesystem::remove_all(dir_ / name);
    std::filesystem::copy(dir_ / "template", dir_ / name);
    return Path(name);
  }

  // Opens `path` with the WAL handle wrapped; `*wal` is set to it.
  std::unique_ptr<DB> OpenWrapped(const std::string& path,
                                  FaultInjectionFile** wal) {
    DbOptions options = options_;
    options.pager.file_wrapper = [wal](std::unique_ptr<FileHandle> base,
                                       std::string_view role)
        -> std::unique_ptr<FileHandle> {
      if (role != "wal") return base;
      auto f = std::make_unique<FaultInjectionFile>(std::move(base),
                                                    FaultSchedule{});
      *wal = f.get();
      return f;
    };
    auto db = DB::Open(path, options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(db).value() : nullptr;
  }

  struct DryRun {
    uint64_t wal_writes = 0;
    uint64_t commits = 0;
  };

  template <typename Op>
  DryRun CountOperation(Op op) {
    const std::string path = CopyTemplate("dry");
    FaultInjectionFile* wal = nullptr;
    auto db = OpenWrapped(path, &wal);
    DryRun dry;
    if (db == nullptr || wal == nullptr) return dry;
    const uint64_t writes_before = wal->counters().writes;
    const IoStats::View before = db->io_stats_snapshot();
    EXPECT_TRUE(op(db.get()).ok());
    dry.wal_writes = wal->counters().writes - writes_before;
    dry.commits = (db->io_stats_snapshot() - before).commits;
    EXPECT_TRUE(db->Close().ok());
    return dry;
  }

  // Reopens `path` without faults and checks the repaired database.
  void CheckRepaired(const std::string& path, uint64_t k) {
    SCOPED_TRACE("crash at WAL write " + std::to_string(k));
    auto db_or = DB::Open(path, options_);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    std::unique_ptr<DB> db = std::move(db_or).value();

    const Leftovers left = ListLeftovers(db->engine());
    EXPECT_FALSE(left.staging);
    EXPECT_FALSE(left.retired);
    {
      auto txn = db->engine()->BeginRead().value();
      BTree meta = txn->OpenTable(kMetaTable).value();
      EXPECT_EQ(MetaGetU64(&meta, kMetaRebuildInProgress, 0).value(), 0u);
      EXPECT_EQ(MetaGetU64(&meta, kMetaCleanupPending, 0).value(), 0u);
    }
    EXPECT_EQ(db->VectorCount().value(), oracle_.size());
    for (size_t q = 0; q < kQueries; ++q) ExpectExactTopK(db.get(), q);
    VerifySidecar(db.get());

    ASSERT_TRUE(db->BuildIndex().ok());
    EXPECT_EQ(db->VectorCount().value(), oracle_.size());
    Put(db.get(), kRows + 1000, 100, 3);
    auto report = db->Maintain();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(db->VectorCount().value(), oracle_.size());
    ExpectExactTopK(db.get(), 0);
    ASSERT_TRUE(db->Close().ok());
  }

  void ExpectExactTopK(DB* db, size_t q) {
    const float* query = ds_.query(q);
    std::vector<std::pair<float, std::string>> expected;
    for (const auto& [id, vec] : oracle_) {
      expected.emplace_back(L2Squared(query, vec.data(), kDim), id);
    }
    std::partial_sort(expected.begin(), expected.begin() + kTopK,
                      expected.end());
    SearchRequest req;
    req.query.assign(query, query + kDim);
    req.k = kTopK;
    req.exact = true;
    req.quantized = false;
    auto res = db->Search(req);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_EQ(res->items.size(), kTopK);
    for (uint32_t i = 0; i < kTopK; ++i) {
      EXPECT_EQ(res->items[i].asset_id, expected[i].second) << "rank " << i;
      EXPECT_NEAR(res->items[i].distance, expected[i].first, 1e-4f);
    }
  }

  // The sweep: one seeded crash point per stratum of the dry run's WAL
  // writes, so every phase of the operation gets sampled, plus the first
  // write and the last four (the short tail of single commits: cleanup
  // flag, statistics, checkpoint).
  template <typename Op>
  std::vector<Leftovers> Sweep(const char* what, Op op) {
    const DryRun dry = CountOperation(op);
    std::cout << what << ": " << dry.commits << " commits, "
              << dry.wal_writes << " WAL writes\n";
    EXPECT_GT(dry.commits, 8u) << "fixture too small to span many commits";
    std::vector<Leftovers> seen;
    if (dry.wal_writes == 0) return seen;
    std::vector<uint64_t> points = {1};
    for (uint64_t k = dry.wal_writes; k > 0 && k + 4 > dry.wal_writes; --k) {
      points.push_back(k);
    }
    Rng rng(0x5eed);
    const uint64_t strata = std::min<uint64_t>(kCrashPoints, dry.wal_writes);
    for (uint64_t s = 0; s < strata; ++s) {
      const uint64_t lo = 1 + s * dry.wal_writes / strata;
      const uint64_t hi = (s + 1) * dry.wal_writes / strata;
      points.push_back(lo + rng.Uniform(hi - lo + 1));
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
    const std::map<std::string, std::vector<float>> base = oracle_;
    for (const uint64_t k : points) {
      const std::string path = CopyTemplate("crash");
      {
        FaultInjectionFile* wal = nullptr;
        auto db = OpenWrapped(path, &wal);
        if (db == nullptr || wal == nullptr) return seen;
        FaultSchedule fault;
        fault.fail_write_at = wal->counters().writes + k;
        wal->set_schedule(fault);
        EXPECT_FALSE(op(db.get()).ok()) << "WAL write " << k << " of "
                                        << dry.wal_writes << " did not fail";
        db->Close().ok();  // the interrupted operation's db; best effort
      }
      {
        auto engine = StorageEngine::Open(path).value();
        seen.push_back(ListLeftovers(engine.get()));
      }
      oracle_ = base;  // drop the previous point's follow-up writes
      CheckRepaired(path, k);
    }
    return seen;
  }

  std::filesystem::path dir_;
  Dataset ds_;
  DbOptions options_;
  std::map<std::string, std::vector<float>> oracle_;
};

TEST_F(RebuildRecoveryTest, BuildIndexCrashPointsRecover) {
  MakeTemplate(/*pending_delta=*/false);
  const std::vector<Leftovers> seen =
      Sweep("BuildIndex", [](DB* db) { return db->BuildIndex(); });
  // Both repair branches are reached: interrupted staging and
  // interrupted cleanup of the retired generation.
  EXPECT_TRUE(std::any_of(seen.begin(), seen.end(),
                          [](const Leftovers& l) { return l.staging; }));
  EXPECT_TRUE(std::any_of(seen.begin(), seen.end(),
                          [](const Leftovers& l) { return l.retired; }));
}

TEST_F(RebuildRecoveryTest, MaintainCrashPointsRecover) {
  MakeTemplate(/*pending_delta=*/true);
  Sweep("Maintain", [](DB* db) { return db->Maintain().status(); });
}

}  // namespace
}  // namespace micronn
