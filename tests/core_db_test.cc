// End-to-end tests of the public DB API: lifecycle, recall, updates,
// hybrid search, batch MQO, maintenance, persistence, concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <limits>
#include <map>
#include <numeric>
#include <thread>

#include "core/db.h"
#include "datagen/dataset.h"
#include "ivf/search.h"
#include "numerics/distance.h"
#include "support/explain_invariants.h"

namespace micronn {
namespace {

class DbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_db_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = dir_ / "test.mnn";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DbOptions SmallOptions(uint32_t dim, Metric metric = Metric::kL2) {
    DbOptions options;
    options.dim = dim;
    options.metric = metric;
    options.target_cluster_size = 50;
    options.minibatch_size = 256;
    options.train_iterations = 20;
    options.default_nprobe = 4;
    options.rebuild_chunk_rows = 512;
    return options;
  }

  // Loads `ds` into a fresh DB with asset ids "a<row>"; returns it.
  std::unique_ptr<DB> LoadDataset(const Dataset& ds, DbOptions options) {
    auto db = DB::Open(path_, options).value();
    std::vector<UpsertRequest> batch;
    for (size_t i = 0; i < ds.spec.n; ++i) {
      UpsertRequest req;
      req.asset_id = "a" + std::to_string(i);
      req.vector.assign(ds.row(i), ds.row(i) + ds.spec.dim);
      batch.push_back(std::move(req));
      if (batch.size() == 1000) {
        EXPECT_TRUE(db->Upsert(batch).ok());
        batch.clear();
      }
    }
    if (!batch.empty()) EXPECT_TRUE(db->Upsert(batch).ok());
    return db;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(DbTest, OpenRequiresDimOnCreate) {
  DbOptions options;  // dim = 0
  EXPECT_FALSE(DB::Open(path_, options).ok());
  options.dim = 8;
  EXPECT_TRUE(DB::Open(path_, options).ok());
}

TEST_F(DbTest, ReopenValidatesDim) {
  {
    auto db = DB::Open(path_, SmallOptions(8)).value();
  }
  DbOptions mismatched = SmallOptions(16);
  EXPECT_FALSE(DB::Open(path_, mismatched).ok());
  DbOptions inherit;
  inherit.dim = 0;  // "whatever the db says"
  auto db = DB::Open(path_, inherit).value();
  EXPECT_EQ(db->options().dim, 8u);
}

TEST_F(DbTest, SearchBeforeBuildScansDelta) {
  auto db = DB::Open(path_, SmallOptions(4)).value();
  ASSERT_TRUE(db->Upsert({{"x", {1, 0, 0, 0}, {}},
                          {"y", {0, 1, 0, 0}, {}},
                          {"z", {0, 0, 1, 0}, {}}})
                  .ok());
  SearchRequest req;
  req.query = {1, 0, 0, 0};
  req.k = 2;
  auto resp = db->Search(req).value();
  ASSERT_EQ(resp.items.size(), 2u);
  EXPECT_EQ(resp.items[0].asset_id, "x");
  EXPECT_FLOAT_EQ(resp.items[0].distance, 0.f);
}

TEST_F(DbTest, BuildIndexAndHighRecall) {
  Dataset ds =
      GenerateDataset({"t", 32, Metric::kL2, 8000, 50, 40, 0.15f, 21});
  auto db = LoadDataset(ds, SmallOptions(32));
  ASSERT_TRUE(db->BuildIndex().ok());
  auto stats = db->GetIndexStats().value();
  EXPECT_EQ(stats.n_partitions, 8000u / 50);
  EXPECT_EQ(stats.delta_count, 0u);
  EXPECT_EQ(stats.total_vectors, 8000u);

  // Recall@10 vs exact search at generous nprobe.
  auto truth = BruteForceGroundTruth(ds, 10, 1);
  double recall = 0;
  for (size_t q = 0; q < 50; ++q) {
    SearchRequest req;
    req.query.assign(ds.query(q), ds.query(q) + 32);
    req.k = 10;
    req.nprobe = 16;
    auto resp = db->Search(req).value();
    std::vector<Neighbor> got;
    for (const auto& item : resp.items) got.push_back({item.vid, item.distance});
    recall += RecallAtK(got, truth[q]);
  }
  EXPECT_GE(recall / 50, 0.9);
}

TEST_F(DbTest, ExactSearchMatchesBruteForce) {
  Dataset ds = GenerateDataset({"t", 16, Metric::kL2, 2000, 10, 16, 0.2f, 22});
  auto db = LoadDataset(ds, SmallOptions(16));
  ASSERT_TRUE(db->BuildIndex().ok());
  auto truth = BruteForceGroundTruth(ds, 10, 1);
  for (size_t q = 0; q < 10; ++q) {
    SearchRequest req;
    req.query.assign(ds.query(q), ds.query(q) + 16);
    req.k = 10;
    req.exact = true;
    auto resp = db->Search(req).value();
    ASSERT_EQ(resp.items.size(), 10u);
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(resp.items[i].vid, truth[q][i].id) << "q=" << q << " i=" << i;
    }
  }
}

TEST_F(DbTest, CosineMetricNormalizesAndSearches) {
  Dataset ds =
      GenerateDataset({"t", 24, Metric::kCosine, 3000, 20, 24, 0.2f, 23});
  auto db = LoadDataset(ds, SmallOptions(24, Metric::kCosine));
  ASSERT_TRUE(db->BuildIndex().ok());
  auto truth = BruteForceGroundTruth(ds, 10, 1);
  double recall = 0;
  for (size_t q = 0; q < 20; ++q) {
    SearchRequest req;
    req.query.assign(ds.query(q), ds.query(q) + 24);
    req.k = 10;
    req.nprobe = 12;
    auto resp = db->Search(req).value();
    std::vector<Neighbor> got;
    for (const auto& item : resp.items) got.push_back({item.vid, item.distance});
    recall += RecallAtK(got, truth[q]);
  }
  EXPECT_GE(recall / 20, 0.9);
}

TEST_F(DbTest, UpsertReplacesVectorAndAttributes) {
  auto db = DB::Open(path_, SmallOptions(4)).value();
  AttributeRecord attrs;
  attrs["color"] = AttributeValue::String("red");
  ASSERT_TRUE(db->Upsert({{"item", {1, 0, 0, 0}, attrs}}).ok());
  // Replace with a different vector + attribute.
  attrs["color"] = AttributeValue::String("blue");
  ASSERT_TRUE(db->Upsert({{"item", {0, 0, 0, 1}, attrs}}).ok());
  EXPECT_EQ(db->VectorCount().value(), 1u);

  SearchRequest req;
  req.query = {0, 0, 0, 1};
  req.k = 1;
  auto resp = db->Search(req).value();
  ASSERT_EQ(resp.items.size(), 1u);
  EXPECT_EQ(resp.items[0].asset_id, "item");
  EXPECT_FLOAT_EQ(resp.items[0].distance, 0.f);

  // Old attribute no longer matches; new one does.
  req.filter = Predicate::Compare("color", CompareOp::kEq,
                                  AttributeValue::String("red"));
  EXPECT_TRUE(db->Search(req).value().items.empty());
  req.filter = Predicate::Compare("color", CompareOp::kEq,
                                  AttributeValue::String("blue"));
  EXPECT_EQ(db->Search(req).value().items.size(), 1u);
}

TEST_F(DbTest, DeleteRemovesFromSearch) {
  auto db = DB::Open(path_, SmallOptions(4)).value();
  ASSERT_TRUE(db->Upsert({{"keep", {1, 0, 0, 0}, {}},
                          {"drop", {0.9f, 0, 0, 0}, {}}})
                  .ok());
  ASSERT_TRUE(db->Delete({"drop", "never-existed"}).ok());
  EXPECT_EQ(db->VectorCount().value(), 1u);
  SearchRequest req;
  req.query = {1, 0, 0, 0};
  req.k = 5;
  auto resp = db->Search(req).value();
  ASSERT_EQ(resp.items.size(), 1u);
  EXPECT_EQ(resp.items[0].asset_id, "keep");
}

TEST_F(DbTest, DeleteAfterBuildIsReflected) {
  Dataset ds = GenerateDataset({"t", 8, Metric::kL2, 1000, 5, 8, 0.2f, 24});
  auto db = LoadDataset(ds, SmallOptions(8));
  ASSERT_TRUE(db->BuildIndex().ok());
  // Delete the exact nearest neighbour of query 0 and verify it vanishes.
  SearchRequest req;
  req.query.assign(ds.query(0), ds.query(0) + 8);
  req.k = 1;
  req.nprobe = 8;
  auto before = db->Search(req).value();
  ASSERT_EQ(before.items.size(), 1u);
  const std::string victim = before.items[0].asset_id;
  ASSERT_TRUE(db->Delete({victim}).ok());
  auto after = db->Search(req).value();
  ASSERT_EQ(after.items.size(), 1u);
  EXPECT_NE(after.items[0].asset_id, victim);
}

// Any k is valid request input: k = UINT32_MAX asks for more rows than
// exist, so every plan returns every live row it reaches, with exact
// distances — nothing sizes a buffer or a rerank pool by k itself.
TEST_F(DbTest, HugeKReturnsEveryLiveRowWithExactDistances) {
  constexpr uint32_t kDim = 8;
  constexpr size_t kRows = 500;
  Dataset ds = GenerateDataset({"t", kDim, Metric::kL2, kRows, 1, 8, 0.2f, 9});
  auto db = DB::Open(path_, SmallOptions(kDim)).value();
  std::vector<UpsertRequest> batch;
  for (size_t i = 0; i < kRows; ++i) {
    UpsertRequest req;
    req.asset_id = "a" + std::to_string(i);
    req.vector.assign(ds.row(i), ds.row(i) + kDim);
    req.attributes["odd"] = AttributeValue::Int(static_cast<int64_t>(i % 2));
    batch.push_back(std::move(req));
  }
  ASSERT_TRUE(db->Upsert(batch).ok());
  ASSERT_TRUE(db->BuildIndex().ok());
  // Deleted rows must not come back; rows upserted after the build sit in
  // the delta store and must.
  std::vector<std::string> deleted;
  for (size_t i = 0; i < kRows; i += 50) {
    deleted.push_back("a" + std::to_string(i));
  }
  ASSERT_TRUE(db->Delete(deleted).ok());
  ASSERT_TRUE(db->Upsert({batch[1], batch[3]}).ok());

  const std::vector<float> query(ds.query(0), ds.query(0) + kDim);
  // Expected distance of every live row (same kernel as the search).
  std::map<std::string, float> live;
  for (size_t i = 0; i < kRows; ++i) {
    if (i % 50 == 0) continue;
    float d = 0.f;
    DistanceOneToMany(Metric::kL2, query.data(), ds.row(i), 1, kDim, &d);
    live["a" + std::to_string(i)] = d;
  }

  struct Case {
    const char* name;
    QueryPlan plan;
    bool quantized;
    bool exact;
    PlanOverride filtered;  // kAuto: unfiltered
  };
  const Case cases[] = {
      {"sq8", QueryPlan::kUnfiltered, true, false, PlanOverride::kAuto},
      {"float", QueryPlan::kUnfiltered, false, false, PlanOverride::kAuto},
      {"exact", QueryPlan::kExact, true, true, PlanOverride::kAuto},
      {"post-filter", QueryPlan::kPostFilter, true, false,
       PlanOverride::kForcePostFilter},
      {"pre-filter", QueryPlan::kPreFilter, true, false,
       PlanOverride::kForcePreFilter},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SearchRequest req;
    req.query = query;
    req.k = std::numeric_limits<uint32_t>::max();
    req.nprobe = 1000;  // every partition
    req.quantized = c.quantized;
    req.exact = c.exact;
    const bool filtered = c.filtered != PlanOverride::kAuto;
    if (filtered) {
      req.filter = Predicate::Compare("odd", CompareOp::kEq,
                                      AttributeValue::Int(1));
      req.plan = c.filtered;
    }
    Result<SearchResponse> resp = db->Search(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->explain.plan, c.plan);
    ExpectExplainInvariants(req, *resp);
    size_t want = 0;
    for (const auto& [asset, d] : live) {
      want += !filtered || std::stoul(asset.substr(1)) % 2 == 1;
    }
    EXPECT_EQ(resp->items.size(), want);
    float prev = 0.f;
    for (const ResultItem& item : resp->items) {
      auto it = live.find(item.asset_id);
      ASSERT_NE(it, live.end()) << item.asset_id;
      EXPECT_EQ(item.distance, it->second) << item.asset_id;
      EXPECT_LE(prev, item.distance);
      prev = item.distance;
    }
  }
}

TEST_F(DbTest, HybridPreAndPostFilterAgreeOnSelectiveQueries) {
  Dataset ds = GenerateDataset({"t", 16, Metric::kL2, 3000, 10, 24, 0.2f, 25});
  DbOptions options = SmallOptions(16);
  auto db = DB::Open(path_, options).value();
  std::vector<UpsertRequest> batch;
  for (size_t i = 0; i < ds.spec.n; ++i) {
    UpsertRequest req;
    req.asset_id = "a" + std::to_string(i);
    req.vector.assign(ds.row(i), ds.row(i) + 16);
    req.attributes["bucket"] = AttributeValue::Int(static_cast<int64_t>(i % 100));
    batch.push_back(std::move(req));
  }
  ASSERT_TRUE(db->Upsert(batch).ok());
  ASSERT_TRUE(db->BuildIndex().ok());

  SearchRequest req;
  req.query.assign(ds.query(0), ds.query(0) + 16);
  req.k = 5;
  req.nprobe = 24;  // all partitions of 3000/50 = 60? generous probe
  req.filter = Predicate::Compare("bucket", CompareOp::kEq,
                                  AttributeValue::Int(7));
  req.plan = PlanOverride::kForcePreFilter;
  auto pre = db->Search(req).value();
  EXPECT_EQ(pre.explain.plan, QueryPlan::kPreFilter);
  for (const auto& item : pre.items) {
    EXPECT_EQ(item.vid % 100, 8u);  // vid = row + 1; bucket = row % 100
  }
  // Exact search with the same filter must agree with pre-filter (both are
  // exact over the qualifying subset).
  req.plan = PlanOverride::kAuto;
  req.exact = true;
  auto exact = db->Search(req).value();
  ASSERT_EQ(exact.items.size(), pre.items.size());
  for (size_t i = 0; i < exact.items.size(); ++i) {
    EXPECT_EQ(exact.items[i].vid, pre.items[i].vid);
  }
}

TEST_F(DbTest, OptimizerPicksPreFilterForSelectivePredicates) {
  Dataset ds = GenerateDataset({"t", 8, Metric::kL2, 5000, 5, 16, 0.2f, 26});
  auto db = DB::Open(path_, SmallOptions(8)).value();
  std::vector<UpsertRequest> batch;
  for (size_t i = 0; i < ds.spec.n; ++i) {
    UpsertRequest req;
    req.asset_id = "a" + std::to_string(i);
    req.vector.assign(ds.row(i), ds.row(i) + 8);
    // "rare" hits 0.1% of rows; "common" hits 90%.
    req.attributes["kind"] = AttributeValue::String(
        i % 1000 == 0 ? "rare" : (i % 10 != 9 ? "common" : "other"));
    batch.push_back(std::move(req));
  }
  ASSERT_TRUE(db->Upsert(batch).ok());
  ASSERT_TRUE(db->BuildIndex().ok());  // also runs AnalyzeStats

  SearchRequest req;
  req.query.assign(ds.query(0), ds.query(0) + 8);
  req.k = 3;
  req.filter = Predicate::Compare("kind", CompareOp::kEq,
                                  AttributeValue::String("rare"));
  auto rare = db->Search(req).value();
  EXPECT_EQ(rare.explain.plan, QueryPlan::kPreFilter);
  EXPECT_LT(rare.explain.decision.filter_selectivity,
            rare.explain.decision.ivf_selectivity);

  req.filter = Predicate::Compare("kind", CompareOp::kEq,
                                  AttributeValue::String("common"));
  auto common = db->Search(req).value();
  EXPECT_EQ(common.explain.plan, QueryPlan::kPostFilter);
  EXPECT_GE(common.explain.decision.filter_selectivity,
            common.explain.decision.ivf_selectivity);
}

TEST_F(DbTest, FtsMatchFilter) {
  DbOptions options = SmallOptions(4);
  options.fts_columns = {"tags"};
  auto db = DB::Open(path_, options).value();
  AttributeRecord a1, a2;
  a1["tags"] = AttributeValue::String("cat yarn black");
  a2["tags"] = AttributeValue::String("dog park");
  ASSERT_TRUE(db->Upsert({{"pic1", {1, 0, 0, 0}, a1},
                          {"pic2", {0.9f, 0.1f, 0, 0}, a2}})
                  .ok());
  SearchRequest req;
  req.query = {1, 0, 0, 0};
  req.k = 5;
  req.filter = Predicate::Match("tags", "cat yarn");
  auto resp = db->Search(req).value();
  ASSERT_EQ(resp.items.size(), 1u);
  EXPECT_EQ(resp.items[0].asset_id, "pic1");
}

TEST_F(DbTest, BatchSearchMatchesSequentialSearch) {
  Dataset ds = GenerateDataset({"t", 16, Metric::kL2, 4000, 64, 24, 0.2f, 27});
  auto db = LoadDataset(ds, SmallOptions(16));
  ASSERT_TRUE(db->BuildIndex().ok());
  std::vector<SearchRequest> requests(64);
  for (size_t q = 0; q < 64; ++q) {
    requests[q].query.assign(ds.query(q), ds.query(q) + 16);
    requests[q].k = 10;
    requests[q].nprobe = 6;
  }
  auto batch = db->BatchSearch(requests).value();
  ASSERT_EQ(batch.size(), 64u);
  for (size_t q = 0; q < 64; ++q) {
    auto single = db->Search(requests[q]).value();
    ASSERT_EQ(batch[q].items.size(), single.items.size()) << q;
    for (size_t i = 0; i < single.items.size(); ++i) {
      EXPECT_EQ(batch[q].items[i].vid, single.items[i].vid)
          << "q=" << q << " i=" << i;
    }
  }
}

TEST_F(DbTest, BatchSearchScansPartitionsOnce) {
  Dataset ds = GenerateDataset({"t", 8, Metric::kL2, 2000, 32, 16, 0.2f, 28});
  auto db = LoadDataset(ds, SmallOptions(8));
  ASSERT_TRUE(db->BuildIndex().ok());
  std::vector<SearchRequest> requests(32);
  for (size_t q = 0; q < 32; ++q) {
    requests[q].query.assign(ds.query(q), ds.query(q) + 8);
    requests[q].k = 5;
    requests[q].nprobe = 4;
  }
  auto batch = db->BatchSearch(requests).value();
  // Unique partitions scanned must be <= #partitions + delta, far below
  // 32 queries x 5 partitions.
  const auto stats = db->GetIndexStats().value();
  EXPECT_LE(batch[0].explain.partitions_scanned, stats.n_partitions + 1);
}

TEST_F(DbTest, MaintainFlushesDelta) {
  Dataset ds = GenerateDataset({"t", 8, Metric::kL2, 2000, 5, 16, 0.2f, 29});
  auto db = LoadDataset(ds, SmallOptions(8));
  ASSERT_TRUE(db->BuildIndex().ok());
  // Insert 100 more vectors -> they sit in the delta store.
  std::vector<UpsertRequest> more;
  for (int i = 0; i < 100; ++i) {
    UpsertRequest req;
    req.asset_id = "new" + std::to_string(i);
    req.vector.assign(ds.row(i), ds.row(i) + 8);
    more.push_back(std::move(req));
  }
  ASSERT_TRUE(db->Upsert(more).ok());
  EXPECT_EQ(db->GetIndexStats().value().delta_count, 100u);

  auto report = db->Maintain().value();
  EXPECT_FALSE(report.full_rebuild);
  EXPECT_EQ(report.delta_flushed, 100u);
  auto stats = db->GetIndexStats().value();
  EXPECT_EQ(stats.delta_count, 0u);
  EXPECT_EQ(stats.total_vectors, 2100u);

  // All vectors still findable.
  SearchRequest req;
  req.query.assign(ds.row(0), ds.row(0) + 8);
  req.k = 2;
  req.nprobe = 8;
  auto resp = db->Search(req).value();
  ASSERT_GE(resp.items.size(), 2u);
  EXPECT_FLOAT_EQ(resp.items[0].distance, 0.f);
}

TEST_F(DbTest, MaintainEscalatesToFullRebuild) {
  Dataset ds = GenerateDataset({"t", 8, Metric::kL2, 1000, 5, 8, 0.2f, 30});
  DbOptions options = SmallOptions(8);
  options.rebuild_growth_threshold = 0.5;
  auto db = LoadDataset(ds, options);
  ASSERT_TRUE(db->BuildIndex().ok());
  const auto before = db->GetIndexStats().value();
  // Insert 60% more: the projected average exceeds base * 1.5.
  std::vector<UpsertRequest> more;
  for (int i = 0; i < 600; ++i) {
    UpsertRequest req;
    req.asset_id = "m" + std::to_string(i);
    req.vector.assign(ds.row(i % 1000), ds.row(i % 1000) + 8);
    more.push_back(std::move(req));
  }
  ASSERT_TRUE(db->Upsert(more).ok());
  auto report = db->Maintain().value();
  EXPECT_TRUE(report.full_rebuild);
  const auto after = db->GetIndexStats().value();
  EXPECT_GT(after.n_partitions, before.n_partitions);
  EXPECT_EQ(after.delta_count, 0u);
  EXPECT_GT(after.index_version, before.index_version);
}

TEST_F(DbTest, PersistenceAcrossReopen) {
  Dataset ds = GenerateDataset({"t", 8, Metric::kL2, 1500, 5, 12, 0.2f, 31});
  {
    auto db = LoadDataset(ds, SmallOptions(8));
    ASSERT_TRUE(db->BuildIndex().ok());
    ASSERT_TRUE(db->Close().ok());
  }
  DbOptions inherit;
  inherit.dim = 0;
  auto db = DB::Open(path_, inherit).value();
  EXPECT_EQ(db->VectorCount().value(), 1500u);
  auto stats = db->GetIndexStats().value();
  EXPECT_EQ(stats.n_partitions, 1500u / 50);
  SearchRequest req;
  req.query.assign(ds.row(7), ds.row(7) + 8);
  req.k = 1;
  req.nprobe = 4;
  auto resp = db->Search(req).value();
  ASSERT_EQ(resp.items.size(), 1u);
  EXPECT_EQ(resp.items[0].asset_id, "a7");
}

TEST_F(DbTest, ConcurrentSearchesDuringWrites) {
  Dataset ds = GenerateDataset({"t", 8, Metric::kL2, 2000, 10, 16, 0.2f, 32});
  auto db = LoadDataset(ds, SmallOptions(8));
  ASSERT_TRUE(db->BuildIndex().ok());
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<int> searches{0};
  std::atomic<int> readers_warm{0};  // readers that completed >= 1 search
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      size_t q = t;
      bool first = true;
      while (!stop.load()) {
        SearchRequest req;
        req.query.assign(ds.query(q % 10), ds.query(q % 10) + 8);
        req.k = 10;
        auto resp = db->Search(req);
        if (!resp.ok() || resp->items.empty()) ++errors;
        ++searches;
        ++q;
        if (first) {
          first = false;
          ++readers_warm;
        }
      }
    });
  }
  // Don't start writing until both readers are demonstrably searching;
  // otherwise on a loaded (or single-core) machine the writer can finish
  // before the reader threads are scheduled, vacuously passing the
  // progress assertion below.
  while (readers_warm.load() < 2) {
    std::this_thread::yield();
  }
  // Writer: interleave upserts, deletes, and a maintenance pass.
  for (int round = 0; round < 5; ++round) {
    std::vector<UpsertRequest> batch;
    for (int i = 0; i < 50; ++i) {
      UpsertRequest req;
      req.asset_id = "live" + std::to_string(round * 50 + i);
      req.vector.assign(ds.row(i), ds.row(i) + 8);
      batch.push_back(std::move(req));
    }
    ASSERT_TRUE(db->Upsert(batch).ok());
    ASSERT_TRUE(db->Delete({"live" + std::to_string(round * 50)}).ok());
  }
  ASSERT_TRUE(db->Maintain().ok());
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(searches.load(), 0);
}

TEST_F(DbTest, ConcurrentSearchesDuringFullRebuild) {
  Dataset ds = GenerateDataset({"t", 8, Metric::kL2, 3000, 10, 16, 0.2f, 33});
  auto db = LoadDataset(ds, SmallOptions(8));
  ASSERT_TRUE(db->BuildIndex().ok());
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread reader([&] {
    size_t q = 0;
    while (!stop.load()) {
      SearchRequest req;
      req.query.assign(ds.query(q % 10), ds.query(q % 10) + 8);
      req.k = 5;
      auto resp = db->Search(req);
      if (!resp.ok() || resp->items.size() != 5) ++errors;
      ++q;
    }
  });
  ASSERT_TRUE(db->BuildIndex().ok());  // rebuild under live queries
  stop.store(true);
  reader.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST_F(DbTest, DropCachesColdStartStillCorrect) {
  Dataset ds = GenerateDataset({"t", 8, Metric::kL2, 1000, 5, 8, 0.2f, 34});
  auto db = LoadDataset(ds, SmallOptions(8));
  ASSERT_TRUE(db->BuildIndex().ok());
  SearchRequest req;
  req.query.assign(ds.query(0), ds.query(0) + 8);
  req.k = 5;
  req.nprobe = 8;
  auto warm = db->Search(req).value();
  db->DropCaches();
  auto cold = db->Search(req).value();
  ASSERT_EQ(warm.items.size(), cold.items.size());
  for (size_t i = 0; i < warm.items.size(); ++i) {
    EXPECT_EQ(warm.items[i].vid, cold.items[i].vid);
  }
}

TEST_F(DbTest, DimensionMismatchRejected) {
  auto db = DB::Open(path_, SmallOptions(4)).value();
  EXPECT_FALSE(db->Upsert({{"bad", {1, 2, 3}, {}}}).ok());
  SearchRequest req;
  req.query = {1, 2};
  req.k = 1;
  EXPECT_FALSE(db->Search(req).ok());
}

TEST_F(DbTest, EmptyDatabaseBehaviour) {
  auto db = DB::Open(path_, SmallOptions(4)).value();
  SearchRequest req;
  req.query = {0, 0, 0, 0};
  req.k = 5;
  auto resp = db->Search(req).value();
  EXPECT_TRUE(resp.items.empty());
  EXPECT_TRUE(db->BuildIndex().ok());  // no-op build
  EXPECT_EQ(db->GetIndexStats().value().n_partitions, 0u);
  auto report = db->Maintain().value();
  EXPECT_FALSE(report.full_rebuild);
}

TEST_F(DbTest, RebuildChunkingBoundsDirtySet) {
  // Chunk size smaller than the collection: the rebuild must make many
  // small commits rather than one huge one.
  Dataset ds = GenerateDataset({"t", 8, Metric::kL2, 2000, 5, 16, 0.2f, 35});
  DbOptions options = SmallOptions(8);
  options.rebuild_chunk_rows = 100;
  auto db = LoadDataset(ds, options);
  const uint64_t commits_before =
      db->io_stats().commits.load(std::memory_order_relaxed);
  ASSERT_TRUE(db->BuildIndex().ok());
  const uint64_t commits_after =
      db->io_stats().commits.load(std::memory_order_relaxed);
  EXPECT_GT(commits_after - commits_before, 2000u / 100);
  // And the index still works.
  SearchRequest req;
  req.query.assign(ds.row(3), ds.row(3) + 8);
  req.k = 1;
  auto resp = db->Search(req).value();
  EXPECT_EQ(resp.items[0].asset_id, "a3");
}

}  // namespace
}  // namespace micronn
