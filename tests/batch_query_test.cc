// Batch (MQO) engine tests: equivalence with sequential execution across
// randomized heterogeneous + filtered workloads, delta-store coverage,
// per-query counter accounting, and scan sharing.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <string>

#include "core/db.h"
#include "datagen/dataset.h"
#include "query/batch.h"
#include "support/explain_invariants.h"

namespace micronn {
namespace {

class BatchTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 24;
  static constexpr size_t kN = 5000;

  void SetUp() override {
    // Parameterized names ("MatchesSequential/3") carry a '/', which would
    // nest the directory and leave its parent behind at TearDown.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_batch_" + std::to_string(::getpid()) + "_" + name);
    std::filesystem::create_directories(dir_);
    ds_ = GenerateDataset({"b", kDim, Metric::kL2, kN, 128, 32, 0.2f, 66});
    DbOptions options;
    options.dim = kDim;
    options.target_cluster_size = 50;
    db_ = DB::Open(dir_ / "db.mnn", options).value();
    std::vector<UpsertRequest> batch;
    for (size_t i = 0; i < kN; ++i) {
      UpsertRequest req;
      req.asset_id = "a" + std::to_string(i);
      req.vector.assign(ds_.row(i), ds_.row(i) + kDim);
      // Attributes for filtered-batch tests: "bucket" qualifies 10% of
      // rows, "city" == rare qualifies 0.4% (drives the optimizer to
      // pre-filtering).
      req.attributes["bucket"] =
          AttributeValue::Int(static_cast<int64_t>(i % 10));
      req.attributes["city"] =
          AttributeValue::String(i % 250 == 0 ? "rare" : "common");
      batch.push_back(std::move(req));
    }
    EXPECT_TRUE(db_->Upsert(batch).ok());
    EXPECT_TRUE(db_->BuildIndex().ok());
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  // Asserts that the batched response `got` is identical to what
  // per-query Search returns for `req`: items (ids AND distances), plan,
  // optimizer estimates, and every per-query counter. The sequential
  // response's EXPLAIN must hold the invariants too.
  void ExpectMatchesSingle(const SearchRequest& req,
                           const SearchResponse& got, size_t q) {
    const SearchResponse single = db_->Search(req).value();
    ExpectExplainInvariants(req, single);
    ASSERT_EQ(got.items.size(), single.items.size()) << "q=" << q;
    for (size_t i = 0; i < single.items.size(); ++i) {
      EXPECT_EQ(got.items[i].vid, single.items[i].vid)
          << "q=" << q << " i=" << i;
      EXPECT_EQ(got.items[i].distance, single.items[i].distance)
          << "q=" << q << " i=" << i;
    }
    EXPECT_EQ(got.explain.plan, single.explain.plan) << "q=" << q;
    EXPECT_EQ(got.explain.decision.plan, single.explain.decision.plan)
        << "q=" << q;
    EXPECT_EQ(got.explain.decision.filter_selectivity,
              single.explain.decision.filter_selectivity)
        << "q=" << q;
    EXPECT_EQ(got.explain.decision.ivf_selectivity,
              single.explain.decision.ivf_selectivity)
        << "q=" << q;
    EXPECT_EQ(got.explain.partitions_scanned, single.explain.partitions_scanned)
        << "q=" << q;
    EXPECT_EQ(got.explain.rows_scanned, single.explain.rows_scanned)
        << "q=" << q;
    EXPECT_EQ(got.explain.rows_filtered, single.explain.rows_filtered)
        << "q=" << q;
    EXPECT_EQ(got.explain.probe_pairs, single.explain.probe_pairs)
        << "q=" << q;
    EXPECT_EQ(got.explain.candidates, single.explain.candidates)
        << "q=" << q;
  }

  std::filesystem::path dir_;
  Dataset ds_;
  std::unique_ptr<DB> db_;
};

// Equivalence sweep over batch size and nprobe.
struct BatchParam {
  size_t batch;
  uint32_t nprobe;
};

class BatchEquivalenceTest
    : public BatchTest,
      public ::testing::WithParamInterface<BatchParam> {};

// gtest needs the fixture to expose the param interface; re-declare via
// inheritance trick: BatchTest + WithParamInterface.
TEST_P(BatchEquivalenceTest, MatchesSequential) {
  const BatchParam param = GetParam();
  std::vector<SearchRequest> requests(param.batch);
  for (size_t q = 0; q < param.batch; ++q) {
    const size_t qi = q % ds_.spec.n_queries;
    requests[q].query.assign(ds_.query(qi), ds_.query(qi) + kDim);
    requests[q].k = 10;
    requests[q].nprobe = param.nprobe;
  }
  auto batched = db_->BatchSearch(requests).value();
  ASSERT_EQ(batched.size(), param.batch);
  for (size_t q = 0; q < param.batch; ++q) {
    auto single = db_->Search(requests[q]).value();
    ASSERT_EQ(batched[q].items.size(), single.items.size()) << q;
    for (size_t i = 0; i < single.items.size(); ++i) {
      EXPECT_EQ(batched[q].items[i].vid, single.items[i].vid)
          << "batch=" << param.batch << " q=" << q << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchEquivalenceTest,
    ::testing::Values(BatchParam{1, 4}, BatchParam{7, 4}, BatchParam{32, 4},
                      BatchParam{64, 1}, BatchParam{64, 16},
                      BatchParam{128, 8}, BatchParam{256, 2}));

TEST_F(BatchTest, BatchSeesDeltaStore) {
  // Freshly upserted vectors (delta store) must appear in batch results.
  UpsertRequest fresh;
  fresh.asset_id = "fresh";
  fresh.vector.assign(ds_.query(0), ds_.query(0) + kDim);
  ASSERT_TRUE(db_->Upsert({fresh}).ok());
  std::vector<SearchRequest> requests(8);
  for (size_t q = 0; q < 8; ++q) {
    requests[q].query.assign(ds_.query(0), ds_.query(0) + kDim);
    requests[q].k = 3;
    requests[q].nprobe = 4;
  }
  auto responses = db_->BatchSearch(requests).value();
  for (const auto& resp : responses) {
    ASSERT_FALSE(resp.items.empty());
    EXPECT_EQ(resp.items[0].asset_id, "fresh");
    EXPECT_FLOAT_EQ(resp.items[0].distance, 0.f);
  }
}

TEST_F(BatchTest, HeterogeneousBatchSharesScansAndMatchesSequential) {
  // Mixed k and an exact query: no fallback — every partition-scanning
  // plan joins the shared scan, and results still match per-query Search.
  std::vector<SearchRequest> requests(3);
  requests[0].query.assign(ds_.query(0), ds_.query(0) + kDim);
  requests[0].k = 5;
  requests[1].query.assign(ds_.query(1), ds_.query(1) + kDim);
  requests[1].k = 9;  // different k used to force a sequential fallback
  requests[2].query.assign(ds_.query(2), ds_.query(2) + kDim);
  requests[2].k = 5;
  requests[2].exact = true;
  auto batched = db_->BatchSearch(requests).value();
  ASSERT_EQ(batched.size(), 3u);
  uint64_t sum_partitions = 0;
  for (size_t q = 0; q < 3; ++q) {
    ExpectMatchesSingle(requests[q], batched[q], q);
    EXPECT_TRUE(batched[q].explain.shared_scan) << q;
    sum_partitions += batched[q].explain.partitions_scanned;
  }
  EXPECT_EQ(batched[2].explain.plan, QueryPlan::kExact);
  // The exact plan already visits every partition, so sharing must put
  // the group's unique-partition count strictly below the per-query sum.
  EXPECT_LT(batched[0].explain.group_partitions_scanned, sum_partitions);
}

TEST_F(BatchTest, EmptyBatch) {
  auto responses = db_->BatchSearch({}).value();
  EXPECT_TRUE(responses.empty());
}

TEST_F(BatchTest, SharedScanTouchesEachPartitionOnce) {
  std::vector<SearchRequest> requests(200);
  for (size_t q = 0; q < requests.size(); ++q) {
    const size_t qi = q % ds_.spec.n_queries;
    requests[q].query.assign(ds_.query(qi), ds_.query(qi) + kDim);
    requests[q].k = 10;
    requests[q].nprobe = 8;
  }
  auto responses = db_->BatchSearch(requests).value();
  const auto stats = db_->GetIndexStats().value();
  // Each response reports its own share: 8 probes + delta.
  for (const auto& resp : responses) {
    EXPECT_EQ(resp.explain.partitions_scanned, 9u);
    EXPECT_EQ(resp.explain.probe_pairs, 8u);
    EXPECT_TRUE(resp.explain.shared_scan);
    EXPECT_EQ(resp.explain.group_size, 200u);
  }
  // MQO: unique partitions <= all partitions + delta, not 200 x 9.
  EXPECT_LE(responses[0].explain.group_partitions_scanned,
            static_cast<uint64_t>(stats.n_partitions) + 1);
  EXPECT_LT(responses[0].explain.group_partitions_scanned, 200ull * 9ull);
  EXPECT_EQ(responses[0].explain.group_probe_pairs, 200ull * 8ull);
  // And the group's decoded-row total is shared: strictly below the sum
  // of what 200 independent probes of 9 partitions would touch.
  EXPECT_LT(responses[0].explain.group_rows_scanned, 200ull * 9ull * 50ull);
}

TEST_F(BatchTest, FilteredHomogeneousBatchSharesScans) {
  // A filtered batch must run through the shared-scan executor (the old
  // engine silently degraded it to sequential per-query execution).
  std::vector<SearchRequest> requests(16);
  for (size_t q = 0; q < requests.size(); ++q) {
    requests[q].query.assign(ds_.query(q), ds_.query(q) + kDim);
    requests[q].k = 10;
    requests[q].nprobe = 8;
    requests[q].filter = Predicate::Compare(
        "bucket", CompareOp::kEq, AttributeValue::Int(3));
    requests[q].plan = PlanOverride::kForcePostFilter;
  }
  auto batched = db_->BatchSearch(requests).value();
  ASSERT_EQ(batched.size(), 16u);
  uint64_t sum_partitions = 0;
  for (size_t q = 0; q < batched.size(); ++q) {
    ExpectMatchesSingle(requests[q], batched[q], q);
    EXPECT_EQ(batched[q].explain.plan, QueryPlan::kPostFilter);
    EXPECT_TRUE(batched[q].explain.shared_scan) << q;
    EXPECT_GT(batched[q].explain.rows_filtered, 0u) << q;
    sum_partitions += batched[q].explain.partitions_scanned;
  }
  // Scan sharing: the batch's unique partitions < sum of per-query counts
  // (16 queries x 9 partitions each, but at most n_partitions + 1 unique).
  EXPECT_LT(batched[0].explain.group_partitions_scanned, sum_partitions);
}

TEST_F(BatchTest, MixedNprobeBatchSharesScans) {
  // Heterogeneous (k, nprobe) pairs execute in one shared-scan group.
  const uint32_t nprobes[] = {2, 4, 8, 16};
  const uint32_t ks[] = {3, 10, 7, 25};
  std::vector<SearchRequest> requests(32);
  for (size_t q = 0; q < requests.size(); ++q) {
    requests[q].query.assign(ds_.query(q), ds_.query(q) + kDim);
    requests[q].k = ks[q % 4];
    requests[q].nprobe = nprobes[q % 4];
  }
  auto batched = db_->BatchSearch(requests).value();
  ASSERT_EQ(batched.size(), requests.size());
  uint64_t sum_partitions = 0;
  for (size_t q = 0; q < batched.size(); ++q) {
    ExpectMatchesSingle(requests[q], batched[q], q);
    // Per-query counters, not the batch totals of the old engine.
    EXPECT_EQ(batched[q].explain.partitions_scanned, nprobes[q % 4] + 1ull)
        << q;
    EXPECT_EQ(batched[q].explain.probe_pairs, nprobes[q % 4]) << q;
    sum_partitions += batched[q].explain.partitions_scanned;
  }
  EXPECT_LT(batched[0].explain.group_partitions_scanned, sum_partitions);
}

TEST_F(BatchTest, PreFilterPlanInsideBatch) {
  // One request's optimizer decision lands on pre-filtering (city ==
  // "rare" qualifies 0.4% of rows) while the rest of the batch keeps
  // scanning partitions; results still match per-query execution.
  std::vector<SearchRequest> requests(8);
  for (size_t q = 0; q < requests.size(); ++q) {
    requests[q].query.assign(ds_.query(q), ds_.query(q) + kDim);
    requests[q].k = 10;
    requests[q].nprobe = 8;
  }
  requests[5].filter = Predicate::Compare("city", CompareOp::kEq,
                                          AttributeValue::String("rare"));
  auto batched = db_->BatchSearch(requests).value();
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t q = 0; q < batched.size(); ++q) {
    ExpectMatchesSingle(requests[q], batched[q], q);
  }
  EXPECT_EQ(batched[5].explain.plan, QueryPlan::kPreFilter);
  EXPECT_EQ(batched[5].explain.candidates, kN / 250);
  EXPECT_LT(batched[5].explain.decision.filter_selectivity,
            batched[5].explain.decision.ivf_selectivity);
  // The pre-filter plan scores its candidate set; it joins no scans.
  EXPECT_EQ(batched[5].explain.partitions_scanned, 0u);
  EXPECT_EQ(batched[5].explain.rows_scanned, kN / 250);
  // The other seven still shared their partition scans.
  EXPECT_TRUE(batched[0].explain.shared_scan);
  EXPECT_LT(batched[0].explain.group_partitions_scanned, 7ull * 9ull);
}

TEST_F(BatchTest, RandomizedHeterogeneousFilteredParity) {
  // Fuzz the whole plan space inside one batch: random k/nprobe, random
  // filters (none / 10% bucket / 0.4% city), plan overrides, and exact
  // queries. Every response must be bit-identical (ids, distances, plan
  // decision, counters) to per-query Search.
  std::mt19937 rng(20250726);
  std::vector<SearchRequest> requests(40);
  for (size_t q = 0; q < requests.size(); ++q) {
    SearchRequest& req = requests[q];
    const size_t qi = rng() % ds_.spec.n_queries;
    req.query.assign(ds_.query(qi), ds_.query(qi) + kDim);
    req.k = 1 + rng() % 20;
    const uint32_t nprobe_choices[] = {0, 1, 2, 4, 8, 16};
    req.nprobe = nprobe_choices[rng() % 6];
    switch (rng() % 4) {
      case 0:
        break;  // unfiltered
      case 1:
        req.filter = Predicate::Compare(
            "bucket", CompareOp::kEq,
            AttributeValue::Int(static_cast<int64_t>(rng() % 10)));
        break;
      case 2:
        req.filter = Predicate::Compare("city", CompareOp::kEq,
                                        AttributeValue::String("rare"));
        break;
      case 3:
        req.filter = Predicate::And(
            {Predicate::Compare("bucket", CompareOp::kGe,
                                AttributeValue::Int(2)),
             Predicate::Compare("bucket", CompareOp::kLt,
                                AttributeValue::Int(6))});
        break;
    }
    if (req.filter.has_value()) {
      const PlanOverride overrides[] = {PlanOverride::kAuto,
                                        PlanOverride::kForcePreFilter,
                                        PlanOverride::kForcePostFilter};
      req.plan = overrides[rng() % 3];
    }
    if (rng() % 10 == 0) req.exact = true;
  }
  auto batched = db_->BatchSearch(requests).value();
  ASSERT_EQ(batched.size(), requests.size());
  ExpectExplainInvariants(requests, batched);
  for (size_t q = 0; q < batched.size(); ++q) {
    ExpectMatchesSingle(requests[q], batched[q], q);
  }
}

TEST_F(BatchTest, LargeBatchWithMoreQueriesThanVectors) {
  std::vector<SearchRequest> requests(600);
  for (size_t q = 0; q < requests.size(); ++q) {
    const size_t qi = q % ds_.spec.n_queries;
    requests[q].query.assign(ds_.query(qi), ds_.query(qi) + kDim);
    requests[q].k = 100;
    requests[q].nprobe = 4;
  }
  auto responses = db_->BatchSearch(requests).value();
  ASSERT_EQ(responses.size(), 600u);
  for (const auto& resp : responses) {
    EXPECT_EQ(resp.items.size(), 100u);
    // Results must be sorted ascending by distance.
    for (size_t i = 1; i < resp.items.size(); ++i) {
      EXPECT_LE(resp.items[i - 1].distance, resp.items[i].distance);
    }
  }
}

}  // namespace
}  // namespace micronn
