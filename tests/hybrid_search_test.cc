// Deeper hybrid-search coverage: plan correctness and agreement across
// complex predicate trees, typed columns, FTS combinations, and recall
// behaviour at selectivity extremes (the Fig. 7 phenomenon in unit-test
// form).
#include <gtest/gtest.h>

#include <filesystem>

#include "core/db.h"
#include "datagen/dataset.h"
#include "ivf/search.h"

namespace micronn {
namespace {

class HybridTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 16;
  static constexpr size_t kN = 4000;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_hybrid_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    ds_ = GenerateDataset({"h", kDim, Metric::kL2, kN, 16, 24, 0.2f, 55});
    DbOptions options;
    options.dim = kDim;
    options.target_cluster_size = 50;
    options.default_nprobe = 4;
    options.fts_columns = {"tags"};
    db_ = DB::Open(dir_ / "db.mnn", options).value();
    std::vector<UpsertRequest> batch;
    for (size_t i = 0; i < kN; ++i) {
      UpsertRequest req;
      req.asset_id = "a" + std::to_string(i);
      req.vector.assign(ds_.row(i), ds_.row(i) + kDim);
      req.attributes["year"] =
          AttributeValue::Int(2000 + static_cast<int64_t>(i % 25));
      req.attributes["score"] =
          AttributeValue::Double(static_cast<double>(i % 100) / 100.0);
      req.attributes["city"] = AttributeValue::String(
          i % 500 == 0 ? "katmandu" : (i % 2 ? "seattle" : "nyc"));
      std::string tags = i % 2 ? "cat indoor" : "dog outdoor";
      if (i % 16 == 0) tags += " special";
      req.attributes["tags"] = AttributeValue::String(tags);
      batch.push_back(std::move(req));
    }
    EXPECT_TRUE(db_->Upsert(batch).ok());
    EXPECT_TRUE(db_->BuildIndex().ok());
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  // Runs `filter` through exact search (truth), forced pre-filter, and
  // forced post-filter at max nprobe; returns the three result lists.
  struct PlanComparison {
    std::vector<uint64_t> exact, pre, post_full_probe;
  };
  PlanComparison Compare(const Predicate& filter, uint32_t k) {
    PlanComparison out;
    SearchRequest req;
    req.query.assign(ds_.query(0), ds_.query(0) + kDim);
    req.k = k;
    req.nprobe = 1000;  // every partition: post-filter becomes exact too
    req.filter = filter;

    // Bind each response before iterating: ranging directly over
    // `Search(...).value().items` dangles in C++20 (the temporary Result
    // dies at the end of the range-init; only C++23 P2718 extends it).
    SearchRequest exact = req;
    exact.exact = true;
    const SearchResponse exact_resp = db_->Search(exact).value();
    for (const auto& item : exact_resp.items) {
      out.exact.push_back(item.vid);
    }
    SearchRequest pre = req;
    pre.plan = PlanOverride::kForcePreFilter;
    const SearchResponse pre_resp = db_->Search(pre).value();
    for (const auto& item : pre_resp.items) {
      out.pre.push_back(item.vid);
    }
    SearchRequest post = req;
    post.plan = PlanOverride::kForcePostFilter;
    const SearchResponse post_resp = db_->Search(post).value();
    for (const auto& item : post_resp.items) {
      out.post_full_probe.push_back(item.vid);
    }
    return out;
  }

  std::filesystem::path dir_;
  Dataset ds_;
  std::unique_ptr<DB> db_;
};

TEST_F(HybridTest, AllPlansAgreeAtFullProbe) {
  // With every partition probed, pre-filter, post-filter, and exact search
  // must return identical results for any filter.
  const Predicate filters[] = {
      Predicate::Compare("year", CompareOp::kGe, AttributeValue::Int(2020)),
      Predicate::Compare("score", CompareOp::kLt,
                         AttributeValue::Double(0.25)),
      Predicate::Match("tags", "special"),
      Predicate::And(
          {Predicate::Compare("city", CompareOp::kEq,
                              AttributeValue::String("seattle")),
           Predicate::Compare("year", CompareOp::kLt,
                              AttributeValue::Int(2010))}),
      Predicate::Or(
          {Predicate::Compare("city", CompareOp::kEq,
                              AttributeValue::String("katmandu")),
           Predicate::Match("tags", "special")}),
  };
  for (const Predicate& filter : filters) {
    const auto cmp = Compare(filter, 20);
    EXPECT_EQ(cmp.pre, cmp.exact) << filter.ToString();
    EXPECT_EQ(cmp.post_full_probe, cmp.exact) << filter.ToString();
  }
}

TEST_F(HybridTest, PreFilterRecallIsAlwaysFull) {
  // Pre-filtering is exact over the qualifying subset regardless of
  // nprobe (the paper's "guarantees 100% recall").
  SearchRequest req;
  req.query.assign(ds_.query(1), ds_.query(1) + kDim);
  req.k = 10;
  req.nprobe = 1;  // irrelevant for pre-filter
  req.filter = Predicate::Compare("city", CompareOp::kEq,
                                  AttributeValue::String("katmandu"));
  req.plan = PlanOverride::kForcePreFilter;
  auto pre = db_->Search(req).value();
  SearchRequest exact = req;
  exact.exact = true;
  exact.plan = PlanOverride::kAuto;
  auto truth = db_->Search(exact).value();
  ASSERT_EQ(pre.items.size(), truth.items.size());
  for (size_t i = 0; i < pre.items.size(); ++i) {
    EXPECT_EQ(pre.items[i].vid, truth.items[i].vid);
  }
}

TEST_F(HybridTest, PostFilterRecallDegradesOnSelectiveFilters) {
  // At small nprobe, a highly selective filter leaves post-filtering with
  // few qualifying candidates — the Fig. 7 recall collapse.
  SearchRequest req;
  req.query.assign(ds_.query(2), ds_.query(2) + kDim);
  req.k = 8;  // katmandu has kN/500 = 8 rows
  req.nprobe = 1;
  req.filter = Predicate::Compare("city", CompareOp::kEq,
                                  AttributeValue::String("katmandu"));
  req.plan = PlanOverride::kForcePostFilter;
  auto post = db_->Search(req).value();
  req.plan = PlanOverride::kForcePreFilter;
  auto pre = db_->Search(req).value();
  EXPECT_EQ(pre.items.size(), 8u);
  EXPECT_LT(post.items.size(), pre.items.size());
}

TEST_F(HybridTest, DoubleColumnRangeFilter) {
  SearchRequest req;
  req.query.assign(ds_.query(3), ds_.query(3) + kDim);
  req.k = 50;
  req.nprobe = 1000;
  req.filter = Predicate::And(
      {Predicate::Compare("score", CompareOp::kGe,
                          AttributeValue::Double(0.40)),
       Predicate::Compare("score", CompareOp::kLt,
                          AttributeValue::Double(0.45))});
  auto resp = db_->Search(req).value();
  EXPECT_FALSE(resp.items.empty());
  for (const auto& item : resp.items) {
    const uint64_t row = item.vid - 1;
    const double score = static_cast<double>(row % 100) / 100.0;
    EXPECT_GE(score, 0.40);
    EXPECT_LT(score, 0.45);
  }
}

TEST_F(HybridTest, NotEqualFilter) {
  const auto cmp = Compare(
      Predicate::Compare("city", CompareOp::kNe,
                         AttributeValue::String("seattle")),
      25);
  EXPECT_EQ(cmp.pre, cmp.exact);
  // != seattle should still yield plenty of rows (nyc + katmandu).
  EXPECT_EQ(cmp.exact.size(), 25u);
}

TEST_F(HybridTest, FilterMatchingNothing) {
  SearchRequest req;
  req.query.assign(ds_.query(4), ds_.query(4) + kDim);
  req.k = 5;
  req.filter = Predicate::Compare("year", CompareOp::kGt,
                                  AttributeValue::Int(9999));
  for (const PlanOverride plan :
       {PlanOverride::kForcePreFilter, PlanOverride::kForcePostFilter,
        PlanOverride::kAuto}) {
    req.plan = plan;
    auto resp = db_->Search(req).value();
    EXPECT_TRUE(resp.items.empty());
  }
}

TEST_F(HybridTest, TypeMismatchedFilterMatchesNothing) {
  // Comparing a string column against an int matches no rows (and is not
  // an execution error).
  SearchRequest req;
  req.query.assign(ds_.query(5), ds_.query(5) + kDim);
  req.k = 5;
  req.filter =
      Predicate::Compare("city", CompareOp::kEq, AttributeValue::Int(7));
  req.plan = PlanOverride::kForcePreFilter;
  auto resp = db_->Search(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->items.empty());
}

TEST_F(HybridTest, OptimizerReportsEstimates) {
  SearchRequest req;
  req.query.assign(ds_.query(6), ds_.query(6) + kDim);
  req.k = 5;
  req.filter = Predicate::Compare("city", CompareOp::kEq,
                                  AttributeValue::String("katmandu"));
  auto resp = db_->Search(req).value();
  // katmandu qualifies 8/4000 = 0.2%; F_IVF = 4 * 50 / 4000 = 5%.
  EXPECT_EQ(resp.explain.plan, QueryPlan::kPreFilter);
  EXPECT_LT(resp.explain.decision.filter_selectivity, 0.02);
  EXPECT_NEAR(resp.explain.decision.ivf_selectivity, 0.05, 0.001);
}

TEST_F(HybridTest, ExplainSurfacesPlanAndCounters) {
  SearchRequest req;
  req.query.assign(ds_.query(6), ds_.query(6) + kDim);
  req.k = 5;
  req.filter = Predicate::Compare("city", CompareOp::kEq,
                                  AttributeValue::String("katmandu"));
  auto resp = db_->Search(req).value();
  // katmandu is selective: optimizer picks pre-filter, explain agrees.
  EXPECT_EQ(resp.explain.plan, QueryPlan::kPreFilter);
  EXPECT_TRUE(resp.explain.optimized);
  EXPECT_EQ(resp.explain.candidates, kN / 500);
  EXPECT_EQ(resp.explain.group_size, 1u);
  EXPECT_FALSE(resp.explain.shared_scan);
  const std::string text = resp.explain.ToString();
  EXPECT_NE(text.find("plan=pre-filter"), std::string::npos) << text;
  EXPECT_NE(text.find("candidates="), std::string::npos) << text;
  EXPECT_NE(text.find("est["), std::string::npos) << text;

  // A plain unfiltered query reports its true strategy (not the
  // misleading "post-filter" of the old two-value enum).
  SearchRequest plain;
  plain.query.assign(ds_.query(6), ds_.query(6) + kDim);
  plain.k = 5;
  auto plain_resp = db_->Search(plain).value();
  EXPECT_EQ(plain_resp.explain.plan, QueryPlan::kUnfiltered);
  EXPECT_FALSE(plain_resp.explain.optimized);
  EXPECT_EQ(plain_resp.explain.nprobe, 4u);  // default_nprobe
  EXPECT_EQ(plain_resp.explain.probe_pairs, 4u);

  SearchRequest exact = plain;
  exact.exact = true;
  auto exact_resp = db_->Search(exact).value();
  EXPECT_EQ(exact_resp.explain.plan, QueryPlan::kExact);
  EXPECT_EQ(exact_resp.explain.rows_scanned, kN);
}

TEST_F(HybridTest, BatchOfHybridQueriesMatchesSingle) {
  // A batch mixing every hybrid shape — auto plans that resolve to pre-
  // AND post-filtering, forced plans, FTS filters, plus an unfiltered
  // query — returns results identical to per-query Search.
  std::vector<SearchRequest> requests;
  auto base = [&](size_t qi) {
    SearchRequest req;
    req.query.assign(ds_.query(qi), ds_.query(qi) + kDim);
    req.k = 20;
    req.nprobe = 4;
    return req;
  };
  SearchRequest r0 = base(0);  // auto -> pre-filter (selective)
  r0.filter = Predicate::Compare("city", CompareOp::kEq,
                                 AttributeValue::String("katmandu"));
  SearchRequest r1 = base(1);  // auto -> post-filter (broad)
  r1.filter = Predicate::Compare("city", CompareOp::kEq,
                                 AttributeValue::String("seattle"));
  SearchRequest r2 = base(2);  // FTS MATCH filter
  r2.filter = Predicate::Match("tags", "special");
  SearchRequest r3 = base(3);  // forced post-filter on a selective pred
  r3.filter = Predicate::Compare("city", CompareOp::kEq,
                                 AttributeValue::String("katmandu"));
  r3.plan = PlanOverride::kForcePostFilter;
  SearchRequest r4 = base(4);  // unfiltered rider
  SearchRequest r5 = base(5);  // predicate tree
  r5.filter = Predicate::And(
      {Predicate::Compare("year", CompareOp::kGe, AttributeValue::Int(2010)),
       Predicate::Compare("score", CompareOp::kLt,
                          AttributeValue::Double(0.5))});
  requests = {r0, r1, r2, r3, r4, r5};

  auto batched = db_->BatchSearch(requests).value();
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t q = 0; q < requests.size(); ++q) {
    const auto single = db_->Search(requests[q]).value();
    ASSERT_EQ(batched[q].items.size(), single.items.size()) << q;
    for (size_t i = 0; i < single.items.size(); ++i) {
      EXPECT_EQ(batched[q].items[i].vid, single.items[i].vid)
          << "q=" << q << " i=" << i;
      EXPECT_EQ(batched[q].items[i].distance, single.items[i].distance)
          << "q=" << q << " i=" << i;
    }
    EXPECT_EQ(batched[q].explain.plan, single.explain.plan) << q;
    EXPECT_EQ(batched[q].explain.partitions_scanned,
              single.explain.partitions_scanned) << q;
    EXPECT_EQ(batched[q].explain.rows_scanned, single.explain.rows_scanned)
        << q;
    EXPECT_EQ(batched[q].explain.rows_filtered, single.explain.rows_filtered)
        << q;
  }
  EXPECT_EQ(batched[0].explain.plan, QueryPlan::kPreFilter);
  EXPECT_EQ(batched[1].explain.plan, QueryPlan::kPostFilter);
  EXPECT_EQ(batched[3].explain.plan, QueryPlan::kPostFilter);
  EXPECT_EQ(batched[4].explain.plan, QueryPlan::kUnfiltered);
}

TEST_F(HybridTest, HybridSearchAfterMaintain) {
  // Filters keep working for vectors that moved from delta to partitions.
  AttributeRecord attrs;
  attrs["city"] = AttributeValue::String("katmandu");
  attrs["year"] = AttributeValue::Int(2030);
  std::vector<UpsertRequest> fresh;
  for (int i = 0; i < 20; ++i) {
    UpsertRequest req;
    req.asset_id = "fresh" + std::to_string(i);
    req.vector.assign(ds_.query(7), ds_.query(7) + kDim);
    req.vector[0] += 0.001f * static_cast<float>(i);
    req.attributes = attrs;
    fresh.push_back(std::move(req));
  }
  ASSERT_TRUE(db_->Upsert(fresh).ok());
  ASSERT_TRUE(db_->Maintain().ok());
  SearchRequest req;
  req.query.assign(ds_.query(7), ds_.query(7) + kDim);
  req.k = 20;
  req.nprobe = 8;
  req.filter = Predicate::Compare("year", CompareOp::kGe,
                                  AttributeValue::Int(2030));
  auto resp = db_->Search(req).value();
  EXPECT_EQ(resp.items.size(), 20u);
  for (const auto& item : resp.items) {
    EXPECT_TRUE(item.asset_id.starts_with("fresh"));
  }
}

}  // namespace
}  // namespace micronn
