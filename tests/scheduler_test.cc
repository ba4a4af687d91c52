// Cross-request MQO admission scheduler: concurrent/sequential parity
// under randomized mixed workloads, fast-path behavior for lone clients,
// the group-size cap under concurrent batches, coalescing observability,
// and per-submission error isolation inside a coalesced group.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <random>
#include <thread>
#include <vector>

#include "core/db.h"
#include "datagen/dataset.h"
#include "query/predicate.h"

namespace micronn {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 16;
  static constexpr size_t kRows = 1200;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_sched_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = dir_ / "test.mnn";

    DatasetSpec spec;
    spec.name = "sched";
    spec.dim = kDim;
    spec.n = kRows;
    spec.n_queries = 64;
    spec.seed = 1234;
    ds_ = GenerateDataset(spec);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DbOptions Options() {
    DbOptions options;
    options.dim = kDim;
    options.target_cluster_size = 50;
    options.minibatch_size = 256;
    options.train_iterations = 10;
    options.default_nprobe = 4;
    options.rebuild_chunk_rows = 512;
    options.search_threads = 2;
    return options;
  }

  // Creates + populates the database file once (bucket attribute i % 5),
  // builds the index and the optimizer statistics, then closes it so each
  // test starts from a freshly opened database.
  void BuildDatabase() {
    auto db = DB::Open(path_, Options()).value();
    std::vector<UpsertRequest> batch;
    for (size_t i = 0; i < kRows; ++i) {
      UpsertRequest req;
      req.asset_id = "a" + std::to_string(i);
      req.vector.assign(ds_.row(i), ds_.row(i) + kDim);
      req.attributes["bucket"] =
          AttributeValue::Int(static_cast<int64_t>(i % 5));
      batch.push_back(std::move(req));
      if (batch.size() == 500) {
        ASSERT_TRUE(db->Upsert(batch).ok());
        batch.clear();
      }
    }
    if (!batch.empty()) ASSERT_TRUE(db->Upsert(batch).ok());
    ASSERT_TRUE(db->BuildIndex().ok());
    ASSERT_TRUE(db->AnalyzeStats().ok());
    ASSERT_TRUE(db->Close().ok());
  }

  // Randomized mixed request: filtered / exact / heterogeneous (k,
  // nprobe) / quantized-override, deterministic for a seed.
  SearchRequest RandomRequest(std::mt19937* rng) {
    SearchRequest req;
    const size_t qi = (*rng)() % ds_.spec.n_queries;
    req.query.assign(ds_.query(qi), ds_.query(qi) + kDim);
    req.k = 1 + (*rng)() % 15;
    req.nprobe = 1 + (*rng)() % 6;
    switch ((*rng)() % 8) {
      case 0:
        req.exact = true;
        break;
      case 1:
      case 2:
        req.filter = Predicate::Compare(
            "bucket", CompareOp::kEq,
            AttributeValue::Int(static_cast<int64_t>((*rng)() % 5)));
        break;
      default:
        break;
    }
    if ((*rng)() % 4 == 0) req.quantized = false;
    return req;
  }

  static void ExpectSameResponse(const SearchResponse& got,
                                 const SearchResponse& want, size_t q) {
    ASSERT_EQ(got.items.size(), want.items.size()) << "q=" << q;
    for (size_t i = 0; i < want.items.size(); ++i) {
      EXPECT_EQ(got.items[i].vid, want.items[i].vid) << "q=" << q << " " << i;
      EXPECT_EQ(got.items[i].asset_id, want.items[i].asset_id)
          << "q=" << q << " " << i;
      // Bit-identical distances: shared scans and dedicated scans run the
      // same kernels over the same snapshot.
      EXPECT_EQ(got.items[i].distance, want.items[i].distance)
          << "q=" << q << " " << i;
    }
    EXPECT_EQ(got.explain.plan, want.explain.plan) << "q=" << q;
    EXPECT_EQ(got.explain.decision.plan, want.explain.decision.plan)
        << "q=" << q;
    // True per-query counters are independent of how the group was
    // assembled around the query.
    EXPECT_EQ(got.explain.partitions_scanned, want.explain.partitions_scanned)
        << "q=" << q;
    EXPECT_EQ(got.explain.rows_scanned, want.explain.rows_scanned) << "q=" << q;
    EXPECT_EQ(got.explain.rows_filtered, want.explain.rows_filtered)
        << "q=" << q;
    EXPECT_EQ(got.explain.probe_pairs, want.explain.probe_pairs) << "q=" << q;
    EXPECT_EQ(got.explain.quantized, want.explain.quantized) << "q=" << q;
    EXPECT_EQ(got.explain.rerank_candidates, want.explain.rerank_candidates)
        << "q=" << q;
  }

  std::filesystem::path dir_;
  std::filesystem::path path_;
  Dataset ds_;
};

// The acceptance stress test: N threads issue randomized mixed searches
// concurrently through the scheduler; every response must be bit-identical
// to the same request run alone, sequentially from one thread.
TEST_F(SchedulerTest, ConcurrentMatchesSequentialStress) {
  BuildDatabase();

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 40;
  std::vector<std::vector<SearchRequest>> requests(kThreads);
  std::mt19937 rng(99);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      requests[t].push_back(RandomRequest(&rng));
    }
  }

  auto db = DB::Open(path_, Options()).value();
  // Baseline: strictly sequential, so every request is a group of one.
  std::vector<std::vector<SearchResponse>> baseline(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    for (const SearchRequest& req : requests[t]) {
      baseline[t].push_back(db->Search(req).value());
      EXPECT_EQ(baseline[t].back().explain.coalesced_group_size, 1u);
    }
  }

  // Concurrent run: the same requests, now coalescing.
  std::vector<std::vector<SearchResponse>> got(kThreads);
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load()) std::this_thread::yield();
      for (const SearchRequest& req : requests[t]) {
        got[t].push_back(db->Search(req).value());
      }
    });
  }
  start.store(true);
  for (auto& th : threads) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), baseline[t].size());
    for (size_t q = 0; q < got[t].size(); ++q) {
      ExpectSameResponse(got[t][q], baseline[t][q], t * 1000 + q);
    }
  }
  // Under 8 threads of sustained traffic, at least some groups must have
  // actually coalesced — otherwise the scheduler is not doing its job.
  EXPECT_GT(db->scheduler_stats().coalesced_groups.load(), 0u);
  ASSERT_TRUE(db->Close().ok());
}

// A lone client takes the fast path: every submission leads immediately
// and nothing coalesces.
TEST_F(SchedulerTest, SingleClientFastPath) {
  BuildDatabase();
  auto db = DB::Open(path_, Options()).value();
  std::mt19937 rng(13);
  for (size_t i = 0; i < 30; ++i) {
    auto resp = db->Search(RandomRequest(&rng)).value();
    EXPECT_EQ(resp.explain.coalesced_group_size, 1u);
  }
  const SchedulerStats& stats = db->scheduler_stats();
  EXPECT_EQ(stats.submissions.load(), 30u);
  EXPECT_EQ(stats.groups.load(), 30u);
  EXPECT_EQ(stats.coalesced_groups.load(), 0u);
  ASSERT_TRUE(db->Close().ok());
}

// A BatchSearch submission is never split by the group-size cap, and a
// single-threaded batch reports the executed group it formed by itself.
TEST_F(SchedulerTest, BatchSubmissionIsNotSplit) {
  BuildDatabase();
  auto db = DB::Open(path_, Options()).value();
  // Above the group-size cap.
  std::vector<SearchRequest> batch(100);
  ASSERT_GT(batch.size(), QueryScheduler::kMaxGroupQueries);
  for (size_t q = 0; q < batch.size(); ++q) {
    const size_t qi = q % ds_.spec.n_queries;
    batch[q].query.assign(ds_.query(qi), ds_.query(qi) + kDim);
    batch[q].k = 5;
  }
  auto responses = db->BatchSearch(batch).value();
  ASSERT_EQ(responses.size(), batch.size());
  for (const SearchResponse& resp : responses) {
    EXPECT_EQ(resp.explain.group_size, 100u);
    EXPECT_EQ(resp.explain.coalesced_group_size, 1u);
  }
  ASSERT_TRUE(db->Close().ok());
}

// Concurrent BatchSearch submissions coalesce only up to the group-size
// cap: a group of several submissions never exceeds kMaxGroupQueries
// queries, and a submission above the cap runs as a group of its own.
// Every answer still matches the same batch run alone.
TEST_F(SchedulerTest, ConcurrentBatchesRespectGroupCap) {
  BuildDatabase();
  constexpr size_t kThreads = 4;
  constexpr size_t kBatches = 10;
  constexpr size_t kBatchSize = 24;  // two fit under the cap, three do not
  // One thread submits batches above the cap.
  constexpr size_t kLargeBatchSize = QueryScheduler::kMaxGroupQueries + 6;
  std::vector<std::vector<std::vector<SearchRequest>>> batches(kThreads);
  std::mt19937 rng(31);
  for (size_t t = 0; t < kThreads; ++t) {
    const size_t size = t == 0 ? kLargeBatchSize : kBatchSize;
    for (size_t b = 0; b < kBatches; ++b) {
      batches[t].emplace_back();
      for (size_t q = 0; q < size; ++q) {
        batches[t].back().push_back(RandomRequest(&rng));
      }
    }
  }

  auto db = DB::Open(path_, Options()).value();
  std::vector<std::vector<std::vector<SearchResponse>>> baseline(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    for (const auto& batch : batches[t]) {
      baseline[t].push_back(db->BatchSearch(batch).value());
    }
  }

  // Scheduling decides whether submissions overlap at all, so repeat the
  // concurrent pass until some group coalesced (the cap is otherwise
  // untested).
  const uint64_t coalesced_before = db->scheduler_stats().coalesced_groups;
  for (int round = 0;
       round < 20 && db->scheduler_stats().coalesced_groups == coalesced_before;
       ++round) {
    std::vector<std::vector<std::vector<SearchResponse>>> got(kThreads);
    std::atomic<bool> start{false};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!start.load()) std::this_thread::yield();
        for (const auto& batch : batches[t]) {
          got[t].push_back(db->BatchSearch(batch).value());
        }
      });
    }
    start.store(true);
    for (auto& th : threads) th.join();

    for (size_t t = 0; t < kThreads; ++t) {
      for (size_t b = 0; b < kBatches; ++b) {
        const size_t own = batches[t][b].size();
        ASSERT_EQ(got[t][b].size(), own);
        for (size_t q = 0; q < own; ++q) {
          const QueryExplain& ex = got[t][b][q].explain;
          if (own > QueryScheduler::kMaxGroupQueries) {
            EXPECT_EQ(ex.group_size, own);
            EXPECT_EQ(ex.coalesced_group_size, 1u);
          } else {
            EXPECT_LE(ex.group_size, QueryScheduler::kMaxGroupQueries);
            EXPECT_GE(ex.group_size, own);
          }
          ExpectSameResponse(got[t][b][q], baseline[t][b][q],
                             (t * 100 + b) * 1000 + q);
        }
      }
    }
  }
  EXPECT_GT(db->scheduler_stats().coalesced_groups.load(), coalesced_before);
  ASSERT_TRUE(db->Close().ok());
}

// An invalid request inside a coalesced group fails only its own
// submission; concurrent peers are unaffected.
TEST_F(SchedulerTest, InvalidRequestFailsOnlyItsSubmission) {
  BuildDatabase();
  auto db = DB::Open(path_, Options()).value();

  std::atomic<bool> start{false};
  std::atomic<uint64_t> ok_count{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(100 + t);
      while (!start.load()) std::this_thread::yield();
      for (size_t i = 0; i < 30; ++i) {
        if (t == 0) {
          SearchRequest bad;
          bad.query.assign(kDim + 3, 0.5f);  // wrong dimension
          bad.k = 5;
          auto r = db->Search(bad);
          EXPECT_FALSE(r.ok());
          EXPECT_TRUE(r.status().IsInvalidArgument());
        } else {
          auto r = db->Search(RandomRequest(&rng));
          EXPECT_TRUE(r.ok());
          if (r.ok()) ok_count.fetch_add(1);
        }
      }
    });
  }
  start.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), 3u * 30u);
  ASSERT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace micronn
