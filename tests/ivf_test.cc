// IVF module tests: clustering (Algorithm 1), schema codecs, partition
// scans, ANN and exact plans through the query executor (Algorithm 2),
// the in-memory baseline, maintenance policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>

#include "common/memory_tracker.h"
#include "common/rng.h"
#include "datagen/dataset.h"
#include "numerics/distance.h"
#include "ivf/in_memory_index.h"
#include "ivf/kmeans.h"
#include "ivf/maintenance.h"
#include "ivf/schema.h"
#include "ivf/search.h"
#include "query/executor.h"
#include "storage/engine.h"
#include "storage/key_encoding.h"

namespace micronn {
namespace {

TEST(SchemaTest, VectorKeyRoundTrip) {
  const std::string k = VectorKey(7, 123456789);
  uint32_t partition;
  uint64_t vid;
  ASSERT_TRUE(ParseVectorKey(k, &partition, &vid).ok());
  EXPECT_EQ(partition, 7u);
  EXPECT_EQ(vid, 123456789u);
  EXPECT_FALSE(ParseVectorKey("short", &partition, &vid).ok());
}

TEST(SchemaTest, PartitionPrefixOrdersKeys) {
  // All keys of partition p share a prefix, and partitions are contiguous.
  EXPECT_LT(VectorKey(1, UINT64_MAX), VectorKey(2, 0));
  EXPECT_TRUE(VectorKey(3, 42).starts_with(PartitionPrefix(3)));
}

TEST(SchemaTest, VectorRowRoundTrip) {
  const std::vector<float> v = {1.f, 2.f, 3.f};
  const std::string row = EncodeVectorRow("asset-1", v.data(), 3);
  VectorRow out;
  ASSERT_TRUE(DecodeVectorRow(row, 3, &out).ok());
  EXPECT_EQ(out.asset_id, "asset-1");
  const float* decoded =
      reinterpret_cast<const float*>(out.vector_blob.data());
  EXPECT_EQ(decoded[2], 3.f);
  EXPECT_FALSE(DecodeVectorRow(row, 4, &out).ok());
}

TEST(SchemaTest, CentroidRowRoundTrip) {
  const std::vector<float> c = {0.5f, -0.5f};
  const std::string row = EncodeCentroidRow(42, c.data(), 2);
  CentroidRow out;
  ASSERT_TRUE(DecodeCentroidRow(row, 2, &out).ok());
  EXPECT_EQ(out.count, 42u);
  EXPECT_EQ(out.centroid[1], -0.5f);
}

// --- Clustering ---

// Builds a well-separated 2-D mixture for clustering sanity checks.
std::vector<float> MakeBlobs(size_t n, size_t blobs, float spread,
                             uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(n * 2);
  for (size_t i = 0; i < n; ++i) {
    const size_t b = i % blobs;
    const float cx = static_cast<float>(b % 4) * 10.f;
    const float cy = static_cast<float>(b / 4) * 10.f;
    data[i * 2] = cx + spread * static_cast<float>(rng.NextGaussian());
    data[i * 2 + 1] = cy + spread * static_cast<float>(rng.NextGaussian());
  }
  return data;
}

TEST(KMeansTest, FullKMeansFindsBlobs) {
  const auto data = MakeBlobs(2000, 8, 0.3f, 1);
  ClusteringConfig config;
  // Over-provision k relative to the 8 blobs: random-init Lloyd can merge
  // blobs at k == #blobs, which is an init artifact, not a code bug.
  config.k = 16;
  config.dim = 2;
  config.iterations = 25;
  config.seed = 7;
  auto centroids = TrainFullKMeans(config, data.data(), 2000).value();
  // Every point should be within ~1.5 of its centroid (blob std 0.3).
  double worst = 0;
  for (size_t i = 0; i < 2000; ++i) {
    const uint32_t c = NearestCentroid(centroids, data.data() + i * 2);
    worst = std::max(worst, static_cast<double>(std::sqrt(
                                L2Squared(data.data() + i * 2,
                                          centroids.row(c), 2))));
  }
  EXPECT_LT(worst, 3.0);
}

TEST(KMeansTest, MiniBatchApproachesFullQuality) {
  const auto data = MakeBlobs(5000, 8, 0.4f, 2);
  ClusteringConfig config;
  config.k = 8;
  config.dim = 2;
  config.iterations = 60;
  config.minibatch_size = 256;
  config.seed = 3;
  MemoryVectorSampler sampler(data.data(), 5000, 2, 11);
  auto centroids = TrainMiniBatchKMeans(config, &sampler).value();
  // Mean quantization error should be small relative to blob distance (10).
  double total = 0;
  for (size_t i = 0; i < 5000; ++i) {
    const uint32_t c = NearestCentroid(centroids, data.data() + i * 2);
    total += std::sqrt(L2Squared(data.data() + i * 2, centroids.row(c), 2));
  }
  EXPECT_LT(total / 5000, 2.0);
}

TEST(KMeansTest, BalancePenaltyReducesVariance) {
  // Skewed data: one dominant blob. With balancing, partition sizes spread.
  Rng rng(5);
  const size_t n = 4000;
  std::vector<float> data(n * 2);
  for (size_t i = 0; i < n; ++i) {
    // 70% of mass in one blob, the rest spread over 7 others.
    const size_t b = (rng.Uniform(10) < 7) ? 0 : 1 + rng.Uniform(7);
    data[i * 2] = static_cast<float>(b % 4) * 8.f +
                  0.5f * static_cast<float>(rng.NextGaussian());
    data[i * 2 + 1] = static_cast<float>(b / 4) * 8.f +
                      0.5f * static_cast<float>(rng.NextGaussian());
  }
  auto size_cv = [&](float lambda) {
    ClusteringConfig config;
    config.k = 16;
    config.dim = 2;
    config.iterations = 80;
    config.minibatch_size = 256;
    config.balance_lambda = lambda;
    config.seed = 9;
    MemoryVectorSampler sampler(data.data(), n, 2, 13);
    auto centroids = TrainMiniBatchKMeans(config, &sampler).value();
    std::vector<uint32_t> assign;
    AssignBlock(centroids, data.data(), n, &assign);
    std::vector<double> counts(config.k, 0);
    for (uint32_t a : assign) counts[a] += 1;
    const double mean = static_cast<double>(n) / config.k;
    double var = 0;
    for (double c : counts) var += (c - mean) * (c - mean);
    return std::sqrt(var / config.k) / mean;
  };
  const double cv_unbalanced = size_cv(0.f);
  const double cv_balanced = size_cv(1.0f);
  EXPECT_LT(cv_balanced, cv_unbalanced);
}

TEST(KMeansTest, DeterministicForSeed) {
  const auto data = MakeBlobs(1000, 4, 0.3f, 4);
  ClusteringConfig config;
  config.k = 4;
  config.dim = 2;
  config.iterations = 20;
  config.minibatch_size = 128;
  config.seed = 21;
  MemoryVectorSampler s1(data.data(), 1000, 2, 17);
  MemoryVectorSampler s2(data.data(), 1000, 2, 17);
  auto c1 = TrainMiniBatchKMeans(config, &s1).value();
  auto c2 = TrainMiniBatchKMeans(config, &s2).value();
  EXPECT_EQ(c1.data, c2.data);
}

TEST(KMeansTest, CosineCentroidsStayNormalized) {
  Dataset ds = GenerateDataset(
      {"cosine", 16, Metric::kCosine, 2000, 10, 16, 0.2f, 6});
  ClusteringConfig config;
  config.k = 16;
  config.dim = 16;
  config.metric = Metric::kCosine;
  config.iterations = 30;
  config.minibatch_size = 256;
  config.seed = 8;
  MemoryVectorSampler sampler(ds.data.data(), 2000, 16, 19);
  auto centroids = TrainMiniBatchKMeans(config, &sampler).value();
  for (uint32_t j = 0; j < centroids.k; ++j) {
    EXPECT_NEAR(Norm(centroids.row(j), 16), 1.0f, 1e-3f);
  }
}

TEST(KMeansTest, KLargerThanDatasetStillWorks) {
  const auto data = MakeBlobs(10, 2, 0.1f, 11);
  ClusteringConfig config;
  config.k = 32;
  config.dim = 2;
  config.iterations = 5;
  config.minibatch_size = 8;
  MemoryVectorSampler sampler(data.data(), 10, 2, 23);
  auto centroids = TrainMiniBatchKMeans(config, &sampler);
  ASSERT_TRUE(centroids.ok());
  EXPECT_EQ(centroids->k, 32u);
}

TEST(KMeansTest, InvalidConfigRejected) {
  MemoryVectorSampler sampler(nullptr, 0, 2, 1);
  ClusteringConfig config;
  config.k = 0;
  config.dim = 2;
  EXPECT_FALSE(TrainMiniBatchKMeans(config, &sampler).ok());
  config.k = 2;
  config.dim = 0;
  EXPECT_FALSE(TrainMiniBatchKMeans(config, &sampler).ok());
}

// --- Disk search over hand-built tables ---

class IvfSearchTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 8;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_ivfsearch_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    engine_ = StorageEngine::Open(dir_ / "db").value();
  }
  void TearDown() override {
    engine_.reset();
    std::filesystem::remove_all(dir_);
  }

  // Builds a 3-partition index with synthetic contents plus a delta row.
  void PopulateSimpleIndex() {
    auto txn = engine_->BeginWrite().value();
    BTree vectors = txn->OpenOrCreateTable(kVectorsTable).value();
    BTree vidmap = txn->OpenOrCreateTable(kVidMapTable).value();
    BTree centroids = txn->OpenOrCreateTable(kCentroidsTable).value();
    BTree meta = txn->OpenOrCreateTable(kMetaTable).value();
    // Partition p centered at (10p, 0, ...): 50 vectors each.
    uint64_t vid = 1;
    Rng rng(3);
    for (uint32_t p = 1; p <= 3; ++p) {
      std::vector<float> centroid(kDim, 0.f);
      centroid[0] = 10.f * p;
      for (int i = 0; i < 50; ++i, ++vid) {
        std::vector<float> v(kDim);
        for (uint32_t d = 0; d < kDim; ++d) {
          v[d] = centroid[d] + 0.5f * static_cast<float>(rng.NextGaussian());
        }
        ASSERT_TRUE(vectors
                        .Put(VectorKey(p, vid),
                             EncodeVectorRow("a" + std::to_string(vid),
                                             v.data(), kDim))
                        .ok());
        ASSERT_TRUE(
            vidmap.Put(key::U64(vid), EncodeVidMapValue(p)).ok());
      }
      ASSERT_TRUE(centroids
                      .Put(key::U32(p),
                           EncodeCentroidRow(50, centroid.data(), kDim))
                      .ok());
    }
    // One delta row near partition 2's center but newer.
    std::vector<float> fresh(kDim, 0.f);
    fresh[0] = 20.f;
    ASSERT_TRUE(vectors
                    .Put(VectorKey(kDeltaPartition, 999),
                         EncodeVectorRow("fresh", fresh.data(), kDim))
                    .ok());
    ASSERT_TRUE(vidmap.Put(key::U64(999),
                           EncodeVidMapValue(kDeltaPartition)).ok());
    ASSERT_TRUE(MetaPutU64(&meta, kMetaIndexVersion, 1).ok());
    ASSERT_TRUE(MetaPutU64(&meta, kMetaDeltaCount, 1).ok());
    ASSERT_TRUE(engine_->Commit(std::move(txn)).ok());
  }

  static PhysicalPlan Plan(QueryPlan kind, std::vector<float> query,
                           uint32_t k, uint32_t nprobe = 0) {
    PhysicalPlan plan;
    plan.query = std::move(query);
    plan.k = k;
    plan.nprobe = nprobe;
    plan.plan = kind;
    return plan;
  }

  // Runs `plan` through the query executor over a fresh read snapshot —
  // the path DB::Search takes once a request is lowered.
  PlanResult Execute(const PhysicalPlan& plan, ThreadPool* pool = nullptr) {
    auto txn = engine_->BeginRead().value();
    BTree centroids = txn->OpenTable(kCentroidsTable).value();
    BTree meta = txn->OpenTable(kMetaTable).value();
    const CentroidSet cset = LoadCentroidSet(txn->view(), centroids, meta,
                                             kDim, Metric::kL2)
                                 .value();
    QueryExecutor executor(ExecutorContext{
        .vectors = txn->OpenTable(kVectorsTable).value(),
        .vidmap = txn->OpenTable(kVidMapTable).value(),
        .centroids = &cset,
        .dim = kDim,
        .metric = Metric::kL2,
        .pool = pool,
        .sq8 = std::nullopt,
        .sq8params = std::nullopt,
        .attributes = std::nullopt});
    Result<std::vector<PlanResult>> results =
        executor.Execute({plan}, nullptr);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    if (!results.ok()) return PlanResult{};
    return std::move((*results)[0]);
  }

  std::filesystem::path dir_;
  std::unique_ptr<StorageEngine> engine_;
};

TEST_F(IvfSearchTest, CentroidSetLoads) {
  PopulateSimpleIndex();
  auto txn = engine_->BeginRead().value();
  BTree centroids = txn->OpenTable(kCentroidsTable).value();
  BTree meta = txn->OpenTable(kMetaTable).value();
  auto set = LoadCentroidSet(txn->view(), centroids, meta, kDim,
                             Metric::kL2).value();
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.index_version, 1u);
  EXPECT_EQ(set.TotalCount(), 150u);
  std::vector<float> q(kDim, 0.f);
  q[0] = 19.f;
  const auto probe = set.FindNearestPartitions(q.data(), 2);
  ASSERT_EQ(probe.size(), 2u);
  EXPECT_EQ(probe[0], 2u);  // nearest centroid is partition 2
}

TEST_F(IvfSearchTest, ScanPartitionSeesOnlyItsRows) {
  PopulateSimpleIndex();
  auto txn = engine_->BeginRead().value();
  BTree vectors = txn->OpenTable(kVectorsTable).value();
  size_t rows = 0;
  ScanCounters counters;
  ASSERT_TRUE(ScanPartition(vectors, 2, kDim, nullptr,
                            [&](const ScanBlock& b) {
                              rows += b.count;
                              return Status::OK();
                            },
                            &counters)
                  .ok());
  EXPECT_EQ(rows, 50u);
  EXPECT_EQ(counters.rows_scanned, 50u);
}

TEST_F(IvfSearchTest, AnnPlanFindsNearestAndDelta) {
  PopulateSimpleIndex();
  std::vector<float> q(kDim, 0.f);
  q[0] = 20.f;  // dead center of partition 2; the delta row sits exactly here
  const PlanResult r = Execute(Plan(QueryPlan::kUnfiltered, q, 5, 1));
  ASSERT_EQ(r.neighbors.size(), 5u);
  // The delta vector is an exact match: distance 0, ranked first.
  EXPECT_EQ(r.neighbors[0].id, 999u);
  EXPECT_FLOAT_EQ(r.neighbors[0].distance, 0.f);
  EXPECT_EQ(r.counters.partitions_scanned, 2u);  // 1 probe + delta
}

TEST_F(IvfSearchTest, RecallImprovesWithNprobe) {
  PopulateSimpleIndex();
  // Query between partitions 1 and 2: a single probe misses neighbors.
  std::vector<float> q(kDim, 0.f);
  q[0] = 15.f;
  const PlanResult truth = Execute(Plan(QueryPlan::kExact, q, 20));
  ASSERT_EQ(truth.neighbors.size(), 20u);
  double prev_recall = -1;
  for (uint32_t nprobe : {1u, 2u, 3u}) {
    const PlanResult got = Execute(Plan(QueryPlan::kUnfiltered, q, 20, nprobe));
    const double recall = RecallAtK(got.neighbors, truth.neighbors);
    EXPECT_GE(recall, prev_recall);  // monotonically non-decreasing
    prev_recall = recall;
  }
  EXPECT_DOUBLE_EQ(prev_recall, 1.0);  // all partitions scanned = exact
}

TEST_F(IvfSearchTest, FilterDropsRowsBeforeHeap) {
  PopulateSimpleIndex();
  std::vector<float> q(kDim, 0.f);
  q[0] = 20.f;
  PhysicalPlan plan = Plan(QueryPlan::kPostFilter, q, 10, 1);
  plan.filter = std::make_shared<const RowFilter>(
      [](uint64_t vid) -> Result<bool> { return vid % 2 == 0; });
  const PlanResult r = Execute(plan);
  ASSERT_FALSE(r.neighbors.empty());
  for (const Neighbor& n : r.neighbors) {
    EXPECT_EQ(n.id % 2, 0u);
  }
  EXPECT_GT(r.counters.rows_filtered, 0u);
}

TEST_F(IvfSearchTest, SearchByVidsIsExactOverSubset) {
  PopulateSimpleIndex();
  auto txn = engine_->BeginRead().value();
  BTree vectors = txn->OpenTable(kVectorsTable).value();
  BTree vidmap = txn->OpenTable(kVidMapTable).value();
  std::vector<float> q(kDim, 0.f);
  q[0] = 10.f;
  const std::vector<uint64_t> subset = {1, 2, 3, 60, 61, 999, 424242};
  auto result = SearchByVids(vectors, vidmap, Metric::kL2, kDim, q.data(), 3,
                             subset, /*pool=*/nullptr, nullptr).value();
  ASSERT_EQ(result.size(), 3u);
  // Result ids must come from the subset (the absent 424242 is skipped).
  for (const Neighbor& n : result) {
    EXPECT_TRUE(std::find(subset.begin(), subset.end(), n.id) !=
                subset.end());
    EXPECT_NE(n.id, 424242u);
  }
}

TEST_F(IvfSearchTest, ExactPlanRecordsEachRowsPartition) {
  // Scan blocks of the exhaustive scan would span the small partitions
  // here unless they flush at every partition change.
  PopulateSimpleIndex();
  std::vector<float> q(kDim, 0.f);
  const PlanResult all = Execute(Plan(QueryPlan::kExact, q, 1000));
  ASSERT_EQ(all.neighbors.size(), 151u);
  auto txn = engine_->BeginRead().value();
  BTree vidmap = txn->OpenTable(kVidMapTable).value();
  for (const Neighbor& n : all.neighbors) {
    auto loc = vidmap.Get(key::U64(n.id)).value();
    ASSERT_TRUE(loc.has_value());
    uint32_t partition;
    ASSERT_TRUE(DecodeVidMapValue(*loc, &partition).ok());
    EXPECT_EQ(n.partition, partition) << "vid " << n.id;
  }
}

TEST_F(IvfSearchTest, SearchByLocationsReadsRecordedRows) {
  PopulateSimpleIndex();
  auto txn = engine_->BeginRead().value();
  BTree vectors = txn->OpenTable(kVectorsTable).value();
  BTree vidmap = txn->OpenTable(kVidMapTable).value();
  std::vector<float> q(kDim, 0.f);
  q[0] = 20.f;
  // Vids 1..50 live in partition 1, 51..100 in 2, 999 in the delta.
  const std::vector<RowLocation> rows = {
      {kDeltaPartition, 999}, {1, 3}, {1, 40}, {2, 51}, {2, 77}, {3, 150}};
  auto got = SearchByLocations(vectors, Metric::kL2, kDim, q.data(), 10, rows,
                               /*pool=*/nullptr, nullptr)
                 .value();
  auto via_vidmap =
      SearchByVids(vectors, vidmap, Metric::kL2, kDim, q.data(), 10,
                   {3, 40, 51, 77, 150, 999}, /*pool=*/nullptr, nullptr)
          .value();
  ASSERT_EQ(got.size(), rows.size());
  EXPECT_EQ(got, via_vidmap);
  for (const Neighbor& n : got) {
    const auto it = std::find_if(rows.begin(), rows.end(), [&](auto& r) {
      return r.second == n.id;
    });
    ASSERT_NE(it, rows.end());
    EXPECT_EQ(n.partition, it->first) << "vid " << n.id;
  }

  // A row absent from its recorded location is corruption, named by vid
  // and partition.
  const std::vector<RowLocation> wrong = {{1, 3}, {2, 40}};
  auto missing = SearchByLocations(vectors, Metric::kL2, kDim, q.data(), 10,
                                   wrong, /*pool=*/nullptr, nullptr);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsCorruption());
  EXPECT_NE(missing.status().ToString().find("vid 40"), std::string::npos);
  EXPECT_NE(missing.status().ToString().find("partition 2"),
            std::string::npos);
}

TEST_F(IvfSearchTest, ParallelScanMatchesSerial) {
  PopulateSimpleIndex();
  std::vector<float> q(kDim, 1.f);
  q[0] = 17.f;
  ThreadPool pool(4);
  const PhysicalPlan plan = Plan(QueryPlan::kUnfiltered, q, 10, 3);
  const PlanResult serial = Execute(plan);
  const PlanResult parallel = Execute(plan, &pool);
  ASSERT_EQ(serial.neighbors.size(), 10u);
  ASSERT_EQ(serial.neighbors.size(), parallel.neighbors.size());
  for (size_t i = 0; i < serial.neighbors.size(); ++i) {
    EXPECT_EQ(serial.neighbors[i].id, parallel.neighbors[i].id);
  }
}

// --- InMemory baseline ---

TEST(InMemoryIndexTest, BuildAndSearch) {
  Dataset ds = GenerateDataset({"mem", 16, Metric::kL2, 3000, 20, 24, 0.15f, 7});
  std::vector<uint64_t> ids(3000);
  std::iota(ids.begin(), ids.end(), 1);
  InMemoryIvfIndex::Options options;
  options.dim = 16;
  options.target_cluster_size = 100;
  auto index = InMemoryIvfIndex::Build(options, ds.data.data(), 3000,
                                       ids).value();
  EXPECT_EQ(index->num_partitions(), 30u);
  EXPECT_GT(index->MemoryBytes(), 3000u * 16 * sizeof(float));
  auto truth = BruteForceGroundTruth(ds, 10, 1);
  double recall = 0;
  for (size_t q = 0; q < 20; ++q) {
    auto got = index->Search(ds.query(q), 10, 8, nullptr).value();
    recall += RecallAtK(got, truth[q]);
  }
  EXPECT_GE(recall / 20, 0.9);
}

TEST(InMemoryIndexTest, MemoryTrackedAndReleased) {
  const size_t before =
      MemoryTracker::Global().Current(MemoryCategory::kIndexData);
  {
    Dataset ds =
        GenerateDataset({"mem2", 8, Metric::kL2, 1000, 5, 8, 0.2f, 9});
    std::vector<uint64_t> ids(1000);
    std::iota(ids.begin(), ids.end(), 1);
    InMemoryIvfIndex::Options options;
    options.dim = 8;
    auto index = InMemoryIvfIndex::Build(options, ds.data.data(), 1000,
                                         ids).value();
    EXPECT_GT(MemoryTracker::Global().Current(MemoryCategory::kIndexData),
              before);
  }
  EXPECT_EQ(MemoryTracker::Global().Current(MemoryCategory::kIndexData),
            before);
}

// --- Maintenance policy ---

TEST(MaintenanceTest, RebuildTriggersAtGrowthThreshold) {
  IndexStats stats;
  stats.n_partitions = 10;
  stats.base_avg_partition_size = 100;
  RebuildPolicy policy;
  policy.growth_threshold = 0.5;
  stats.avg_partition_size = 149;
  EXPECT_FALSE(ShouldFullRebuild(stats, policy));
  stats.avg_partition_size = 150;
  EXPECT_TRUE(ShouldFullRebuild(stats, policy));
}

TEST(MaintenanceTest, NeverBuiltIndexWantsBuild) {
  IndexStats stats;
  stats.n_partitions = 0;
  stats.total_vectors = 5;
  EXPECT_TRUE(ShouldFullRebuild(stats, RebuildPolicy{}));
  stats.total_vectors = 0;
  EXPECT_FALSE(ShouldFullRebuild(stats, RebuildPolicy{}));
}

}  // namespace
}  // namespace micronn
