// SQ8 quantized scan path: codec round-trips, asymmetric kernel parity,
// sidecar consistency across the whole write/maintenance lifecycle,
// recall parity against the float path, batch/sequential parity with
// quantized plans, and the EXPLAIN rerank counters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <random>

#include "core/db.h"
#include "datagen/dataset.h"
#include "ivf/maintenance.h"
#include "ivf/schema.h"
#include "ivf/search.h"
#include "numerics/distance.h"
#include "numerics/sq8.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "storage/key_encoding.h"

namespace micronn {
namespace {

// ---------------------------------------------------------------------------
// Codec and kernel unit tests
// ---------------------------------------------------------------------------

TEST(Sq8CodecTest, RoundTripWithinHalfScale) {
  std::mt19937 rng(7);
  for (const size_t dim : {1u, 7u, 16u, 33u, 128u}) {
    std::vector<float> min(dim), scale(dim), v(dim), deq(dim);
    std::vector<uint8_t> codes(dim);
    std::uniform_real_distribution<float> lo(-2.f, 2.f);
    std::uniform_real_distribution<float> range(0.01f, 3.f);
    for (size_t d = 0; d < dim; ++d) {
      min[d] = lo(rng);
      scale[d] = range(rng) / 255.f;
    }
    for (int iter = 0; iter < 50; ++iter) {
      for (size_t d = 0; d < dim; ++d) {
        std::uniform_real_distribution<float> in_box(
            min[d], min[d] + 255.f * scale[d]);
        v[d] = in_box(rng);
      }
      QuantizeSq8(v.data(), min.data(), scale.data(), dim, codes.data());
      DequantizeSq8(codes.data(), min.data(), scale.data(), dim, deq.data());
      for (size_t d = 0; d < dim; ++d) {
        EXPECT_LE(std::abs(deq[d] - v[d]), scale[d] / 2 + 1e-6f)
            << "dim " << d;
      }
    }
  }
}

TEST(Sq8CodecTest, SaturatesOutOfRange) {
  const size_t dim = 4;
  const std::vector<float> min = {0.f, 0.f, 0.f, 0.f};
  const std::vector<float> scale = {0.01f, 0.01f, 0.01f, 0.01f};
  const std::vector<float> v = {-5.f, 100.f, 1.0f, 2.55f};
  std::vector<uint8_t> codes(dim);
  QuantizeSq8(v.data(), min.data(), scale.data(), dim, codes.data());
  EXPECT_EQ(codes[0], 0);      // below the box
  EXPECT_EQ(codes[1], 255);    // above the box
  EXPECT_EQ(codes[2], 100);    // interior
  EXPECT_EQ(codes[3], 255);    // exactly at the top
}

TEST(Sq8CodecTest, ZeroScaleEncodesConstantDimensionExactly) {
  const size_t dim = 3;
  const std::vector<float> min = {1.5f, -2.f, 0.f};
  const std::vector<float> scale = {0.f, 0.01f, 0.f};
  const std::vector<float> v = {1.5f, -1.f, 0.f};
  std::vector<uint8_t> codes(dim);
  std::vector<float> deq(dim);
  QuantizeSq8(v.data(), min.data(), scale.data(), dim, codes.data());
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[2], 0);
  DequantizeSq8(codes.data(), min.data(), scale.data(), dim, deq.data());
  EXPECT_EQ(deq[0], 1.5f);
  EXPECT_EQ(deq[2], 0.f);
}

TEST(Sq8ParamsTest, CodecRoundTrip) {
  Sq8PartitionParams params;
  params.min = {0.25f, -1.f, 3.5f};
  params.scale = {0.01f, 0.f, 2.f};
  const std::string blob = EncodeSq8Params(params);
  Sq8PartitionParams out;
  ASSERT_TRUE(DecodeSq8Params(blob, 3, &out).ok());
  EXPECT_EQ(out.min, params.min);
  EXPECT_EQ(out.scale, params.scale);
  EXPECT_FALSE(DecodeSq8Params(blob, 4, &out).ok());
}

TEST(Sq8BoundsTest, FinalizeDerivesAffineParams) {
  Sq8BoundsAccumulator bounds;
  bounds.Reset(2);
  const float a[2] = {1.f, -1.f};
  const float b[2] = {3.f, -1.f};
  bounds.Add(a, 2);
  bounds.Add(b, 2);
  const Sq8PartitionParams params = FinalizeSq8Params(bounds);
  EXPECT_FLOAT_EQ(params.min[0], 1.f);
  EXPECT_FLOAT_EQ(params.scale[0], 2.f / 255.f);
  EXPECT_FLOAT_EQ(params.min[1], -1.f);
  EXPECT_FLOAT_EQ(params.scale[1], 0.f);  // constant dimension
}

// The asymmetric kernels must agree with the full-precision distance to
// the reconstructed vector, for every metric and across SIMD tiers.
TEST(Sq8KernelTest, MatchesDequantizedDistanceAcrossSimdTiers) {
  std::mt19937 rng(11);
  const SimdLevel original = ActiveSimdLevel();
  for (const size_t dim : {8u, 31u, 64u, 128u}) {
    const size_t n = 37;
    std::vector<float> min(dim), scale(dim), query(dim);
    std::vector<uint8_t> codes(n * dim);
    std::uniform_real_distribution<float> unit(-1.f, 1.f);
    std::uniform_int_distribution<int> byte(0, 255);
    for (size_t d = 0; d < dim; ++d) {
      min[d] = unit(rng);
      scale[d] = (unit(rng) + 1.5f) / 255.f;
      query[d] = unit(rng);
    }
    for (auto& c : codes) c = static_cast<uint8_t>(byte(rng));
    for (const Metric metric :
         {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
      // Reference: full-precision distance to the reconstruction.
      std::vector<float> expected(n), deq(dim);
      for (size_t i = 0; i < n; ++i) {
        DequantizeSq8(codes.data() + i * dim, min.data(), scale.data(), dim,
                      deq.data());
        expected[i] = Distance(metric, query.data(), deq.data(), dim);
      }
      for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
        SetSimdLevel(level);
        Sq8QueryContext ctx;
        ctx.Prepare(metric, query.data(), min.data(), scale.data(), dim);
        std::vector<float> got(n);
        Sq8DistanceOneToMany(ctx, codes.data(), n, got.data());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_NEAR(got[i], expected[i],
                      1e-3f * (1.f + std::abs(expected[i])))
              << "metric " << static_cast<int>(metric) << " level "
              << static_cast<int>(level) << " dim " << dim << " row " << i;
        }
      }
      SetSimdLevel(original);
    }
  }
}

// ---------------------------------------------------------------------------
// DB-level tests
// ---------------------------------------------------------------------------

class Sq8DbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_sq8_" + std::to_string(::getpid()) + "_" +
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

  std::unique_ptr<DB> LoadDataset(const Dataset& ds, DbOptions options,
                                  bool with_attrs = false) {
    auto db = DB::Open(path_, options).value();
    std::vector<UpsertRequest> batch;
    for (size_t i = 0; i < ds.spec.n; ++i) {
      UpsertRequest req;
      req.asset_id = "a" + std::to_string(i);
      req.vector.assign(ds.row(i), ds.row(i) + ds.spec.dim);
      if (with_attrs) {
        req.attributes["bucket"] =
            AttributeValue::Int(static_cast<int64_t>(i % 10));
      }
      batch.push_back(std::move(req));
      if (batch.size() == 1000) {
        EXPECT_TRUE(db->Upsert(batch).ok());
        batch.clear();
      }
    }
    if (!batch.empty()) EXPECT_TRUE(db->Upsert(batch).ok());
    return db;
  }

  // The SQ8 storage invariant: whenever a partition has parameters, its
  // sidecar rows mirror the float rows key-for-key and every code byte is
  // exactly what re-quantizing the stored float row would produce; a
  // partition without parameters has no sidecar rows. No orphans either
  // direction.
  void VerifySidecar(DB* db) {
    const uint32_t dim = db->options().dim;
    auto txn = db->engine()->BeginRead().value();
    BTree vectors = txn->OpenTable(kVectorsTable).value();
    BTree sq8 = txn->OpenTable(kSq8Table).value();
    BTree sq8params = txn->OpenTable(kSq8ParamsTable).value();

    std::map<uint32_t, Sq8PartitionParams> params;
    {
      BTreeCursor c = sq8params.NewCursor();
      ASSERT_TRUE(c.SeekToFirst().ok());
      while (c.Valid()) {
        std::string_view key = c.key();
        uint32_t partition;
        ASSERT_TRUE(key::ConsumeU32(&key, &partition));
        Sq8PartitionParams p;
        ASSERT_TRUE(DecodeSq8Params(c.value().value(), dim, &p).ok());
        params.emplace(partition, std::move(p));
        ASSERT_TRUE(c.Next().ok());
      }
    }

    size_t float_rows = 0;
    size_t quantized_rows = 0;
    std::vector<uint8_t> expect(dim);
    {
      BTreeCursor c = vectors.NewCursor();
      ASSERT_TRUE(c.SeekToFirst().ok());
      while (c.Valid()) {
        uint32_t partition;
        uint64_t vid;
        ASSERT_TRUE(ParseVectorKey(c.key(), &partition, &vid).ok());
        VectorRow row;
        const std::string value = c.value().value();
        ASSERT_TRUE(DecodeVectorRow(value, dim, &row).ok());
        ++float_rows;
        auto sq8_row = sq8.Get(VectorKey(partition, vid)).value();
        auto it = params.find(partition);
        if (it == params.end()) {
          EXPECT_FALSE(sq8_row.has_value())
              << "sidecar row without params, partition " << partition;
        } else {
          ASSERT_TRUE(sq8_row.has_value())
              << "missing sidecar row, partition " << partition << " vid "
              << vid;
          const uint8_t* codes = DecodeSq8Row(*sq8_row, dim).value();
          // The blob sits at an arbitrary offset inside the row encoding;
          // copy it out so the float loads are aligned.
          std::vector<float> vec(dim);
          std::memcpy(vec.data(), row.vector_blob.data(),
                      dim * sizeof(float));
          QuantizeSq8(vec.data(), it->second.min.data(),
                      it->second.scale.data(), dim, expect.data());
          EXPECT_EQ(0, std::memcmp(codes, expect.data(), dim))
              << "stale codes, partition " << partition << " vid " << vid;
          ++quantized_rows;
        }
        ASSERT_TRUE(c.Next().ok());
      }
    }
    // No orphans: every sidecar row has a float row.
    size_t sidecar_rows = 0;
    {
      BTreeCursor c = sq8.NewCursor();
      ASSERT_TRUE(c.SeekToFirst().ok());
      while (c.Valid()) {
        uint32_t partition;
        uint64_t vid;
        ASSERT_TRUE(ParseVectorKey(c.key(), &partition, &vid).ok());
        EXPECT_TRUE(vectors.Get(VectorKey(partition, vid)).value().has_value())
            << "orphan sidecar row, partition " << partition << " vid "
            << vid;
        ++sidecar_rows;
        ASSERT_TRUE(c.Next().ok());
      }
    }
    EXPECT_EQ(sidecar_rows, quantized_rows);
    (void)float_rows;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(Sq8DbTest, SidecarMaintainedAcrossLifecycle) {
  DatasetSpec spec;
  spec.name = "sq8-lifecycle";
  spec.dim = 16;
  spec.n = 1500;
  spec.n_queries = 4;
  Dataset ds = GenerateDataset(spec);
  auto db = LoadDataset(ds, SmallOptions(spec.dim));

  // Before the first build there are no params and no sidecar rows.
  VerifySidecar(db.get());
  ASSERT_TRUE(db->BuildIndex().ok());
  VerifySidecar(db.get());

  // Post-build upserts quantize into the delta store with global params.
  std::vector<UpsertRequest> extra;
  for (size_t i = 0; i < 200; ++i) {
    UpsertRequest req;
    req.asset_id = "x" + std::to_string(i);
    req.vector.assign(ds.row(i % ds.spec.n), ds.row(i % ds.spec.n) + spec.dim);
    for (float& f : req.vector) f += 0.05f;
    extra.push_back(std::move(req));
  }
  ASSERT_TRUE(db->Upsert(extra).ok());
  VerifySidecar(db.get());

  // Replaces and deletes keep the sidecar in sync.
  std::vector<UpsertRequest> replace(extra.begin(), extra.begin() + 50);
  for (auto& req : replace) {
    for (float& f : req.vector) f -= 0.1f;
  }
  ASSERT_TRUE(db->Upsert(replace).ok());
  std::vector<std::string> doomed;
  for (size_t i = 0; i < 100; ++i) doomed.push_back("a" + std::to_string(i));
  ASSERT_TRUE(db->Delete(doomed).ok());
  VerifySidecar(db.get());

  // The delta flush re-quantizes moved rows with destination params.
  auto report = db->Maintain().value();
  EXPECT_GT(report.delta_flushed + (report.full_rebuild ? 1u : 0u), 0u);
  VerifySidecar(db.get());

  // And a full rebuild re-derives everything.
  ASSERT_TRUE(db->BuildIndex().ok());
  VerifySidecar(db.get());
}

// Recall@10 of the float and SQ8 paths against exact ground truth, at a
// fixed seed and two fixed nprobe values: SQ8 keeps parity with float, and
// each path clears an absolute floor. The floors are the recall both paths
// measured when the gate was added (0.9075 at nprobe 4, 0.9975 at nprobe
// 8, 40 queries), minus a 0.03 margin for rounding differences between
// SIMD tiers and builds; parity alone would also hold at recall zero.
TEST_F(Sq8DbTest, RecallParityWithFloatPath) {
  DatasetSpec spec;
  spec.name = "sq8-recall";
  spec.dim = 32;
  spec.n = 4000;
  spec.n_queries = 40;
  Dataset ds = GenerateDataset(spec);
  auto db = LoadDataset(ds, SmallOptions(spec.dim));
  ASSERT_TRUE(db->BuildIndex().ok());
  const auto truth = BruteForceGroundTruth(ds, 10, /*id_base=*/1);

  constexpr double kMargin = 0.03;
  struct Gate {
    uint32_t nprobe;
    double measured;
  };
  for (const Gate& gate : {Gate{4, 0.9075}, Gate{8, 0.9975}}) {
    double recall_float = 0;
    double recall_sq8 = 0;
    for (size_t q = 0; q < spec.n_queries; ++q) {
      SearchRequest req;
      req.query.assign(ds.query(q), ds.query(q) + spec.dim);
      req.k = 10;
      req.nprobe = gate.nprobe;

      req.quantized = false;
      auto float_resp = db->Search(req).value();
      EXPECT_FALSE(float_resp.explain.quantized);

      req.quantized = true;
      auto sq8_resp = db->Search(req).value();
      EXPECT_TRUE(sq8_resp.explain.quantized);
      EXPECT_GT(sq8_resp.explain.rerank_candidates, 0u);

      auto to_neighbors = [](const SearchResponse& resp) {
        std::vector<Neighbor> out;
        for (const auto& item : resp.items) {
          out.push_back({item.vid, item.distance});
        }
        return out;
      };
      recall_float += RecallAtK(to_neighbors(float_resp), truth[q]);
      recall_sq8 += RecallAtK(to_neighbors(sq8_resp), truth[q]);
    }
    recall_float /= spec.n_queries;
    recall_sq8 /= spec.n_queries;
    EXPECT_GE(recall_sq8, 0.95 * recall_float)
        << "nprobe " << gate.nprobe << ": sq8 recall " << recall_sq8
        << " vs float " << recall_float;
    EXPECT_GE(recall_float, gate.measured - kMargin)
        << "float recall at nprobe " << gate.nprobe;
    EXPECT_GE(recall_sq8, gate.measured - kMargin)
        << "sq8 recall at nprobe " << gate.nprobe;
  }
}

TEST_F(Sq8DbTest, ExplainReportsRerankCounters) {
  DatasetSpec spec;
  spec.name = "sq8-explain";
  spec.dim = 16;
  spec.n = 1200;
  spec.n_queries = 2;
  Dataset ds = GenerateDataset(spec);
  auto db = LoadDataset(ds, SmallOptions(spec.dim));

  SearchRequest req;
  req.query.assign(ds.query(0), ds.query(0) + spec.dim);
  req.k = 10;
  req.nprobe = 4;

  // Pre-build: no params anywhere, so a quantized plan degenerates to the
  // float path (no rerank reads) but still answers from the delta store.
  auto resp = db->Search(req).value();
  EXPECT_FALSE(resp.explain.quantized);
  EXPECT_EQ(resp.explain.partitions_quantized, 0u);
  EXPECT_EQ(resp.explain.rows_reranked, 0u);
  EXPECT_EQ(resp.items.size(), 10u);

  ASSERT_TRUE(db->BuildIndex().ok());
  resp = db->Search(req).value();
  EXPECT_TRUE(resp.explain.quantized);
  EXPECT_GT(resp.explain.partitions_quantized, 0u);
  EXPECT_EQ(resp.explain.rerank_budget, 40u);  // k * alpha (4.0 default)
  EXPECT_GT(resp.explain.rerank_candidates, 0u);
  EXPECT_LE(resp.explain.rerank_candidates, resp.explain.rerank_budget);
  EXPECT_EQ(resp.explain.rows_reranked, resp.explain.rerank_candidates);
  EXPECT_NE(resp.explain.ToString().find("sq8["), std::string::npos);

  // The per-request opt-out wins over the DB default.
  req.quantized = false;
  resp = db->Search(req).value();
  EXPECT_FALSE(resp.explain.quantized);
  EXPECT_EQ(resp.explain.rows_reranked, 0u);

  // Exact plans never use the quantized path.
  req.quantized = std::nullopt;
  req.exact = true;
  resp = db->Search(req).value();
  EXPECT_EQ(resp.plan, QueryPlan::kExact);
  EXPECT_FALSE(resp.explain.quantized);
}

TEST_F(Sq8DbTest, QuantizedBatchMatchesSequential) {
  DatasetSpec spec;
  spec.name = "sq8-batch";
  spec.dim = 24;
  spec.n = 2500;
  spec.n_queries = 24;
  Dataset ds = GenerateDataset(spec);
  auto db = LoadDataset(ds, SmallOptions(spec.dim), /*with_attrs=*/true);
  ASSERT_TRUE(db->BuildIndex().ok());
  ASSERT_TRUE(db->AnalyzeStats().ok());

  // Heterogeneous batch: mixed k/nprobe, duplicate filters (planner-level
  // dedup), distinct filters on one shared scan (per-row shared decode),
  // unfiltered, and exact members.
  std::vector<SearchRequest> requests;
  for (size_t q = 0; q < 16; ++q) {
    SearchRequest req;
    req.query.assign(ds.query(q), ds.query(q) + spec.dim);
    req.k = (q % 3 == 0) ? 5 : 10;
    req.nprobe = (q % 2 == 0) ? 4 : 8;
    if (q % 4 == 1) {
      req.filter = Predicate::Compare("bucket", CompareOp::kEq,
                                      AttributeValue::Int(3));
      req.plan = PlanOverride::kForcePostFilter;
    } else if (q % 4 == 2) {
      req.filter = Predicate::Compare(
          "bucket", CompareOp::kLt,
          AttributeValue::Int(static_cast<int64_t>(2 + q % 5)));
      req.plan = PlanOverride::kForcePostFilter;
    } else if (q % 8 == 7) {
      req.exact = true;
    }
    requests.push_back(std::move(req));
  }

  auto batch = db->BatchSearch(requests).value();
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t q = 0; q < requests.size(); ++q) {
    auto single = db->Search(requests[q]).value();
    ASSERT_EQ(batch[q].items.size(), single.items.size()) << "query " << q;
    for (size_t i = 0; i < single.items.size(); ++i) {
      EXPECT_EQ(batch[q].items[i].vid, single.items[i].vid)
          << "query " << q << " rank " << i;
      EXPECT_EQ(batch[q].items[i].distance, single.items[i].distance)
          << "query " << q << " rank " << i;
    }
    EXPECT_EQ(batch[q].rows_filtered, single.rows_filtered) << "query " << q;
    EXPECT_EQ(batch[q].explain.quantized, single.explain.quantized)
        << "query " << q;
  }
}

// Duplicate predicates across a batch must collapse into one filter
// evaluation per row: the whole fan-in shares one bound filter, so the
// scan runs it below row decode exactly once (observable through the
// physical filter counters of the shared scan).
TEST_F(Sq8DbTest, DuplicateBatchFiltersShareEvaluation) {
  DatasetSpec spec;
  spec.name = "sq8-dupfilter";
  spec.dim = 12;
  spec.n = 900;
  spec.n_queries = 8;
  Dataset ds = GenerateDataset(spec);
  auto db = LoadDataset(ds, SmallOptions(spec.dim), /*with_attrs=*/true);
  ASSERT_TRUE(db->BuildIndex().ok());

  std::vector<SearchRequest> requests;
  for (size_t q = 0; q < 6; ++q) {
    SearchRequest req;
    // One shared query point: every member probes the same partitions, so
    // all scans have the full fan-in.
    req.query.assign(ds.query(0), ds.query(0) + spec.dim);
    req.k = 10;
    req.nprobe = 4;
    req.filter = Predicate::Compare("bucket", CompareOp::kEq,
                                    AttributeValue::Int(3));
    req.plan = PlanOverride::kForcePostFilter;
    requests.push_back(std::move(req));
  }
  auto batch = db->BatchSearch(requests).value();
  // Identical predicates bind to one shared filter -> the scan pushes it
  // below decode and each row is filtered once for the whole group: the
  // group-level rows_scanned equals one query's surviving rows, not six
  // times that.
  const uint64_t group_rows = batch[0].explain.group_rows_scanned;
  const uint64_t per_query_rows = batch[0].rows_scanned;
  EXPECT_EQ(group_rows, per_query_rows);
  for (const auto& resp : batch) {
    EXPECT_TRUE(resp.explain.shared_scan);
    EXPECT_EQ(resp.rows_scanned, per_query_rows);
  }
}

// Heap entries carry the partition their row was scored in; the rerank op
// and result resolution read each row at that location instead of looking
// it up in vidmap. For every plan kind, each item's vid, distance and
// asset_id must equal an oracle that resolves through vidmap, and each
// executor neighbor's partition must equal its vidmap entry — with rows
// still in the delta partition, after Maintain moves them, and after a
// rebuild.
TEST_F(Sq8DbTest, ResultsCarryTheirScanLocation) {
  static_assert(sizeof(Neighbor) == 16);
  DatasetSpec spec;
  spec.name = "sq8-location";
  spec.dim = 16;
  spec.n = 2400;
  spec.n_queries = 3;
  Dataset ds = GenerateDataset(spec);
  DbOptions options = SmallOptions(spec.dim);
  options.centroid_index_threshold = 0;  // the test probes plain centroids
  auto db = DB::Open(path_, options).value();
  auto upsert = [&](size_t lo, size_t hi) {
    std::vector<UpsertRequest> batch;
    for (size_t i = lo; i < hi; ++i) {
      UpsertRequest req;
      req.asset_id = "asset-" + std::to_string(i);
      req.vector.assign(ds.row(i), ds.row(i) + spec.dim);
      req.attributes["bucket"] =
          AttributeValue::Int(static_cast<int64_t>(i % 10));
      batch.push_back(std::move(req));
    }
    ASSERT_TRUE(db->Upsert(batch).ok());
  };

  struct Case {
    const char* name;
    QueryPlan plan;
    std::function<void(SearchRequest*)> shape;
  };
  const std::vector<Case> cases = {
      {"sq8", QueryPlan::kUnfiltered,
       [](SearchRequest* r) { r->quantized = true; }},
      {"float", QueryPlan::kUnfiltered,
       [](SearchRequest* r) { r->quantized = false; }},
      {"post-filter", QueryPlan::kPostFilter,
       [](SearchRequest* r) {
         r->filter = Predicate::Compare("bucket", CompareOp::kLt,
                                        AttributeValue::Int(5));
         r->plan = PlanOverride::kForcePostFilter;
       }},
      {"pre-filter", QueryPlan::kPreFilter,
       [](SearchRequest* r) {
         r->filter = Predicate::Compare("bucket", CompareOp::kEq,
                                        AttributeValue::Int(3));
         r->plan = PlanOverride::kForcePreFilter;
       }},
      {"exact", QueryPlan::kExact,
       [](SearchRequest* r) { r->exact = true; }},
  };

  auto check_state = [&](const std::string& state, bool expect_delta_rows) {
    size_t delta_hits = 0;
    for (size_t q = 0; q < spec.n_queries; ++q) {
      for (const Case& c : cases) {
        SCOPED_TRACE(state + " / " + c.name + " / query " +
                     std::to_string(q));
        SearchRequest req;
        req.query.assign(ds.query(q), ds.query(q) + spec.dim);
        req.k = 20;
        req.nprobe = 4;
        c.shape(&req);
        Result<SearchResponse> searched = db->Search(req);
        ASSERT_TRUE(searched.ok()) << searched.status().ToString();
        const SearchResponse& resp = *searched;
        ASSERT_EQ(resp.plan, c.plan);
        ASSERT_EQ(resp.items.size(), req.k);

        auto txn = db->engine()->BeginRead().value();
        BTree vectors = txn->OpenTable(kVectorsTable).value();
        BTree vidmap = txn->OpenTable(kVidMapTable).value();
        // Oracle: vidmap -> vectors row -> asset_id and exact distance.
        std::map<uint64_t, uint32_t> located;
        auto locate = [&](uint64_t vid) {
          auto loc = vidmap.Get(key::U64(vid)).value();
          EXPECT_TRUE(loc.has_value()) << "vid " << vid;
          uint32_t partition = ~0u;
          if (loc.has_value()) {
            EXPECT_TRUE(DecodeVidMapValue(*loc, &partition).ok());
          }
          return partition;
        };
        for (const ResultItem& item : resp.items) {
          const uint32_t partition = locate(item.vid);
          located[item.vid] = partition;
          auto row = vectors.Get(VectorKey(partition, item.vid)).value();
          ASSERT_TRUE(row.has_value()) << "vid " << item.vid;
          VectorRow vr;
          ASSERT_TRUE(DecodeVectorRow(*row, spec.dim, &vr).ok());
          EXPECT_EQ(item.asset_id, vr.asset_id) << "vid " << item.vid;
          std::vector<float> vec(spec.dim);
          std::memcpy(vec.data(), vr.vector_blob.data(),
                      spec.dim * sizeof(float));
          float expect = 0.f;
          DistanceOneToMany(Metric::kL2, req.query.data(), vec.data(), 1,
                            spec.dim, &expect);
          EXPECT_EQ(item.distance, expect) << "vid " << item.vid;
          delta_hits += partition == kDeltaPartition;
        }

        // The same plan through the executor over this snapshot: its
        // neighbors are the response's items and carry vidmap's location.
        QueryPlanner planner(txn.get(), &db->options(), [] {
          return Result<std::shared_ptr<
              const std::map<std::string, ColumnStats>>>(
              std::make_shared<const std::map<std::string, ColumnStats>>());
        });
        std::vector<PhysicalPlan> plans;
        plans.push_back(planner.Lower(req).value());
        BTree centroids = txn->OpenTable(kCentroidsTable).value();
        BTree meta = txn->OpenTable(kMetaTable).value();
        const CentroidSet cset =
            LoadCentroidSet(txn->view(), centroids, meta, spec.dim,
                            Metric::kL2)
                .value();
        QueryExecutor executor(ExecutorContext{
            .vectors = vectors,
            .vidmap = vidmap,
            .centroids = &cset,
            .dim = spec.dim,
            .metric = Metric::kL2,
            .sq8 = txn->OpenTable(kSq8Table).value(),
            .sq8params = txn->OpenTable(kSq8ParamsTable).value(),
            .attributes = txn->OpenTable(kAttributesTable).value()});
        Result<std::vector<PlanResult>> results =
            executor.Execute(plans, nullptr);
        ASSERT_TRUE(results.ok()) << results.status().ToString();
        const std::vector<Neighbor>& got = (*results)[0].neighbors;
        ASSERT_EQ(got.size(), resp.items.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, resp.items[i].vid) << "rank " << i;
          EXPECT_EQ(got[i].distance, resp.items[i].distance) << "rank " << i;
          EXPECT_EQ(got[i].partition, locate(got[i].id))
              << "vid " << got[i].id;
        }
      }
    }
    if (expect_delta_rows) {
      EXPECT_GT(delta_hits, 0u) << state;
    } else {
      EXPECT_EQ(delta_hits, 0u) << state;
    }
  };

  upsert(0, 1800);
  ASSERT_TRUE(db->BuildIndex().ok());
  upsert(1800, spec.n);  // lands in the delta partition
  check_state("delta", /*expect_delta_rows=*/true);

  const MaintenanceReport report = db->Maintain().value();
  EXPECT_GT(report.delta_flushed, 0u);
  check_state("maintained", /*expect_delta_rows=*/false);

  ASSERT_TRUE(db->BuildIndex().ok());
  check_state("rebuilt", /*expect_delta_rows=*/false);
}

// Drift requantization (DbOptions::sq8_requantize_saturation): a stream
// of delta flushes carrying vectors far outside a partition's built box
// saturates its codes; Maintain() must detect the ratio and requantize
// the partition in place with fresh bounds, keeping sidecar consistency
// and quantized/float recall parity for the drifted data.
TEST_F(Sq8DbTest, DriftRequantizationRefreshesBounds) {
  DatasetSpec spec;
  spec.name = "sq8-drift";
  spec.dim = 16;
  spec.n = 1500;
  spec.n_queries = 4;
  Dataset ds = GenerateDataset(spec);
  // rebuild_chunk_rows = 0: the chunked requantization loops (build
  // phase 3.5 and the drift pass below) must floor the chunk and make
  // progress, not spin on an empty transaction.
  DbOptions drift_options = SmallOptions(spec.dim);
  drift_options.rebuild_chunk_rows = 0;
  auto db = LoadDataset(ds, drift_options);
  ASSERT_TRUE(db->BuildIndex().ok());

  // Upper bound of the built boxes (the dataset lives roughly in the
  // unit box, so this lands near 1).
  auto max_bound = [&](DB* handle) {
    double bound = 0;
    auto txn = handle->engine()->BeginRead().value();
    BTree sq8params = txn->OpenTable(kSq8ParamsTable).value();
    BTreeCursor c = sq8params.NewCursor();
    EXPECT_TRUE(c.SeekToFirst().ok());
    while (c.Valid()) {
      std::string_view key = c.key();
      uint32_t partition;
      EXPECT_TRUE(key::ConsumeU32(&key, &partition));
      if (partition != kDeltaPartition) {  // global bounds excluded
        Sq8PartitionParams p;
        EXPECT_TRUE(DecodeSq8Params(c.value().value(), spec.dim, &p).ok());
        for (uint32_t d = 0; d < spec.dim; ++d) {
          bound = std::max(bound,
                           double{p.min[d]} + 255.0 * double{p.scale[d]});
        }
      }
      EXPECT_TRUE(c.Next().ok());
    }
    return bound;
  };
  const double built_bound = max_bound(db.get());

  // Drift: 120 vectors shifted far outside every built box. They land in
  // the delta store and flush into their nearest partitions with heavily
  // saturated codes.
  std::vector<UpsertRequest> drifted;
  for (size_t i = 0; i < 120; ++i) {
    UpsertRequest req;
    req.asset_id = "drift" + std::to_string(i);
    req.vector.assign(ds.row(i), ds.row(i) + spec.dim);
    for (float& f : req.vector) f += 5.0f;
    drifted.push_back(std::move(req));
  }
  ASSERT_TRUE(db->Upsert(drifted).ok());

  auto report = db->Maintain().value();
  ASSERT_FALSE(report.full_rebuild);  // stays incremental at +8% rows
  EXPECT_EQ(report.delta_flushed, drifted.size());
  EXPECT_GT(report.partitions_requantized, 0u);
  VerifySidecar(db.get());

  // Fresh bounds cover the drifted data; the built boxes did not.
  EXPECT_LT(built_bound, 4.0);
  EXPECT_GT(max_bound(db.get()), 4.0);

  // Recall parity on the drifted region: the quantized scan must rank the
  // requantized rows exactly like the float path.
  for (size_t q = 0; q < 8; ++q) {
    SearchRequest req;
    req.query = drifted[q].vector;
    req.k = 5;
    req.nprobe = 8;
    req.quantized = false;
    auto float_resp = db->Search(req).value();
    req.quantized = true;
    auto sq8_resp = db->Search(req).value();
    ASSERT_EQ(sq8_resp.items.size(), float_resp.items.size()) << q;
    for (size_t i = 0; i < float_resp.items.size(); ++i) {
      EXPECT_EQ(sq8_resp.items[i].vid, float_resp.items[i].vid)
          << q << " " << i;
      EXPECT_EQ(sq8_resp.items[i].distance, float_resp.items[i].distance)
          << q << " " << i;
    }
    EXPECT_EQ(sq8_resp.items[0].asset_id, drifted[q].asset_id) << q;
    EXPECT_FLOAT_EQ(sq8_resp.items[0].distance, 0.f) << q;
  }
  ASSERT_TRUE(db->Close().ok());

  // Disabled threshold: same drift, no requantization.
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  DbOptions options = SmallOptions(spec.dim);
  options.sq8_requantize_saturation = 0;
  db = LoadDataset(ds, options);
  ASSERT_TRUE(db->BuildIndex().ok());
  ASSERT_TRUE(db->Upsert(drifted).ok());
  report = db->Maintain().value();
  ASSERT_FALSE(report.full_rebuild);
  EXPECT_EQ(report.delta_flushed, drifted.size());
  EXPECT_EQ(report.partitions_requantized, 0u);
  EXPECT_LT(max_bound(db.get()), 4.0);  // bounds stayed stale
  VerifySidecar(db.get());
}

}  // namespace
}  // namespace micronn
