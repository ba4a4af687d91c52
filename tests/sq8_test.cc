// SQ8 quantized scan path: codec round-trips (params rows, and code rows
// with their clamp flag), asymmetric kernel parity, sidecar consistency
// across the whole write/maintenance lifecycle, recall parity against the
// float path, batch/sequential parity with quantized plans, the EXPLAIN
// rerank counters, and the error-bounded rerank (candidate selection,
// clamped rows, legacy rows, and bit-identity with a full rerank).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
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
#include "storage/btree.h"
#include "storage/key_encoding.h"
#include "support/explain_invariants.h"
#include "support/sq8_sidecar_check.h"

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
      EXPECT_EQ(
          QuantizeSq8(v.data(), min.data(), scale.data(), dim, codes.data()),
          0u);
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
  // Two dimensions clamp; the top of the box does not.
  EXPECT_EQ(QuantizeSq8(v.data(), min.data(), scale.data(), dim, codes.data()),
            2u);
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
  EXPECT_EQ(QuantizeSq8(v.data(), min.data(), scale.data(), dim, codes.data()),
            0u);
  // A constant dimension fed any other value clamps.
  const std::vector<float> off = {1.25f, -1.f, 0.f};
  std::vector<uint8_t> off_codes(dim);
  EXPECT_EQ(QuantizeSq8(off.data(), min.data(), scale.data(), dim,
                        off_codes.data()),
            1u);
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
  params.max_error = 0.125f;
  const std::string blob = EncodeSq8Params(params);
  EXPECT_EQ(blob.size(), 7 * sizeof(float));
  Sq8PartitionParams out;
  ASSERT_TRUE(DecodeSq8Params(blob, 3, &out).ok());
  EXPECT_EQ(out.min, params.min);
  EXPECT_EQ(out.scale, params.scale);
  EXPECT_EQ(out.max_error, 0.125f);
  EXPECT_FALSE(DecodeSq8Params(blob, 4, &out).ok());
}

// Every quantized query reads the params row of each probed partition:
// at dim 128 (the benchmark's and SIFT's) it must not spill to an
// overflow page.
TEST(Sq8ParamsTest, Dim128RowStaysInline) {
  Sq8PartitionParams params;
  params.min.assign(128, 0.f);
  params.scale.assign(128, 1.f);
  params.max_error = 0.5f;
  EXPECT_LE(EncodeSq8Params(params).size(), kMaxInlineValue);
}

// A params row with floats appended to the 2*dim+1 layout.
std::string ParamsBlob(std::vector<float> floats) {
  return std::string(reinterpret_cast<const char*>(floats.data()),
                     floats.size() * sizeof(float));
}

TEST(Sq8ParamsTest, LegacyRowDecodesToInfiniteError) {
  // Exactly 2*dim floats: written before max_error existed.
  Sq8PartitionParams out;
  out.max_error = 1.f;
  ASSERT_TRUE(DecodeSq8Params(ParamsBlob({0.f, 1.f, 0.5f, 0.25f}), 2, &out)
                  .ok());
  EXPECT_EQ(out.min, (std::vector<float>{0.f, 1.f}));
  EXPECT_EQ(out.scale, (std::vector<float>{0.5f, 0.25f}));
  EXPECT_EQ(out.max_error, std::numeric_limits<float>::infinity());
}

TEST(Sq8ParamsTest, RejectsOtherSizesAndBadErrors) {
  Sq8PartitionParams out;
  // Sizes around the two valid ones (2*dim = 4 and 2*dim+1 = 5 floats).
  for (const size_t n : {0u, 3u, 6u, 8u}) {
    const Status st =
        DecodeSq8Params(ParamsBlob(std::vector<float>(n, 0.f)), 2, &out);
    EXPECT_TRUE(st.IsCorruption()) << n << " floats";
  }
  // A torn trailing float.
  std::string torn = ParamsBlob({0.f, 1.f, 0.5f, 0.25f});
  torn.append(2, '\0');
  EXPECT_TRUE(DecodeSq8Params(torn, 2, &out).IsCorruption());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(DecodeSq8Params(ParamsBlob({0.f, 1.f, 0.5f, 0.25f, nan}), 2,
                              &out)
                  .IsCorruption());
  EXPECT_TRUE(DecodeSq8Params(ParamsBlob({0.f, 1.f, 0.5f, 0.25f, -0.5f}), 2,
                              &out)
                  .IsCorruption());
  // +inf (unknown error) and 0 (exact codes) are valid bounds.
  const float inf = std::numeric_limits<float>::infinity();
  ASSERT_TRUE(
      DecodeSq8Params(ParamsBlob({0.f, 1.f, 0.5f, 0.25f, inf}), 2, &out).ok());
  EXPECT_EQ(out.max_error, inf);
  ASSERT_TRUE(
      DecodeSq8Params(ParamsBlob({0.f, 1.f, 0.5f, 0.25f, 0.f}), 2, &out).ok());
  EXPECT_EQ(out.max_error, 0.f);
}

TEST(Sq8ParamsTest, ReconstructionErrorIsAnUpperBound) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> unit(-1.f, 1.f);
  const size_t dim = 24;
  std::vector<float> min(dim), scale(dim), v(dim);
  std::vector<uint8_t> codes(dim);
  for (size_t d = 0; d < dim; ++d) {
    min[d] = unit(rng);
    scale[d] = (unit(rng) + 1.5f) / 255.f;
  }
  for (int iter = 0; iter < 200; ++iter) {
    // Half the rows escape the box and clamp.
    for (size_t d = 0; d < dim; ++d) v[d] = 3.f * unit(rng);
    QuantizeSq8(v.data(), min.data(), scale.data(), dim, codes.data());
    double sum = 0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff =
          double{v[d]} - (double{min[d]} + double{scale[d]} * codes[d]);
      sum += diff * diff;
    }
    const float err = Sq8ReconstructionError(v.data(), codes.data(),
                                             min.data(), scale.data(), dim);
    EXPECT_GE(double{err}, std::sqrt(sum));
    EXPECT_LE(double{err}, std::sqrt(sum) * (1 + 1e-6));
  }
  // Exact codes give exactly 0; a NaN input gives +inf, never NaN.
  const float zero_min[2] = {1.f, 2.f};
  const float zero_scale[2] = {0.f, 0.f};
  const uint8_t zero_codes[2] = {0, 0};
  EXPECT_EQ(Sq8ReconstructionError(zero_min, zero_codes, zero_min, zero_scale,
                                   2),
            0.f);
  const float nan_row[2] = {std::numeric_limits<float>::quiet_NaN(), 2.f};
  EXPECT_EQ(Sq8ReconstructionError(nan_row, zero_codes, zero_min, zero_scale,
                                   2),
            std::numeric_limits<float>::infinity());
}

// A code row is dim code bytes and one clamp flag byte.
TEST(Sq8RowTest, CodecRoundTripCarriesTheClampFlag) {
  const uint8_t codes[3] = {0, 7, 255};
  for (const bool clamped : {false, true}) {
    const std::string blob = EncodeSq8Row(codes, 3, clamped);
    ASSERT_EQ(blob.size(), 4u);
    Result<Sq8Row> row = DecodeSq8Row(blob, 3);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ(0, std::memcmp(row->codes, codes, 3));
    EXPECT_EQ(row->clamped, clamped);
  }
}

TEST(Sq8RowTest, LegacyRowDecodesUnflagged) {
  // Exactly dim bytes: written before the flag byte existed.
  const std::string blob("\x01\x02\x03", 3);
  Result<Sq8Row> row = DecodeSq8Row(blob, 3);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_FALSE(row->clamped);
  EXPECT_EQ(row->codes[2], 3);
}

TEST(Sq8RowTest, RejectsOtherSizesAndFlags) {
  const size_t dim = 3;
  for (const uint8_t flag : {uint8_t{0}, uint8_t{1}}) {
    std::string blob("\x01\x02\x03", 3);
    blob.push_back(static_cast<char>(flag));
    EXPECT_TRUE(DecodeSq8Row(blob, dim).ok()) << int{flag};
  }
  for (const uint8_t flag : {uint8_t{2}, uint8_t{255}}) {
    std::string blob("\x01\x02\x03", 3);
    blob.push_back(static_cast<char>(flag));
    EXPECT_TRUE(DecodeSq8Row(blob, dim).status().IsCorruption()) << int{flag};
  }
  EXPECT_TRUE(DecodeSq8Row(std::string(dim - 1, '\0'), dim)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(DecodeSq8Row(std::string(dim + 2, '\0'), dim)
                  .status()
                  .IsCorruption());
}

// ---------------------------------------------------------------------------
// Rerank candidate selection (the error bound)
// ---------------------------------------------------------------------------

std::vector<Sq8RerankCandidate> Candidates(const std::vector<float>& approx,
                                           float max_error) {
  std::vector<Sq8RerankCandidate> out;
  for (const float a : approx) {
    out.push_back({.approx = a, .max_error = max_error, .reach = 0.f});
  }
  return out;
}

TEST(Sq8SelectTest, ExactScoresKeepTheTopKAndItsTies) {
  const float q[2] = {0.f, 0.f};
  std::vector<bool> keep;
  // eps = 0 (scored at full precision): the bounds are the scores.
  EXPECT_EQ(SelectSq8RerankCandidates(Metric::kL2, q, 2,
                                      Candidates({5, 1, 4, 2, 3}, 0.f), 2,
                                      &keep),
            2u);
  EXPECT_EQ(keep, (std::vector<bool>{false, true, false, true, false}));
  // Ties at the k-th score are all kept: any of them may win on id.
  EXPECT_EQ(SelectSq8RerankCandidates(Metric::kL2, q, 2,
                                      Candidates({2, 1, 2, 9, 2}, 0.f), 2,
                                      &keep),
            4u);
  EXPECT_EQ(keep, (std::vector<bool>{true, true, true, false, true}));
  EXPECT_EQ(SelectSq8RerankCandidates(Metric::kInnerProduct, q, 2,
                                      Candidates({-3, -1, -3, -2}, 0.f), 1,
                                      &keep),
            2u);
  EXPECT_EQ(keep, (std::vector<bool>{true, false, true, false}));
}

TEST(Sq8SelectTest, ErrorWidensTheBounds) {
  const float q[2] = {0.6f, 0.8f};  // ||q|| = 1
  std::vector<bool> keep;
  // L2 in sqrt space with eps 0.5: the k=1 upper bound is (1 + 0.5)^2 =
  // 2.25, which ties the second candidate's lower bound (2 - 0.5)^2.
  EXPECT_EQ(SelectSq8RerankCandidates(Metric::kL2, q, 2,
                                      Candidates({1, 4, 9, 16}, 0.5f), 1,
                                      &keep),
            2u);
  EXPECT_EQ(keep, (std::vector<bool>{true, true, false, false}));
  // Dot metrics: +-||q||*eps. Intervals [-6,-4], [-4.9,-2.9], [-2,0].
  EXPECT_EQ(SelectSq8RerankCandidates(Metric::kCosine, q, 2,
                                      Candidates({-5, -3.9f, -1}, 1.f), 1,
                                      &keep),
            2u);
  EXPECT_EQ(keep, (std::vector<bool>{true, true, false}));
  // The same pool with eps 0 keeps only the best.
  EXPECT_EQ(SelectSq8RerankCandidates(Metric::kCosine, q, 2,
                                      Candidates({-5, -3.9f, -1}, 0.f), 1,
                                      &keep),
            1u);
}

TEST(Sq8SelectTest, UnknownErrorKeepsEverything) {
  const float q[2] = {1.f, 0.f};
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<bool> keep;
  for (const Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    // eps = +inf on every candidate: nothing can be ruled out.
    EXPECT_EQ(SelectSq8RerankCandidates(metric, q, 2,
                                        Candidates({1, 2, 30, 400}, inf), 1,
                                        &keep),
              4u);
    // One unknown candidate among exact ones is kept; the rest prune.
    std::vector<Sq8RerankCandidate> mixed = Candidates({1, 2, 30, 400}, 0.f);
    mixed[3].max_error = inf;
    EXPECT_EQ(SelectSq8RerankCandidates(metric, q, 2, mixed, 1, &keep), 2u);
    EXPECT_EQ(keep, (std::vector<bool>{true, false, false, true}));
    // A NaN score is kept too.
    mixed = Candidates({1, 2, std::numeric_limits<float>::quiet_NaN()}, 0.f);
    EXPECT_EQ(SelectSq8RerankCandidates(metric, q, 2, mixed, 1, &keep), 2u);
    EXPECT_EQ(keep, (std::vector<bool>{true, false, true}));
  }
  // k == 0, or no more candidates than k: everything is kept.
  EXPECT_EQ(SelectSq8RerankCandidates(Metric::kL2, q, 2,
                                      Candidates({1, 2, 3}, 0.f), 0, &keep),
            3u);
  EXPECT_EQ(SelectSq8RerankCandidates(Metric::kL2, q, 2,
                                      Candidates({1, 2, 3}, 0.f), 3, &keep),
            3u);
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

  struct RerankTotals {
    uint64_t reranked = 0;
    uint64_t candidates = 0;
    uint64_t flagged = 0;
    std::vector<QueryExplain> explains;  // one per query
  };

  // Every params row's max_error, by partition.
  static std::map<uint32_t, float> ErrorBounds(DB* db) {
    std::map<uint32_t, float> bounds;
    auto txn = db->engine()->BeginRead().value();
    BTreeCursor c = txn->OpenTable(kSq8ParamsTable).value().NewCursor();
    EXPECT_TRUE(c.SeekToFirst().ok());
    while (c.Valid()) {
      std::string_view key = c.key();
      uint32_t partition;
      EXPECT_TRUE(key::ConsumeU32(&key, &partition));
      Sq8PartitionParams p;
      EXPECT_TRUE(
          DecodeSq8Params(c.value().value(), db->options().dim, &p).ok());
      bounds[partition] = p.max_error;
      EXPECT_TRUE(c.Next().ok());
    }
    return bounds;
  }

  // Every code row's clamp flag, by the asset id of its float row.
  static std::map<std::string, bool> ClampFlags(DB* db) {
    const uint32_t dim = db->options().dim;
    std::map<std::string, bool> flags;
    auto txn = db->engine()->BeginRead().value();
    BTree vectors = txn->OpenTable(kVectorsTable).value();
    BTreeCursor c = txn->OpenTable(kSq8Table).value().NewCursor();
    EXPECT_TRUE(c.SeekToFirst().ok());
    while (c.Valid()) {
      const std::string value = c.value().value();
      Result<Sq8Row> code_row = DecodeSq8Row(value, dim);
      EXPECT_TRUE(code_row.ok()) << code_row.status().ToString();
      const std::string row =
          vectors.Get(std::string(c.key())).value().value_or("");
      VectorRow decoded;
      EXPECT_TRUE(DecodeVectorRow(row, dim, &decoded).ok());
      flags[decoded.asset_id] = code_row.ok() && code_row->clamped;
      EXPECT_TRUE(c.Next().ok());
    }
    return flags;
  }

  // Reranks each query's whole candidate pool without the executor: the
  // probe set from the centroids, SQ8 distances from the sidecar tables
  // (float distances for a partition without params), the top rerank_k by
  // (distance, id), then every candidate's exact distance. Search's rerank,
  // which re-reads only the candidates the error bound keeps, must return
  // exactly the top-k of that, ids and distances.
  RerankTotals ExpectRerankMatchesFullPool(
      DB* db, const std::vector<std::vector<float>>& queries, uint32_t k,
      uint32_t nprobe) {
    const uint32_t dim = db->options().dim;
    const Metric metric = db->options().metric;
    RerankTotals totals;
    for (size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      SearchRequest req;
      req.query = queries[q];
      req.k = k;
      req.nprobe = nprobe;
      req.quantized = true;
      Result<SearchResponse> resp = db->Search(req);
      EXPECT_TRUE(resp.ok()) << resp.status().ToString();
      if (!resp.ok()) continue;
      ExpectExplainInvariants(req, *resp);
      EXPECT_TRUE(resp->explain.quantized);

      auto txn = db->engine()->BeginRead().value();
      BTree vectors = txn->OpenTable(kVectorsTable).value();
      BTree sq8 = txn->OpenTable(kSq8Table).value();
      BTree sq8params = txn->OpenTable(kSq8ParamsTable).value();
      QueryPlanner planner(txn.get(), &db->options(), [] {
        return Result<
            std::shared_ptr<const std::map<std::string, ColumnStats>>>(
            std::make_shared<const std::map<std::string, ColumnStats>>());
      });
      const PhysicalPlan plan = planner.Lower(req).value();
      const CentroidSet cset =
          LoadCentroidSet(txn->view(), txn->OpenTable(kCentroidsTable).value(),
                          txn->OpenTable(kMetaTable).value(), dim, metric)
              .value();
      std::vector<uint32_t> probe = ComputeProbeSets(
          cset, dim, {ProbeRequest{plan.query.data(), plan.nprobe}})[0];
      probe.push_back(kDeltaPartition);

      auto exact_distance = [&](std::string_view value) {
        VectorRow row;
        EXPECT_TRUE(DecodeVectorRow(value, dim, &row).ok());
        std::vector<float> vec(dim);
        std::memcpy(vec.data(), row.vector_blob.data(), dim * sizeof(float));
        float d = 0.f;
        DistanceOneToMany(metric, plan.query.data(), vec.data(), 1, dim, &d);
        return d;
      };
      TopKHeap pool(plan.rerank_k);
      for (const uint32_t partition : probe) {
        const std::optional<Sq8PartitionParams> params =
            GetSq8Params(&sq8params, partition, dim).value();
        Sq8QueryContext ctx;
        if (params.has_value()) {
          ctx.Prepare(metric, plan.query.data(), params->min.data(),
                      params->scale.data(), dim);
        }
        BTreeCursor c = (params.has_value() ? sq8 : vectors).NewCursor();
        const std::string prefix = PartitionPrefix(partition);
        EXPECT_TRUE(c.Seek(prefix).ok());
        while (c.Valid() && c.key().substr(0, prefix.size()) == prefix) {
          uint32_t p;
          uint64_t vid;
          EXPECT_TRUE(ParseVectorKey(c.key(), &p, &vid).ok());
          const std::string value = c.value().value();
          float d = 0.f;
          if (params.has_value()) {
            Sq8DistanceOneToMany(ctx, DecodeSq8Row(value, dim)->codes, 1,
                                 &d);
          } else {
            d = exact_distance(value);
          }
          pool.Push(vid, d, partition);
          EXPECT_TRUE(c.Next().ok());
        }
      }
      const std::vector<Neighbor> candidates = pool.TakeSorted();
      TopKHeap reranked(k);
      for (const Neighbor& nb : candidates) {
        auto row = vectors.Get(VectorKey(nb.partition, nb.id)).value();
        EXPECT_TRUE(row.has_value()) << "vid " << nb.id;
        if (row.has_value()) reranked.Push(nb.id, exact_distance(*row));
      }
      const std::vector<Neighbor> expected = reranked.TakeSorted();

      EXPECT_EQ(resp->explain.rerank_candidates, candidates.size());
      EXPECT_LE(std::min<uint64_t>(k, candidates.size()),
                resp->explain.rows_reranked);
      EXPECT_LE(resp->explain.rows_reranked, candidates.size());
      EXPECT_EQ(resp->items.size(), expected.size());
      for (size_t i = 0; i < std::min(expected.size(), resp->items.size());
           ++i) {
        EXPECT_EQ(resp->items[i].vid, expected[i].id) << "rank " << i;
        EXPECT_EQ(resp->items[i].distance, expected[i].distance)
            << "rank " << i;
      }
      totals.reranked += resp->explain.rows_reranked;
      totals.candidates += resp->explain.rerank_candidates;
      totals.flagged += resp->explain.rerank_flagged;
      totals.explains.push_back(resp->explain);
    }
    return totals;
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
      ExpectExplainInvariants(req, float_resp);
      EXPECT_FALSE(float_resp.explain.quantized);

      req.quantized = true;
      auto sq8_resp = db->Search(req).value();
      ExpectExplainInvariants(req, sq8_resp);
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
  ExpectExplainInvariants(req, resp);
  EXPECT_FALSE(resp.explain.quantized);
  EXPECT_EQ(resp.explain.partitions_quantized, 0u);
  EXPECT_EQ(resp.explain.rows_reranked, 0u);
  EXPECT_EQ(resp.items.size(), 10u);

  ASSERT_TRUE(db->BuildIndex().ok());
  resp = db->Search(req).value();
  ExpectExplainInvariants(req, resp);
  EXPECT_TRUE(resp.explain.quantized);
  EXPECT_GT(resp.explain.partitions_quantized, 0u);
  EXPECT_EQ(resp.explain.rerank_budget, 40u);  // k * kSq8RerankAlpha
  EXPECT_GT(resp.explain.rerank_candidates, 0u);
  EXPECT_LE(resp.explain.rerank_candidates, resp.explain.rerank_budget);
  // The error bound drops candidates that cannot reach the top-k before
  // any read: the rerank re-reads at least k of them and at most all.
  EXPECT_LE(std::min<uint64_t>(req.k, resp.explain.rerank_candidates),
            resp.explain.rows_reranked);
  EXPECT_LE(resp.explain.rows_reranked, resp.explain.rerank_candidates);
  EXPECT_NE(resp.explain.ToString().find("sq8["), std::string::npos);

  // The per-request opt-out wins over the DB default.
  req.quantized = false;
  resp = db->Search(req).value();
  ExpectExplainInvariants(req, resp);
  EXPECT_FALSE(resp.explain.quantized);
  EXPECT_EQ(resp.explain.rows_reranked, 0u);

  // Requests are quantized by default, and exact plans never use the
  // quantized path.
  EXPECT_TRUE(SearchRequest{}.quantized);
  req.quantized = true;
  req.exact = true;
  resp = db->Search(req).value();
  ExpectExplainInvariants(req, resp);
  EXPECT_EQ(resp.explain.plan, QueryPlan::kExact);
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
  ExpectExplainInvariants(requests, batch);
  for (size_t q = 0; q < requests.size(); ++q) {
    auto single = db->Search(requests[q]).value();
    ExpectExplainInvariants(requests[q], single);
    ASSERT_EQ(batch[q].items.size(), single.items.size()) << "query " << q;
    for (size_t i = 0; i < single.items.size(); ++i) {
      EXPECT_EQ(batch[q].items[i].vid, single.items[i].vid)
          << "query " << q << " rank " << i;
      EXPECT_EQ(batch[q].items[i].distance, single.items[i].distance)
          << "query " << q << " rank " << i;
    }
    EXPECT_EQ(batch[q].explain.rows_filtered, single.explain.rows_filtered)
        << "query " << q;
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
  const uint64_t per_query_rows = batch[0].explain.rows_scanned;
  EXPECT_EQ(group_rows, per_query_rows);
  for (const auto& resp : batch) {
    EXPECT_TRUE(resp.explain.shared_scan);
    EXPECT_EQ(resp.explain.rows_scanned, per_query_rows);
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
        ExpectExplainInvariants(req, resp);
        ASSERT_EQ(resp.explain.plan, c.plan);
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
            executor.Execute(plans);
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

// The error-bounded rerank re-reads only the candidates that can still
// reach the top-k, and returns exactly what reranking the whole pool
// returns — for every metric, right after a build, with clamped rows in
// the delta store, and after Maintain flushed those clamped rows into
// partitions whose bounds no longer cover them (drift requantization is
// off here, so the clamped codes stay, flagged, and are always re-read).
TEST_F(Sq8DbTest, PrunedRerankMatchesFullPoolRerank) {
  for (const Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    SCOPED_TRACE("metric " + std::to_string(static_cast<int>(metric)));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    DatasetSpec spec;
    spec.name = "sq8-prune";
    spec.dim = 16;
    spec.metric = metric;
    spec.n = 2000;
    spec.n_queries = 16;
    Dataset ds = GenerateDataset(spec);
    DbOptions options = SmallOptions(spec.dim, metric);
    options.centroid_index_threshold = 0;  // the oracle probes centroids
    options.sq8_requantize_saturation = 0;
    auto db = LoadDataset(ds, options);
    ASSERT_TRUE(db->BuildIndex().ok());
    VerifySidecar(db.get());

    std::vector<std::vector<float>> queries;
    for (size_t q = 0; q < spec.n_queries; ++q) {
      queries.emplace_back(ds.query(q), ds.query(q) + spec.dim);
    }
    const RerankTotals built =
        ExpectRerankMatchesFullPool(db.get(), queries, 10, 4);
    EXPECT_LT(built.reranked, built.candidates) << "nothing was pruned";

    // Rows shifted out of the global box in half their dimensions: their
    // delta codes clamp and are flagged.
    std::vector<UpsertRequest> shifted;
    for (size_t i = 0; i < 150; ++i) {
      UpsertRequest req;
      req.asset_id = "shift" + std::to_string(i);
      req.vector.assign(ds.row(i), ds.row(i) + spec.dim);
      for (uint32_t d = 0; d < spec.dim; d += 2) req.vector[d] += 2.0f;
      shifted.push_back(std::move(req));
    }
    ASSERT_TRUE(db->Upsert(shifted).ok());
    VerifySidecar(db.get());
    for (size_t i = 0; i < 8; ++i) queries.push_back(shifted[i].vector);
    ExpectRerankMatchesFullPool(db.get(), queries, 10, 4);

    const MaintenanceReport report = db->Maintain().value();
    ASSERT_FALSE(report.full_rebuild);
    EXPECT_EQ(report.delta_flushed, shifted.size());
    VerifySidecar(db.get());
    ExpectRerankMatchesFullPool(db.get(), queries, 10, 4);
  }
}

// A params row written before max_error existed (exactly 2*dim floats)
// decodes to an unknown error: its partition's candidates are never
// pruned, results stay those of the full rerank, and upserts and flushes
// into it leave the row as it is.
TEST_F(Sq8DbTest, LegacyParamsRowsRerankEverything) {
  DatasetSpec spec;
  spec.name = "sq8-legacy";
  spec.dim = 16;
  spec.n = 1500;
  spec.n_queries = 8;
  Dataset ds = GenerateDataset(spec);
  DbOptions options = SmallOptions(spec.dim);
  options.centroid_index_threshold = 0;
  options.sq8_requantize_saturation = 0;  // no params row is rewritten
  auto db = LoadDataset(ds, options);
  ASSERT_TRUE(db->BuildIndex().ok());

  const size_t legacy_size = 2 * spec.dim * sizeof(float);
  auto params_sizes = [&] {
    std::vector<size_t> sizes;
    auto txn = db->engine()->BeginRead().value();
    BTreeCursor c = txn->OpenTable(kSq8ParamsTable).value().NewCursor();
    EXPECT_TRUE(c.SeekToFirst().ok());
    while (c.Valid()) {
      sizes.push_back(c.value().value().size());
      EXPECT_TRUE(c.Next().ok());
    }
    return sizes;
  };
  {
    auto txn = db->engine()->BeginWrite().value();
    BTree sq8params = txn->OpenTable(kSq8ParamsTable).value();
    std::vector<std::pair<std::string, std::string>> rows;
    BTreeCursor c = sq8params.NewCursor();
    ASSERT_TRUE(c.SeekToFirst().ok());
    while (c.Valid()) {
      const std::string value = c.value().value();
      ASSERT_EQ(value.size(), legacy_size + sizeof(float));
      rows.emplace_back(std::string(c.key()), value.substr(0, legacy_size));
      ASSERT_TRUE(c.Next().ok());
    }
    for (const auto& [key, value] : rows) {
      ASSERT_TRUE(sq8params.Put(key, value).ok());
    }
    ASSERT_TRUE(db->engine()->Commit(std::move(txn)).ok());
  }
  const std::vector<size_t> sizes = params_sizes();
  ASSERT_FALSE(sizes.empty());
  for (const size_t size : sizes) EXPECT_EQ(size, legacy_size);

  std::vector<std::vector<float>> queries;
  for (size_t q = 0; q < spec.n_queries; ++q) {
    queries.emplace_back(ds.query(q), ds.query(q) + spec.dim);
  }
  RerankTotals totals = ExpectRerankMatchesFullPool(db.get(), queries, 10, 4);
  EXPECT_EQ(totals.reranked, totals.candidates);

  std::vector<UpsertRequest> extra;
  for (size_t i = 0; i < 100; ++i) {
    UpsertRequest req;
    req.asset_id = "x" + std::to_string(i);
    req.vector.assign(ds.row(i), ds.row(i) + spec.dim);
    for (float& f : req.vector) f += 0.5f;
    extra.push_back(std::move(req));
  }
  ASSERT_TRUE(db->Upsert(extra).ok());
  totals = ExpectRerankMatchesFullPool(db.get(), queries, 10, 4);
  EXPECT_EQ(totals.reranked, totals.candidates);
  ASSERT_TRUE(db->Maintain().ok());
  VerifySidecar(db.get());
  totals = ExpectRerankMatchesFullPool(db.get(), queries, 10, 4);
  EXPECT_EQ(totals.reranked, totals.candidates);
  for (const size_t size : params_sizes()) EXPECT_EQ(size, legacy_size);
}

// Rows upserted outside every partition's box clamp when quantized. They
// are flagged instead of raising max_error: after the upserts and after
// Maintain flushed them into partitions whose bounds do not cover them,
// every params row keeps its error bound, exactly the moved rows are
// flagged, and the rerank re-reads about as many rows as before the
// writes, give or take the flagged candidates — with results still those
// of the full-pool rerank.
TEST_F(Sq8DbTest, ClampedRowsLeaveErrorBoundAlone) {
  DatasetSpec spec;
  spec.name = "sq8-clamp";
  spec.dim = 16;
  spec.n = 2000;
  spec.n_queries = 16;
  Dataset ds = GenerateDataset(spec);
  DbOptions options = SmallOptions(spec.dim);
  options.centroid_index_threshold = 0;  // the oracle probes centroids
  options.sq8_requantize_saturation = 0;  // the clamped codes stay
  auto db = LoadDataset(ds, options);
  ASSERT_TRUE(db->BuildIndex().ok());

  std::vector<std::vector<float>> queries;
  for (size_t q = 0; q < spec.n_queries; ++q) {
    queries.emplace_back(ds.query(q), ds.query(q) + spec.dim);
  }
  const std::map<uint32_t, float> bounds = ErrorBounds(db.get());
  ASSERT_GT(bounds.size(), 1u);
  const RerankTotals before =
      ExpectRerankMatchesFullPool(db.get(), queries, 10, 4);
  EXPECT_EQ(before.flagged, 0u);
  EXPECT_LT(before.reranked, before.candidates);

  // Dimension 0 of each moved row sits just above the largest value any
  // row has there, so it clamps in the global box and in every partition's.
  float top = ds.row(0)[0];
  for (size_t i = 0; i < spec.n; ++i) top = std::max(top, ds.row(i)[0]);
  std::vector<UpsertRequest> moved;
  for (size_t i = 0; i < 200; ++i) {
    UpsertRequest req;
    req.asset_id = "moved" + std::to_string(i);
    req.vector.assign(ds.row(i), ds.row(i) + spec.dim);
    req.vector[0] = top + 0.05f;
    moved.push_back(std::move(req));
  }
  auto expect_moved_rows_flagged = [&] {
    size_t flagged = 0;
    for (const auto& [asset, clamped] : ClampFlags(db.get())) {
      EXPECT_EQ(clamped, asset.starts_with("moved")) << asset;
      flagged += clamped;
    }
    EXPECT_EQ(flagged, moved.size());
  };
  // Each query re-reads at most its flagged candidates more than before
  // the writes, or fewer when they pushed candidates out of its pool.
  auto expect_pruning_kept = [&](const RerankTotals& after) {
    ASSERT_EQ(after.explains.size(), before.explains.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      const uint64_t was = before.explains[q].rows_reranked;
      const uint64_t now = after.explains[q].rows_reranked;
      const uint64_t flagged = after.explains[q].rerank_flagged;
      EXPECT_LE(now, was + flagged) << "query " << q;
      EXPECT_LE(was, now + flagged) << "query " << q;
    }
    EXPECT_GT(after.flagged, 0u) << "no moved row reached a candidate pool";
    EXPECT_LT(after.reranked, after.candidates);
  };
  ASSERT_TRUE(db->Upsert(moved).ok());
  VerifySidecar(db.get());
  EXPECT_EQ(ErrorBounds(db.get()), bounds);
  expect_moved_rows_flagged();
  expect_pruning_kept(ExpectRerankMatchesFullPool(db.get(), queries, 10, 4));

  // The flush also moves the centroids, so a query may probe other
  // partitions than before; the bound then holds over the query set.
  const MaintenanceReport report = db->Maintain().value();
  ASSERT_FALSE(report.full_rebuild);
  EXPECT_EQ(report.delta_flushed, moved.size());
  VerifySidecar(db.get());
  EXPECT_EQ(ErrorBounds(db.get()), bounds);
  expect_moved_rows_flagged();
  const RerankTotals after =
      ExpectRerankMatchesFullPool(db.get(), queries, 10, 4);
  EXPECT_LE(after.reranked, before.reranked + after.flagged);
  EXPECT_LE(before.reranked, after.reranked + after.flagged);
  EXPECT_GT(after.flagged, 0u) << "no moved row reached a candidate pool";
  EXPECT_LT(after.reranked, after.candidates);
}

// Code rows written before the clamp flag existed (exactly dim bytes)
// decode as unflagged. That is safe because their writer raised max_error
// for every row, clamped or not: with the flags stripped and every params
// row's error raised to cover its rows, results stay those of the
// full-pool rerank, before and after new (flagged) upserts and Maintain.
TEST_F(Sq8DbTest, LegacyCodeRowsStayCovered) {
  DatasetSpec spec;
  spec.name = "sq8-legacy-codes";
  spec.dim = 16;
  spec.n = 1500;
  spec.n_queries = 8;
  Dataset ds = GenerateDataset(spec);
  DbOptions options = SmallOptions(spec.dim);
  options.centroid_index_threshold = 0;
  options.sq8_requantize_saturation = 0;
  auto db = LoadDataset(ds, options);
  ASSERT_TRUE(db->BuildIndex().ok());

  // Rows shifted out of the boxes in half their dimensions: they clamp in
  // the delta store, and again once Maintain moves them into partitions.
  auto shifted = [&](const std::string& prefix, float by) {
    std::vector<UpsertRequest> batch;
    for (size_t i = 0; i < 100; ++i) {
      UpsertRequest req;
      req.asset_id = prefix + std::to_string(i);
      req.vector.assign(ds.row(i), ds.row(i) + spec.dim);
      for (uint32_t d = 0; d < spec.dim; d += 2) req.vector[d] += by;
      batch.push_back(std::move(req));
    }
    return batch;
  };
  const std::vector<UpsertRequest> old_rows = shifted("old", 0.5f);
  ASSERT_TRUE(db->Upsert(old_rows).ok());
  ASSERT_TRUE(db->Maintain().ok());
  ASSERT_TRUE(db->Upsert(shifted("old-delta", 0.7f)).ok());

  // Rewrite the sidecar as the writer before the flag did: dim-byte code
  // rows, and every params row's max_error raised over all of its rows.
  const uint32_t dim = spec.dim;
  size_t stripped_clamped = 0;
  {
    auto txn = db->engine()->BeginWrite().value();
    BTree vectors = txn->OpenTable(kVectorsTable).value();
    BTree sq8 = txn->OpenTable(kSq8Table).value();
    BTree sq8params = txn->OpenTable(kSq8ParamsTable).value();
    std::map<uint32_t, Sq8PartitionParams> params;
    for (const auto& [partition, bound] : ErrorBounds(db.get())) {
      params[partition] =
          GetSq8Params(&sq8params, partition, dim).value().value();
    }
    std::vector<std::pair<std::string, std::string>> rows;
    BTreeCursor c = sq8.NewCursor();
    ASSERT_TRUE(c.SeekToFirst().ok());
    while (c.Valid()) {
      uint32_t partition;
      uint64_t vid;
      ASSERT_TRUE(ParseVectorKey(c.key(), &partition, &vid).ok());
      const std::string value = c.value().value();
      const Sq8Row code_row = DecodeSq8Row(value, dim).value();
      stripped_clamped += code_row.clamped;
      VectorRow row;
      const std::string blob = vectors.Get(std::string(c.key())).value().value();
      ASSERT_TRUE(DecodeVectorRow(blob, dim, &row).ok());
      std::vector<float> vec(dim);
      std::memcpy(vec.data(), row.vector_blob.data(), dim * sizeof(float));
      Sq8PartitionParams& p = params.at(partition);
      p.max_error = std::max(
          p.max_error, Sq8ReconstructionError(vec.data(), code_row.codes,
                                              p.min.data(), p.scale.data(),
                                              dim));
      rows.emplace_back(std::string(c.key()), value.substr(0, dim));
      ASSERT_TRUE(c.Next().ok());
    }
    for (const auto& [key, value] : rows) {
      ASSERT_TRUE(sq8.Put(key, value).ok());
    }
    for (const auto& [partition, p] : params) {
      ASSERT_TRUE(
          sq8params.Put(key::U32(partition), EncodeSq8Params(p)).ok());
    }
    ASSERT_TRUE(db->engine()->Commit(std::move(txn)).ok());
  }
  ASSERT_GT(stripped_clamped, 0u) << "no clamped row to strip";
  for (const auto& [asset, clamped] : ClampFlags(db.get())) {
    EXPECT_FALSE(clamped) << asset;
  }
  VerifySidecar(db.get());

  std::vector<std::vector<float>> queries;
  for (size_t q = 0; q < spec.n_queries; ++q) {
    queries.emplace_back(ds.query(q), ds.query(q) + spec.dim);
  }
  for (size_t i = 0; i < 4; ++i) queries.push_back(old_rows[i].vector);
  RerankTotals totals = ExpectRerankMatchesFullPool(db.get(), queries, 10, 4);
  EXPECT_EQ(totals.flagged, 0u);

  // New writes beside the legacy rows: flagged rows join unflagged legacy
  // ones in the same partitions and the same candidate pools.
  const std::vector<UpsertRequest> new_rows = shifted("new", 0.6f);
  ASSERT_TRUE(db->Upsert(new_rows).ok());
  VerifySidecar(db.get());
  for (size_t i = 0; i < 4; ++i) queries.push_back(new_rows[i].vector);
  totals = ExpectRerankMatchesFullPool(db.get(), queries, 10, 4);
  EXPECT_GT(totals.flagged, 0u);
  ASSERT_TRUE(db->Maintain().ok());
  VerifySidecar(db.get());
  totals = ExpectRerankMatchesFullPool(db.get(), queries, 10, 4);
  EXPECT_GT(totals.flagged, 0u);
}

}  // namespace
}  // namespace micronn
