// Edge-case coverage for partition scans, exact search, vector codecs and
// the recall helper — the pieces between storage and search.
#include <gtest/gtest.h>

#include <filesystem>

#include "ivf/scan.h"
#include "ivf/search.h"
#include "query/executor.h"
#include "storage/engine.h"
#include "storage/key_encoding.h"

namespace micronn {
namespace {

class ScanEdgeTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 4;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_scanedge_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    engine_ = StorageEngine::Open(dir_ / "db").value();
  }
  void TearDown() override {
    engine_.reset();
    std::filesystem::remove_all(dir_);
  }

  void PutRow(BTree* vectors, uint32_t partition, uint64_t vid, float x) {
    const float v[kDim] = {x, 0, 0, 0};
    ASSERT_TRUE(vectors
                    ->Put(VectorKey(partition, vid),
                          EncodeVectorRow("a" + std::to_string(vid), v, kDim))
                    .ok());
  }

  std::filesystem::path dir_;
  std::unique_ptr<StorageEngine> engine_;
};

TEST_F(ScanEdgeTest, EmptyPartitionScansZeroRows) {
  auto txn = engine_->BeginWrite().value();
  BTree vectors = txn->OpenOrCreateTable(kVectorsTable).value();
  PutRow(&vectors, 5, 1, 1.f);
  size_t rows = 0;
  ASSERT_TRUE(ScanPartition(vectors, 3, kDim, nullptr,
                            [&](const ScanBlock& b) {
                              rows += b.count;
                              return Status::OK();
                            },
                            nullptr)
                  .ok());
  EXPECT_EQ(rows, 0u);
  engine_->Rollback(std::move(txn));
}

TEST_F(ScanEdgeTest, ScanStopsAtPartitionBoundary) {
  auto txn = engine_->BeginWrite().value();
  BTree vectors = txn->OpenOrCreateTable(kVectorsTable).value();
  // Partitions 1, 2, 3 with 5 rows each; scanning 2 must see exactly 5.
  uint64_t vid = 1;
  for (uint32_t p = 1; p <= 3; ++p) {
    for (int i = 0; i < 5; ++i) PutRow(&vectors, p, vid++, 1.f);
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(ScanPartition(vectors, 2, kDim, nullptr,
                            [&](const ScanBlock& b) {
                              for (size_t i = 0; i < b.count; ++i) {
                                seen.push_back(b.vids[i]);
                              }
                              return Status::OK();
                            },
                            nullptr)
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{6, 7, 8, 9, 10}));
  engine_->Rollback(std::move(txn));
}

TEST_F(ScanEdgeTest, BlockBoundaryExactMultiple) {
  // Exactly kScanBlockRows rows: one full block, no empty trailing block.
  auto txn = engine_->BeginWrite().value();
  BTree vectors = txn->OpenOrCreateTable(kVectorsTable).value();
  for (uint64_t vid = 1; vid <= kScanBlockRows; ++vid) {
    PutRow(&vectors, 1, vid, static_cast<float>(vid));
  }
  size_t blocks = 0, rows = 0;
  ASSERT_TRUE(ScanPartition(vectors, 1, kDim, nullptr,
                            [&](const ScanBlock& b) {
                              ++blocks;
                              rows += b.count;
                              return Status::OK();
                            },
                            nullptr)
                  .ok());
  EXPECT_EQ(blocks, 1u);
  EXPECT_EQ(rows, kScanBlockRows);
  engine_->Rollback(std::move(txn));
}

TEST_F(ScanEdgeTest, CallbackErrorAbortsScan) {
  auto txn = engine_->BeginWrite().value();
  BTree vectors = txn->OpenOrCreateTable(kVectorsTable).value();
  for (uint64_t vid = 1; vid <= 600; ++vid) {
    PutRow(&vectors, 1, vid, 1.f);
  }
  size_t calls = 0;
  Status st = ScanPartition(vectors, 1, kDim, nullptr,
                            [&](const ScanBlock&) {
                              ++calls;
                              return Status::Aborted("stop");
                            },
                            nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(calls, 1u);
  engine_->Rollback(std::move(txn));
}

TEST_F(ScanEdgeTest, FilterErrorPropagates) {
  auto txn = engine_->BeginWrite().value();
  BTree vectors = txn->OpenOrCreateTable(kVectorsTable).value();
  PutRow(&vectors, 1, 1, 1.f);
  RowFilter broken = [](uint64_t) -> Result<bool> {
    return Status::IOError("attr table gone");
  };
  Status st = ScanPartition(vectors, 1, kDim, broken,
                            [](const ScanBlock&) { return Status::OK(); },
                            nullptr);
  EXPECT_TRUE(st.IsIOError());
  engine_->Rollback(std::move(txn));
}

TEST_F(ScanEdgeTest, CorruptRowSurfacesAsCorruption) {
  auto txn = engine_->BeginWrite().value();
  BTree vectors = txn->OpenOrCreateTable(kVectorsTable).value();
  ASSERT_TRUE(vectors.Put(VectorKey(1, 1), "garbage").ok());
  Status st = ScanPartition(vectors, 1, kDim, nullptr,
                            [](const ScanBlock&) { return Status::OK(); },
                            nullptr);
  EXPECT_TRUE(st.IsCorruption());
  engine_->Rollback(std::move(txn));
}

TEST_F(ScanEdgeTest, ExactPlanKLargerThanCollection) {
  auto txn = engine_->BeginWrite().value();
  BTree vectors = txn->OpenOrCreateTable(kVectorsTable).value();
  for (uint64_t vid = 1; vid <= 3; ++vid) {
    PutRow(&vectors, 1, vid, static_cast<float>(vid));
  }
  PhysicalPlan plan;
  plan.query.assign(kDim, 0.f);
  plan.k = 10;
  plan.plan = QueryPlan::kExact;
  QueryExecutor executor(ExecutorContext{
      .vectors = vectors,
      .vidmap = txn->OpenOrCreateTable(kVidMapTable).value(),
      .dim = kDim,
      .metric = Metric::kL2,
      .sq8 = std::nullopt,
      .sq8params = std::nullopt,
      .attributes = std::nullopt});
  auto result = executor.Execute({plan}).value();
  ASSERT_EQ(result[0].neighbors.size(), 3u);
  EXPECT_EQ(result[0].neighbors[0].id, 1u);  // closest to 0
  engine_->Rollback(std::move(txn));
}

TEST(RecallTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(RecallAtK({}, {}), 1.0);  // empty truth: vacuous
  EXPECT_DOUBLE_EQ(RecallAtK({}, {{1, 0.f}}), 0.0);
  EXPECT_DOUBLE_EQ(RecallAtK({{1, 0.f}}, {{1, 0.f}}), 1.0);
  EXPECT_DOUBLE_EQ(RecallAtK({{2, 0.f}}, {{1, 0.f}, {3, 1.f}}), 0.0);
  EXPECT_DOUBLE_EQ(RecallAtK({{1, 0.f}, {9, 2.f}}, {{1, 0.f}, {3, 1.f}}),
                   0.5);
}

}  // namespace
}  // namespace micronn
