// B+Tree tests: basic operations, splits, overflow values, deletion,
// cursors, and a property-based model check against std::map.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/btree.h"
#include "storage/engine.h"
#include "storage/key_encoding.h"
#include "storage/pager.h"

namespace micronn {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_btree_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    pager_ = Pager::Open(dir_ / "db", PagerOptions{}).value();
    txn_ = pager_->BeginWrite().value();
    view_ = std::make_unique<WriteView>(pager_.get(), txn_.get());
    root_ = BTree::Create(view_.get()).value();
  }
  void TearDown() override {
    view_.reset();
    txn_.reset();  // rolls back, releasing the writer slot
    pager_.reset();
    std::filesystem::remove_all(dir_);
  }

  BTree Tree() { return BTree(view_.get(), root_); }

  std::filesystem::path dir_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<WriteTxnState> txn_;
  std::unique_ptr<WriteView> view_;
  PageId root_;
};

TEST_F(BTreeTest, EmptyTreeGetsNothing) {
  BTree t = Tree();
  auto r = t.Get("absent");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
  BTreeCursor c = t.NewCursor();
  ASSERT_TRUE(c.SeekToFirst().ok());
  EXPECT_FALSE(c.Valid());
}

TEST_F(BTreeTest, PutGetSingle) {
  BTree t = Tree();
  ASSERT_TRUE(t.Put("key", "value").ok());
  auto r = t.Get("key");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ(**r, "value");
}

TEST_F(BTreeTest, PutReplacesExisting) {
  BTree t = Tree();
  ASSERT_TRUE(t.Put("key", "v1").ok());
  ASSERT_TRUE(t.Put("key", "v2-longer-than-before").ok());
  EXPECT_EQ(*t.Get("key").value(), "v2-longer-than-before");
  ASSERT_TRUE(t.Put("key", "s").ok());
  EXPECT_EQ(*t.Get("key").value(), "s");
}

TEST_F(BTreeTest, RejectsOversizeAndEmptyKeys) {
  BTree t = Tree();
  EXPECT_FALSE(t.Put("", "v").ok());
  EXPECT_FALSE(t.Put(std::string(kMaxKeySize + 1, 'k'), "v").ok());
  EXPECT_TRUE(t.Put(std::string(kMaxKeySize, 'k'), "v").ok());
}

TEST_F(BTreeTest, ManyInsertsForceSplits) {
  BTree t = Tree();
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Put(key::U64(i * 7919 % n), "value-" +
                      std::to_string(i * 7919 % n)).ok());
  }
  ASSERT_TRUE(t.CheckIntegrity().ok());
  for (int i = 0; i < n; ++i) {
    auto r = t.Get(key::U64(i));
    ASSERT_TRUE(r.ok()) << i;
    ASSERT_TRUE(r->has_value()) << i;
    EXPECT_EQ(**r, "value-" + std::to_string(i));
  }
}

TEST_F(BTreeTest, SequentialInsertStaysCompact) {
  // The append-optimized split should keep sorted bulk loads working and
  // the tree structurally valid.
  BTree t = Tree();
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(t.Put(key::U64(i), std::string(50, 'a' + i % 26)).ok());
  }
  ASSERT_TRUE(t.CheckIntegrity().ok());
  BTreeCursor c = t.NewCursor();
  ASSERT_TRUE(c.SeekToFirst().ok());
  int count = 0;
  while (c.Valid()) {
    ++count;
    ASSERT_TRUE(c.Next().ok());
  }
  EXPECT_EQ(count, 3000);
}

TEST_F(BTreeTest, OverflowValuesRoundTrip) {
  BTree t = Tree();
  // Values above kMaxInlineValue (~1 KiB) spill to overflow chains; test
  // one-page and multi-page chains, including exactly-at-boundary sizes.
  for (size_t len : {kMaxInlineValue, kMaxInlineValue + 1, kPageSize - 10,
                     kPageSize, 3 * kPageSize + 123, size_t{40000}}) {
    std::string v(len, 'x');
    for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<char>('a' + i % 26);
    ASSERT_TRUE(t.Put("k" + std::to_string(len), v).ok());
    auto r = t.Get("k" + std::to_string(len));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->has_value());
    EXPECT_EQ(**r, v) << len;
  }
  ASSERT_TRUE(t.CheckIntegrity().ok());
}

TEST_F(BTreeTest, CursorValueViewBorrowsInlineAndSpillsOverflow) {
  BTree t = Tree();
  std::string big(3 * kMaxInlineValue, 'x');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + i % 26);
  }
  ASSERT_TRUE(t.Put("a_inline", "small value").ok());
  ASSERT_TRUE(t.Put("b_overflow", big).ok());

  BTreeCursor c = t.NewCursor();
  ASSERT_TRUE(c.SeekToFirst().ok());
  ASSERT_TRUE(c.Valid());
  std::string storage;
  auto inline_view = c.ValueView(&storage);
  ASSERT_TRUE(inline_view.ok());
  EXPECT_EQ(*inline_view, "small value");
  // Inline values are borrowed from the leaf page, not copied out.
  EXPECT_TRUE(storage.empty());
  EXPECT_NE(static_cast<const void*>(inline_view->data()),
            static_cast<const void*>(storage.data()));

  ASSERT_TRUE(c.Next().ok());
  ASSERT_TRUE(c.Valid());
  auto overflow_view = c.ValueView(&storage);
  ASSERT_TRUE(overflow_view.ok());
  EXPECT_EQ(*overflow_view, big);
  // Overflow values materialize into the caller's spill buffer.
  EXPECT_EQ(static_cast<const void*>(overflow_view->data()),
            static_cast<const void*>(storage.data()));

  // Both accessors agree.
  EXPECT_EQ(c.value().value(), *overflow_view);
}

TEST_F(BTreeTest, OverflowChainsFreedOnDeleteAndReplace) {
  BTree t = Tree();
  const std::string big(10 * kPageSize, 'z');
  ASSERT_TRUE(t.Put("big", big).ok());
  // Replacing with an inline value must free the old chain; the pages
  // should be reusable.
  ASSERT_TRUE(t.Put("big", "small").ok());
  EXPECT_EQ(*t.Get("big").value(), "small");
  ASSERT_TRUE(t.Put("big2", big).ok());
  ASSERT_TRUE(t.Delete("big2").value());
  EXPECT_FALSE(t.Get("big2").value().has_value());
  ASSERT_TRUE(t.CheckIntegrity().ok());
}

TEST_F(BTreeTest, DeleteMissingReturnsFalse) {
  BTree t = Tree();
  ASSERT_TRUE(t.Put("a", "1").ok());
  EXPECT_FALSE(t.Delete("b").value());
  EXPECT_TRUE(t.Delete("a").value());
  EXPECT_FALSE(t.Delete("a").value());
}

TEST_F(BTreeTest, DeleteEverythingLeavesEmptyTree) {
  BTree t = Tree();
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Put(key::U64(i), "v" + std::to_string(i)).ok());
  }
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Delete(key::U64(i)).value()) << i;
  }
  ASSERT_TRUE(t.CheckIntegrity().ok());
  BTreeCursor c = t.NewCursor();
  ASSERT_TRUE(c.SeekToFirst().ok());
  EXPECT_FALSE(c.Valid());
  // The tree must be reusable after total deletion.
  ASSERT_TRUE(t.Put("again", "yes").ok());
  EXPECT_EQ(*t.Get("again").value(), "yes");
}

TEST_F(BTreeTest, CursorFullScanIsSorted) {
  BTree t = Tree();
  Rng rng(42);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    const std::string k = key::U64(rng.Uniform(100000));
    const std::string v = "v" + std::to_string(i);
    model[k] = v;
    ASSERT_TRUE(t.Put(k, v).ok());
  }
  BTreeCursor c = t.NewCursor();
  ASSERT_TRUE(c.SeekToFirst().ok());
  auto it = model.begin();
  while (c.Valid()) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(c.key(), it->first);
    EXPECT_EQ(c.value().value(), it->second);
    ASSERT_TRUE(c.Next().ok());
    ++it;
  }
  EXPECT_EQ(it, model.end());
}

TEST_F(BTreeTest, CursorSeekFindsLowerBound) {
  BTree t = Tree();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.Put(key::U64(i * 10), "v").ok());
  }
  BTreeCursor c = t.NewCursor();
  ASSERT_TRUE(c.Seek(key::U64(55)).ok());
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.key(), key::U64(60));
  ASSERT_TRUE(c.Seek(key::U64(60)).ok());
  EXPECT_EQ(c.key(), key::U64(60));
  ASSERT_TRUE(c.Seek(key::U64(2000)).ok());
  EXPECT_FALSE(c.Valid());
  ASSERT_TRUE(c.Seek(key::U64(0)).ok());
  EXPECT_EQ(c.key(), key::U64(0));
}

TEST_F(BTreeTest, PrefixRangeScan) {
  BTree t = Tree();
  // Emulate the (partition, vector) clustered key of the Vectors table.
  for (uint32_t part = 1; part <= 5; ++part) {
    for (uint64_t vid = 0; vid < 50; ++vid) {
      std::string k;
      key::AppendU32(&k, part);
      key::AppendU64(&k, vid);
      ASSERT_TRUE(t.Put(k, std::to_string(part * 1000 + vid)).ok());
    }
  }
  // Scan exactly partition 3 via prefix seek.
  const std::string prefix = key::U32(3);
  BTreeCursor c = t.NewCursor();
  ASSERT_TRUE(c.Seek(prefix).ok());
  int count = 0;
  while (c.Valid() && c.key().substr(0, 4) == prefix) {
    std::string_view rest = c.key().substr(4);
    uint64_t vid;
    ASSERT_TRUE(key::ConsumeU64(&rest, &vid));
    EXPECT_EQ(c.value().value(), std::to_string(3000 + vid));
    ++count;
    ASSERT_TRUE(c.Next().ok());
  }
  EXPECT_EQ(count, 50);
}

TEST_F(BTreeTest, ClearFreesAndResets) {
  BTree t = Tree();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t.Put(key::U64(i), std::string(2000, 'v')).ok());
  }
  ASSERT_TRUE(t.Clear().ok());
  BTreeCursor c = t.NewCursor();
  ASSERT_TRUE(c.SeekToFirst().ok());
  EXPECT_FALSE(c.Valid());
  ASSERT_TRUE(t.Put("x", "y").ok());
  EXPECT_EQ(*t.Get("x").value(), "y");
  ASSERT_TRUE(t.CheckIntegrity().ok());
}

// SeekForward over a committed tree, read through a snapshot so page reads
// show up in the pager's cache counters.
class BTreeSeekForwardTest : public BTreeTest {
 protected:
  // Commits the write transaction and opens a read snapshot over it.
  void CommitAndSnapshot() {
    view_.reset();
    ASSERT_TRUE(pager_->CommitWrite(std::move(txn_)).ok());
    seq_ = pager_->BeginSnapshot();
    read_view_ = std::make_unique<ReadView>(pager_.get(), seq_);
  }
  void TearDown() override {
    if (read_view_ != nullptr) pager_->EndSnapshot(seq_);
    read_view_.reset();
    BTreeTest::TearDown();
  }

  // Page-cache lookups (hits + misses) so far.
  uint64_t Lookups() const {
    const IoStats::View v = pager_->io_stats().Snapshot();
    return v.pages_cache_hit + v.CacheMisses();
  }

  // Walks `targets` with one SeekForward cursor and checks every position
  // against a fresh Seek.
  void ExpectMatchesSeek(BTree t, const std::vector<std::string>& targets) {
    BTreeCursor walk = t.NewCursor();
    for (const std::string& target : targets) {
      ASSERT_TRUE(walk.SeekForward(target).ok());
      BTreeCursor fresh = t.NewCursor();
      ASSERT_TRUE(fresh.Seek(target).ok());
      ASSERT_EQ(walk.Valid(), fresh.Valid()) << target;
      if (!fresh.Valid()) continue;
      ASSERT_EQ(walk.key(), fresh.key()) << target;
      std::string spill;
      ASSERT_EQ(walk.ValueView(&spill).value(), fresh.value().value())
          << target;
    }
  }

  uint64_t seq_ = 0;
  std::unique_ptr<ReadView> read_view_;
};

TEST_F(BTreeSeekForwardTest, MatchesSeekOnSortedRuns) {
  // Long keys keep interior fanout low so the tree grows three levels;
  // every 37th value spills to an overflow chain. Even indexes only, so
  // odd indexes are absent keys between present ones.
  auto key_of = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key-%06d-", i);
    return std::string(buf) + std::string(100, 'p');
  };
  {
    BTree t = Tree();
    for (int i = 0; i < 8000; i += 2) {
      const std::string value =
          (i / 2) % 37 == 0 ? std::string(2 * kMaxInlineValue, 'a' + i % 26)
                            : "v" + std::to_string(i);
      ASSERT_TRUE(t.Put(key_of(i), value).ok());
    }
    ASSERT_TRUE(t.CheckIntegrity().ok());
  }
  CommitAndSnapshot();
  BTree t(read_view_.get(), root_);

  // Leaf boundaries: a full scan reads pages exactly when Next() crosses
  // into the next leaf.
  std::vector<std::string> keys;
  std::vector<std::string> leaf_firsts;
  std::vector<std::string> leaf_lasts;
  {
    BTreeCursor c = t.NewCursor();
    ASSERT_TRUE(c.SeekToFirst().ok());
    leaf_firsts.emplace_back(c.key());
    while (c.Valid()) {
      keys.emplace_back(c.key());
      const uint64_t before = Lookups();
      ASSERT_TRUE(c.Next().ok());
      if (c.Valid() && Lookups() != before) {
        leaf_lasts.push_back(keys.back());
        leaf_firsts.emplace_back(c.key());
      }
    }
    leaf_lasts.push_back(keys.back());
  }
  ASSERT_EQ(keys.size(), 4000u);
  ASSERT_GT(leaf_firsts.size(), 50u);  // many leaves

  // One fresh Seek reads one page per level.
  uint64_t levels;
  {
    const uint64_t before = Lookups();
    BTreeCursor c = t.NewCursor();
    ASSERT_TRUE(c.Seek(keys[keys.size() / 2]).ok());
    levels = Lookups() - before;
  }
  ASSERT_GE(levels, 3u);  // root, interior level(s), leaf

  Rng rng(0x5eef);
  std::vector<std::string> pool;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::string> run;
    const int len = 1 + static_cast<int>(rng.Uniform(40));
    const int base = static_cast<int>(rng.Uniform(8000));
    for (int j = 0; j < len; ++j) {
      switch (rng.Uniform(5)) {
        case 0:  // present key near the run's base
          run.push_back(key_of((base + 2 * static_cast<int>(rng.Uniform(60))) /
                               2 * 2));
          break;
        case 1:  // absent key between present ones
          run.push_back(key_of((base + static_cast<int>(rng.Uniform(120))) |
                               1));
          break;
        case 2:  // first or last key of a leaf
          run.push_back(rng.Uniform(2) == 0
                            ? leaf_firsts[rng.Uniform(leaf_firsts.size())]
                            : leaf_lasts[rng.Uniform(leaf_lasts.size())]);
          break;
        case 3:  // past the last key
          run.push_back("key-999999");
          break;
        default:  // a prefix of a present key (absent, sorts before it)
          run.push_back(key_of(base / 2 * 2).substr(0, 11));
          break;
      }
    }
    std::sort(run.begin(), run.end());
    ExpectMatchesSeek(t, run);
  }
  // Targets before the first key, and a descending run (SeekForward must
  // still agree with Seek when a target falls outside the pinned leaf).
  ExpectMatchesSeek(t, {"a", "key-", keys.front()});
  ExpectMatchesSeek(t, {keys[3000], keys[2000], keys[10], "a"});

  // A run confined to one leaf reads that leaf once: the whole walk costs
  // what a single fresh Seek does.
  for (size_t leaf : {size_t{0}, leaf_firsts.size() / 2,
                      leaf_firsts.size() - 1}) {
    const auto first = std::find(keys.begin(), keys.end(), leaf_firsts[leaf]);
    const auto last = std::find(keys.begin(), keys.end(), leaf_lasts[leaf]);
    ASSERT_TRUE(first != keys.end() && last != keys.end());
    std::vector<std::string> run(first, last + 1);
    ASSERT_GE(run.size(), 2u);
    // Absent keys inside the leaf's range too.
    run.push_back(std::string(run[0]) + "~");
    std::sort(run.begin(), run.end());
    const uint64_t before = Lookups();
    BTreeCursor c = t.NewCursor();
    for (const std::string& target : run) {
      ASSERT_TRUE(c.SeekForward(target).ok());
      ASSERT_TRUE(c.Valid());
    }
    EXPECT_EQ(Lookups() - before, levels) << "leaf " << leaf;
  }
}

TEST_F(BTreeSeekForwardTest, SingleLeafTree) {
  {
    BTree t = Tree();
    for (int i = 0; i < 10; i += 2) {
      ASSERT_TRUE(t.Put(key::U64(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(t.Put(key::U64(100), std::string(3 * kMaxInlineValue, 'o'))
                    .ok());
  }
  CommitAndSnapshot();
  BTree t(read_view_.get(), root_);
  std::vector<std::string> run;
  for (uint64_t i = 0; i <= 101; ++i) run.push_back(key::U64(i));
  ExpectMatchesSeek(t, run);

  // The root is the only leaf: one read for the whole run.
  const uint64_t before = Lookups();
  BTreeCursor c = t.NewCursor();
  for (uint64_t i = 0; i <= 100; ++i) {
    ASSERT_TRUE(c.SeekForward(key::U64(i)).ok());
  }
  EXPECT_EQ(Lookups() - before, 1u);
}

// Property test: random interleaved Put/Delete/Get streams must match a
// std::map model exactly, across several seeds and value-size regimes.
struct ModelParam {
  uint64_t seed;
  size_t max_value_len;
  int ops;
};

class BTreeModelTest : public ::testing::TestWithParam<ModelParam> {};

TEST_P(BTreeModelTest, MatchesStdMap) {
  const ModelParam param = GetParam();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("micronn_btree_model_" + std::to_string(::getpid()) +
                    "_" + std::to_string(param.seed) + "_" +
                    std::to_string(param.max_value_len));
  std::filesystem::create_directories(dir);
  {
    auto pager = Pager::Open(dir / "db", PagerOptions{}).value();
    auto txn = pager->BeginWrite().value();
    WriteView view(pager.get(), txn.get());
    const PageId root = BTree::Create(&view).value();
    BTree tree(&view, root);

    Rng rng(param.seed);
    std::map<std::string, std::string> model;
    const uint64_t key_space = 500;
    for (int op = 0; op < param.ops; ++op) {
      const std::string k = key::U64(rng.Uniform(key_space));
      const uint64_t action = rng.Uniform(10);
      if (action < 6) {  // Put
        const size_t len = rng.Uniform(param.max_value_len + 1);
        std::string v(len, '\0');
        for (auto& ch : v) ch = static_cast<char>('a' + rng.Uniform(26));
        ASSERT_TRUE(tree.Put(k, v).ok());
        model[k] = v;
      } else if (action < 9) {  // Delete
        auto erased = tree.Delete(k);
        ASSERT_TRUE(erased.ok());
        EXPECT_EQ(*erased, model.erase(k) > 0) << "op " << op;
      } else {  // Get
        auto got = tree.Get(k);
        ASSERT_TRUE(got.ok());
        auto it = model.find(k);
        if (it == model.end()) {
          EXPECT_FALSE(got->has_value()) << "op " << op;
        } else {
          ASSERT_TRUE(got->has_value()) << "op " << op;
          EXPECT_EQ(**got, it->second) << "op " << op;
        }
      }
    }
    ASSERT_TRUE(tree.CheckIntegrity().ok());
    // Final full-scan equivalence.
    BTreeCursor c = tree.NewCursor();
    ASSERT_TRUE(c.SeekToFirst().ok());
    auto it = model.begin();
    size_t scanned = 0;
    while (c.Valid()) {
      ASSERT_NE(it, model.end());
      EXPECT_EQ(c.key(), it->first);
      EXPECT_EQ(c.value().value(), it->second);
      ASSERT_TRUE(c.Next().ok());
      ++it;
      ++scanned;
    }
    EXPECT_EQ(scanned, model.size());
    txn.reset();
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    RandomStreams, BTreeModelTest,
    ::testing::Values(ModelParam{1, 40, 4000},     // small inline values
                      ModelParam{2, 40, 4000},
                      ModelParam{3, 2000, 1500},   // mix inline + overflow
                      ModelParam{4, 2000, 1500},
                      ModelParam{5, 9000, 600},    // mostly overflow chains
                      ModelParam{6, 0, 2000}));    // empty values

}  // namespace
}  // namespace micronn
