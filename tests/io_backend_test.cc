// The batched read path: backend selection (pread / io_uring / forced
// fallback), FileHandle::ReadBatch correctness on both backends,
// Pager::PrefetchPages semantics and counters, fault injection
// through PagerOptions::file_wrapper, and end-to-end cold-cache parity —
// every backend x prefetch depth must return bit-identical search results
// and per-query counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/db.h"
#include "storage/file.h"
#include "storage/io_backend.h"
#include "storage/pager.h"
#include "support/fault_injection_file.h"

namespace micronn {
namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("micronn_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    OverrideIoUringAvailabilityForTest(std::nullopt);
    ::unsetenv("MICRONN_IO_BACKEND");
    std::filesystem::remove_all(dir_);
  }
  std::string Path(const std::string& name) const { return dir_ / name; }
  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

TEST(IoBackendNameTest, ParseRoundTrip) {
  for (const IoBackend b :
       {IoBackend::kAuto, IoBackend::kPread, IoBackend::kUring}) {
    const auto parsed = ParseIoBackend(IoBackendName(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(ParseIoBackend("aio").has_value());
  EXPECT_FALSE(ParseIoBackend("").has_value());
}

using IoBackendTest = TempDir;

TEST_F(IoBackendTest, ResolveNeverReturnsAuto) {
  for (const IoBackend b :
       {IoBackend::kAuto, IoBackend::kPread, IoBackend::kUring}) {
    const IoBackend r = ResolveIoBackend(b);
    EXPECT_NE(r, IoBackend::kAuto);
  }
}

TEST_F(IoBackendTest, UringRequestFallsBackWhenUnavailable) {
  OverrideIoUringAvailabilityForTest(false);
  EXPECT_EQ(ResolveIoBackend(IoBackend::kUring), IoBackend::kPread);
  EXPECT_EQ(ResolveIoBackend(IoBackend::kAuto), IoBackend::kPread);
  IoBackend effective = IoBackend::kAuto;
  auto file = OpenFile(Path("f"), IoBackend::kUring, &effective);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(effective, IoBackend::kPread);
}

TEST_F(IoBackendTest, EnvOverrideWins) {
  OverrideIoUringAvailabilityForTest(true);
  ::setenv("MICRONN_IO_BACKEND", "pread", 1);
  EXPECT_EQ(ResolveIoBackend(IoBackend::kUring), IoBackend::kPread);
  EXPECT_EQ(ResolveIoBackend(IoBackend::kAuto), IoBackend::kPread);
  ::unsetenv("MICRONN_IO_BACKEND");
}

TEST_F(IoBackendTest, PagerReportsEffectiveBackend) {
  OverrideIoUringAvailabilityForTest(false);
  PagerOptions opts;
  opts.io_backend = IoBackend::kUring;
  auto pager = Pager::Open(Path("db"), opts).value();
  EXPECT_EQ(pager->io_backend(), IoBackend::kPread);
}

// ---------------------------------------------------------------------------
// ReadBatch correctness (both backends)
// ---------------------------------------------------------------------------

void FillFile(FileHandle* file, size_t n_blocks) {
  std::string block(512, '\0');
  for (size_t b = 0; b < n_blocks; ++b) {
    for (size_t i = 0; i < block.size(); ++i) {
      block[i] = static_cast<char>((b * 31 + i) & 0xff);
    }
    ASSERT_TRUE(file->WriteAt(b * block.size(), block.data(), block.size())
                    .ok());
  }
}

void CheckBatchAgainstReadAt(FileHandle* file, size_t n_blocks) {
  Rng rng(1234);
  for (int round = 0; round < 8; ++round) {
    const size_t n_ops = 1 + rng.Uniform(200);
    std::vector<std::string> expect(n_ops);
    std::vector<std::string> got(n_ops);
    std::vector<ReadOp> ops(n_ops);
    for (size_t i = 0; i < n_ops; ++i) {
      const uint64_t off = rng.Uniform(n_blocks * 512 - 256);
      const size_t len = 1 + rng.Uniform(256);
      expect[i].resize(len);
      ASSERT_TRUE(file->ReadAt(off, expect[i].data(), len).ok());
      got[i].resize(len);
      ops[i] = ReadOp{off, got[i].data(), len, Status::OK()};
    }
    ASSERT_TRUE(file->ReadBatch(ops.data(), ops.size()).ok());
    for (size_t i = 0; i < n_ops; ++i) {
      ASSERT_TRUE(ops[i].status.ok()) << ops[i].status.ToString();
      EXPECT_EQ(got[i], expect[i]) << "op " << i << " round " << round;
    }
  }
}

TEST_F(IoBackendTest, PosixReadBatchMatchesReadAt) {
  auto file = OpenFile(Path("f"), IoBackend::kPread).value();
  FillFile(file.get(), 64);
  CheckBatchAgainstReadAt(file.get(), 64);
}

TEST_F(IoBackendTest, UringReadBatchMatchesReadAt) {
  if (!IoUringAvailable()) {
    GTEST_SKIP() << "io_uring not available in this build/kernel";
  }
  IoBackend effective = IoBackend::kAuto;
  auto file = OpenFile(Path("f"), IoBackend::kUring, &effective).value();
  ASSERT_EQ(effective, IoBackend::kUring);
  FillFile(file.get(), 64);
  CheckBatchAgainstReadAt(file.get(), 64);
}

TEST_F(IoBackendTest, ReadBatchReportsPerOpFailures) {
  for (const IoBackend backend : {IoBackend::kPread, IoBackend::kUring}) {
    if (backend == IoBackend::kUring && !IoUringAvailable()) continue;
    auto file = OpenFile(Path("f_" + std::string(IoBackendName(backend))),
                         backend)
                    .value();
    ASSERT_TRUE(file->WriteAt(0, "0123456789", 10).ok());
    char a[4], b[4];
    ReadOp ops[2] = {
        {2, a, 4, Status::OK()},
        {1 << 20, b, 4, Status::OK()},  // far past EOF
    };
    ASSERT_TRUE(file->ReadBatch(ops, 2).ok());
    EXPECT_TRUE(ops[0].status.ok());
    EXPECT_EQ(std::string(a, 4), "2345");
    EXPECT_FALSE(ops[1].status.ok()) << IoBackendName(backend);
  }
}

// ---------------------------------------------------------------------------
// SubmitRead / ReapCompletions: the true async API (uring) and its
// blocking emulation (pread). Identical results either way.
// ---------------------------------------------------------------------------

void CheckSubmitReapAgainstReadAt(FileHandle* file, size_t n_blocks) {
  Rng rng(4321);
  for (int round = 0; round < 8; ++round) {
    const size_t n_ops = 1 + rng.Uniform(300);  // > ring size some rounds
    std::vector<std::string> expect(n_ops);
    std::vector<std::string> got(n_ops);
    std::vector<ReadOp> ops(n_ops);
    for (size_t i = 0; i < n_ops; ++i) {
      const uint64_t off = rng.Uniform(n_blocks * 512 - 256);
      const size_t len = 1 + rng.Uniform(256);
      expect[i].resize(len);
      ASSERT_TRUE(file->ReadAt(off, expect[i].data(), len).ok());
      got[i].resize(len);
      ops[i] = ReadOp{off, got[i].data(), len, Status::OK()};
    }
    IoTicket ticket;
    ASSERT_TRUE(file->SubmitRead(ops.data(), ops.size(), &ticket).ok());
    ASSERT_TRUE(file->ReapCompletions(&ticket, /*wait=*/true).ok());
    EXPECT_TRUE(ticket.done());
    for (size_t i = 0; i < n_ops; ++i) {
      ASSERT_TRUE(ops[i].status.ok()) << ops[i].status.ToString();
      EXPECT_EQ(got[i], expect[i]) << "op " << i << " round " << round;
    }
  }
}

TEST_F(IoBackendTest, PosixSubmitReapMatchesReadAt) {
  auto file = OpenFile(Path("f"), IoBackend::kPread).value();
  FillFile(file.get(), 64);
  CheckSubmitReapAgainstReadAt(file.get(), 64);
}

TEST_F(IoBackendTest, UringSubmitReapMatchesReadAt) {
  if (!IoUringAvailable()) {
    GTEST_SKIP() << "io_uring not available in this build/kernel";
  }
  IoBackend effective = IoBackend::kAuto;
  auto file = OpenFile(Path("f"), IoBackend::kUring, &effective).value();
  ASSERT_EQ(effective, IoBackend::kUring);
  FillFile(file.get(), 64);
  CheckSubmitReapAgainstReadAt(file.get(), 64);
}

TEST_F(IoBackendTest, OutOfOrderTicketReap) {
  // Two in-flight tickets, reaped in reverse submission order. On uring
  // the second reap drains the first ticket's CQEs too (cross-ticket
  // harvesting frees their ring slots); the first ticket's own reap then
  // just observes completion. Both batches together oversubscribe the
  // ring, so slot recycling under pressure is exercised as well.
  for (const IoBackend backend : {IoBackend::kPread, IoBackend::kUring}) {
    if (backend == IoBackend::kUring && !IoUringAvailable()) continue;
    SCOPED_TRACE(IoBackendName(backend));
    auto file = OpenFile(Path("f_" + std::string(IoBackendName(backend))),
                         backend)
                    .value();
    FillFile(file.get(), 64);
    constexpr size_t kOps = 100;  // 2 x 100 > the 128-entry ring
    std::vector<std::string> got_a(kOps), got_b(kOps);
    std::vector<ReadOp> ops_a(kOps), ops_b(kOps);
    for (size_t i = 0; i < kOps; ++i) {
      got_a[i].resize(512);
      got_b[i].resize(512);
      ops_a[i] = ReadOp{(i % 64) * 512, got_a[i].data(), 512, Status::OK()};
      ops_b[i] =
          ReadOp{((i + 17) % 64) * 512, got_b[i].data(), 512, Status::OK()};
    }
    IoTicket ta, tb;
    ASSERT_TRUE(file->SubmitRead(ops_a.data(), kOps, &ta).ok());
    ASSERT_TRUE(file->SubmitRead(ops_b.data(), kOps, &tb).ok());
    ASSERT_TRUE(file->ReapCompletions(&tb, /*wait=*/true).ok());
    ASSERT_TRUE(file->ReapCompletions(&ta, /*wait=*/true).ok());
    EXPECT_TRUE(ta.done());
    EXPECT_TRUE(tb.done());
    for (size_t i = 0; i < kOps; ++i) {
      ASSERT_TRUE(ops_a[i].status.ok());
      ASSERT_TRUE(ops_b[i].status.ok());
      std::string expect(512, '\0');
      ASSERT_TRUE(
          file->ReadAt(ops_a[i].offset, expect.data(), expect.size()).ok());
      EXPECT_EQ(got_a[i], expect);
      ASSERT_TRUE(
          file->ReadAt(ops_b[i].offset, expect.data(), expect.size()).ok());
      EXPECT_EQ(got_b[i], expect);
    }
  }
}

TEST_F(IoBackendTest, NonBlockingReapEventuallyCompletes) {
  for (const IoBackend backend : {IoBackend::kPread, IoBackend::kUring}) {
    if (backend == IoBackend::kUring && !IoUringAvailable()) continue;
    SCOPED_TRACE(IoBackendName(backend));
    auto file = OpenFile(Path("f_" + std::string(IoBackendName(backend))),
                         backend)
                    .value();
    FillFile(file.get(), 64);
    constexpr size_t kOps = 50;
    std::vector<std::string> got(kOps);
    std::vector<ReadOp> ops(kOps);
    for (size_t i = 0; i < kOps; ++i) {
      got[i].resize(512);
      ops[i] = ReadOp{(i % 64) * 512, got[i].data(), 512, Status::OK()};
    }
    IoTicket ticket;
    ASSERT_TRUE(file->SubmitRead(ops.data(), kOps, &ticket).ok());
    // wait=false never blocks; page-cache reads complete almost
    // immediately, so polling converges fast.
    for (int spin = 0; spin < 1000000 && !ticket.done(); ++spin) {
      ASSERT_TRUE(file->ReapCompletions(&ticket, /*wait=*/false).ok());
    }
    // A final blocking reap settles any stragglers deterministically.
    ASSERT_TRUE(file->ReapCompletions(&ticket, /*wait=*/true).ok());
    EXPECT_TRUE(ticket.done());
    for (size_t i = 0; i < kOps; ++i) {
      ASSERT_TRUE(ops[i].status.ok());
    }
  }
}

TEST_F(IoBackendTest, SubmitReapReportsMidGroupFailures) {
  // One op in the middle of a larger-than-the-ring group fails (far past
  // EOF); its status is reported at reap time and every sibling op still
  // completes with correct data.
  for (const IoBackend backend : {IoBackend::kPread, IoBackend::kUring}) {
    if (backend == IoBackend::kUring && !IoUringAvailable()) continue;
    SCOPED_TRACE(IoBackendName(backend));
    auto file = OpenFile(Path("f_" + std::string(IoBackendName(backend))),
                         backend)
                    .value();
    FillFile(file.get(), 64);
    constexpr size_t kOps = 300;
    constexpr size_t kBadOp = 150;
    std::vector<std::string> got(kOps);
    std::vector<ReadOp> ops(kOps);
    for (size_t i = 0; i < kOps; ++i) {
      got[i].resize(64);
      ops[i] = ReadOp{(i % 64) * 512, got[i].data(), 64, Status::OK()};
    }
    ops[kBadOp].offset = 1ull << 30;  // far past EOF
    IoTicket ticket;
    ASSERT_TRUE(file->SubmitRead(ops.data(), kOps, &ticket).ok());
    ASSERT_TRUE(file->ReapCompletions(&ticket, /*wait=*/true).ok());
    for (size_t i = 0; i < kOps; ++i) {
      if (i == kBadOp) {
        EXPECT_FALSE(ops[i].status.ok());
        continue;
      }
      ASSERT_TRUE(ops[i].status.ok()) << "op " << i;
      std::string expect(64, '\0');
      ASSERT_TRUE(
          file->ReadAt(ops[i].offset, expect.data(), expect.size()).ok());
      EXPECT_EQ(got[i], expect) << "op " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Async fault matrix: faults injected by the decorator fire at reap time
// (the pread emulation defers the whole batch to ReapCompletions).
// ---------------------------------------------------------------------------

TEST_F(IoBackendTest, ShortReadAtReapIsReported) {
  auto base = OpenFile(Path("f"), IoBackend::kPread).value();
  FillFile(base.get(), 8);
  FaultSchedule s;
  s.short_read_at = 2;
  FaultInjectionFile file(std::move(base), s);
  char a[16], b[16], c[16];
  ReadOp ops[3] = {
      {0, a, 16, Status::OK()},
      {512, b, 16, Status::OK()},
      {1024, c, 16, Status::OK()},
  };
  IoTicket ticket;
  ASSERT_TRUE(file.SubmitRead(ops, 3, &ticket).ok());
  EXPECT_EQ(file.counters().reads, 0u);  // nothing read before the reap
  ASSERT_TRUE(file.ReapCompletions(&ticket, /*wait=*/true).ok());
  EXPECT_TRUE(ops[0].status.ok());
  EXPECT_FALSE(ops[1].status.ok());  // the injected short read
  EXPECT_TRUE(ops[2].status.ok());
}

TEST_F(IoBackendTest, EintrDuringReapIsTransparent) {
  auto base = OpenFile(Path("f"), IoBackend::kPread).value();
  FillFile(base.get(), 8);
  FaultSchedule s;
  s.eintr_every = 1;  // every read interrupted once and restarted
  FaultInjectionFile file(std::move(base), s);
  std::vector<std::string> got(16);
  std::vector<ReadOp> ops(16);
  for (size_t i = 0; i < ops.size(); ++i) {
    got[i].resize(64);
    ops[i] = ReadOp{(i % 8) * 512, got[i].data(), 64, Status::OK()};
  }
  IoTicket ticket;
  ASSERT_TRUE(file.SubmitRead(ops.data(), ops.size(), &ticket).ok());
  ASSERT_TRUE(file.ReapCompletions(&ticket, /*wait=*/true).ok());
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_TRUE(ops[i].status.ok());
    std::string expect(64, '\0');
    ASSERT_TRUE(
        file.ReadAt(ops[i].offset, expect.data(), expect.size()).ok());
    EXPECT_EQ(got[i], expect);
  }
}

// ---------------------------------------------------------------------------
// WriteBatch: vectored writes, coalescing, and syscall accounting
// ---------------------------------------------------------------------------

TEST_F(IoBackendTest, WriteBatchMatchesWriteAt) {
  Rng rng(555);
  for (const IoBackend backend : {IoBackend::kPread, IoBackend::kUring}) {
    if (backend == IoBackend::kUring && !IoUringAvailable()) continue;
    SCOPED_TRACE(IoBackendName(backend));
    const std::string tag(IoBackendName(backend));
    auto batched = OpenFile(Path("batched_" + tag), backend).value();
    auto looped = OpenFile(Path("looped_" + tag), backend).value();
    // A mix of contiguous runs and scattered ops, applied in one
    // WriteBatch vs. a WriteAt loop: files must end up byte-identical.
    std::vector<std::string> payloads;
    payloads.reserve(100);  // ops keep data() pointers; SSO strings move
                            // with the vector on reallocation
    std::vector<WriteOp> ops;
    uint64_t off = 0;
    for (int i = 0; i < 100; ++i) {
      if (rng.Uniform(4) == 0) off += 512 + rng.Uniform(2048);  // gap
      const size_t len = 1 + rng.Uniform(700);
      std::string p(len, '\0');
      for (auto& ch : p) ch = static_cast<char>(rng.Uniform(256));
      payloads.push_back(std::move(p));
      ops.push_back(WriteOp{off, payloads.back().data(),
                            payloads.back().size(), Status::OK()});
      off += len;
    }
    ASSERT_TRUE(batched->WriteBatch(ops.data(), ops.size()).ok());
    for (const WriteOp& op : ops) {
      ASSERT_TRUE(op.status.ok()) << op.status.ToString();
      ASSERT_TRUE(looped->WriteAt(op.offset, op.buf, op.len).ok());
    }
    ASSERT_EQ(batched->size(), looped->size());
    std::string a(batched->size(), '\0'), b(looped->size(), '\0');
    ASSERT_TRUE(batched->ReadAt(0, a.data(), a.size()).ok());
    ASSERT_TRUE(looped->ReadAt(0, b.data(), b.size()).ok());
    EXPECT_EQ(a, b);
  }
}

TEST_F(IoBackendTest, WriteBatchCoalescesSyscalls) {
  // 64 offset-contiguous ops must collapse into far fewer kernel round
  // trips: one pwritev on the pread backend, a handful of ring enters on
  // uring. write_syscalls is the counter the checkpoint reduction gate
  // watches.
  for (const IoBackend backend : {IoBackend::kPread, IoBackend::kUring}) {
    if (backend == IoBackend::kUring && !IoUringAvailable()) continue;
    SCOPED_TRACE(IoBackendName(backend));
    auto file = OpenFile(Path("f_" + std::string(IoBackendName(backend))),
                         backend)
                    .value();
    IoStats stats;
    file->set_io_stats(&stats);
    constexpr size_t kOps = 64;
    std::vector<std::string> payloads(kOps);
    std::vector<WriteOp> ops(kOps);
    for (size_t i = 0; i < kOps; ++i) {
      payloads[i].assign(512, static_cast<char>('a' + (i % 26)));
      ops[i] = WriteOp{i * 512, payloads[i].data(), 512, Status::OK()};
    }
    const uint64_t before = stats.write_syscalls.load();
    ASSERT_TRUE(file->WriteBatch(ops.data(), ops.size()).ok());
    const uint64_t delta = stats.write_syscalls.load() - before;
    EXPECT_GE(delta, 1u);
    EXPECT_LE(delta, kOps / 2) << "vectored writes did not coalesce";
    if (backend == IoBackend::kPread) {
      EXPECT_EQ(delta, 1u);  // one contiguous run, one pwritev
    }
    for (size_t i = 0; i < kOps; ++i) {
      std::string got(512, '\0');
      ASSERT_TRUE(file->ReadAt(i * 512, got.data(), got.size()).ok());
      EXPECT_EQ(got, payloads[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Pager::PrefetchPages
// ---------------------------------------------------------------------------

using PagerBatchTest = TempDir;

// Read-ahead reaped at once: the submit-and-wait shape.
void PrefetchAndFinish(Pager* pager, std::span<const PageId> pages,
                       uint64_t seq) {
  if (std::unique_ptr<AsyncPrefetch> h = pager->PrefetchPages(pages, seq)) {
    h->Finish();
  }
}

TEST_F(PagerBatchTest, PrefetchThenDemandReadsHitCache) {
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  std::vector<PageId> pages;
  {
    auto txn = pager->BeginWrite().value();
    for (int i = 0; i < 8; ++i) {
      const PageId pid = pager->AllocatePage(txn.get()).value();
      pager->GetMutablePage(txn.get(), pid).value()->WriteU32(0, 100 + i);
      pages.push_back(pid);
    }
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  pager->DropCaches();
  const uint64_t seq = pager->BeginSnapshot();
  const IoStats::View before = pager->io_stats().Snapshot();
  PrefetchAndFinish(pager.get(), pages, seq);
  const IoStats::View mid = pager->io_stats().Snapshot() - before;
  EXPECT_EQ(mid.pages_prefetched, pages.size());
  EXPECT_GT(mid.batch_reads, 0u);
  // Every demand read is now a cache hit, and the first hit per page
  // counts as a prefetch hit.
  for (size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(pager->ReadPage(pages[i], seq).value()->ReadU32(0), 100 + i);
  }
  const IoStats::View after = pager->io_stats().Snapshot() - before;
  EXPECT_EQ(after.prefetch_hits, pages.size());
  EXPECT_EQ(after.pages_cache_hit, pages.size());
  pager->EndSnapshot(seq);
}

TEST_F(PagerBatchTest, PrefetchPagesIsIdempotent) {
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  std::vector<PageId> pages;
  {
    auto txn = pager->BeginWrite().value();
    for (int i = 0; i < 4; ++i) {
      pages.push_back(pager->AllocatePage(txn.get()).value());
    }
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  // Fold into the main file so the batch exercises the main-file arm too.
  ASSERT_TRUE(pager->Checkpoint().ok());
  pager->DropCaches();
  const uint64_t seq = pager->BeginSnapshot();
  PrefetchAndFinish(pager.get(), pages, seq);
  // A second call finds everything resident: no new I/O.
  const IoStats::View before = pager->io_stats().Snapshot();
  EXPECT_EQ(pager->PrefetchPages(pages, seq), nullptr);
  const IoStats::View delta = pager->io_stats().Snapshot() - before;
  EXPECT_EQ(delta.pages_read_main, 0u);
  EXPECT_EQ(delta.pages_read_wal, 0u);
  // A bogus page id is silently skipped by the best-effort read-ahead.
  std::vector<PageId> bogus = {static_cast<PageId>(1 << 20)};
  EXPECT_EQ(pager->PrefetchPages(bogus, seq), nullptr);
  pager->EndSnapshot(seq);
}

TEST_F(PagerBatchTest, FaultWrapperInterceptsPagerIo) {
  // Fail the WAL commit append deterministically: the commit must error
  // and the data must stay absent after reopening without faults.
  FaultInjectionFile* wal_file = nullptr;
  PagerOptions opts;
  opts.file_wrapper = [&](std::unique_ptr<FileHandle> base,
                          std::string_view role)
      -> std::unique_ptr<FileHandle> {
    if (role != "wal") return base;
    FaultSchedule s;
    // Write #1 is the fresh WAL's header; #2 is the first commit's frame
    // write.
    s.fail_write_at = 2;
    auto wrapped =
        std::make_unique<FaultInjectionFile>(std::move(base), s);
    wal_file = wrapped.get();
    return wrapped;
  };
  {
    auto pager = Pager::Open(Path("db"), opts).value();
    ASSERT_NE(wal_file, nullptr);
    auto txn = pager->BeginWrite().value();
    pager->AllocatePage(txn.get()).value();
    EXPECT_FALSE(pager->CommitWrite(std::move(txn)).ok());
    EXPECT_GE(wal_file->counters().writes, 1u);
  }
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  EXPECT_EQ(pager->last_committed_seq(), 0u);
  EXPECT_EQ(pager->page_count(), 1u);  // just the header page
}

TEST_F(PagerBatchTest, AsyncPrefetchInstallsPagesOnFinish) {
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  std::vector<PageId> pages;
  {
    auto txn = pager->BeginWrite().value();
    for (int i = 0; i < 8; ++i) {
      const PageId pid = pager->AllocatePage(txn.get()).value();
      pager->GetMutablePage(txn.get(), pid).value()->WriteU32(0, 100 + i);
      pages.push_back(pid);
    }
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  // Fold so the async main-file arm (not the synchronous WAL arm) serves
  // the reads.
  ASSERT_TRUE(pager->Checkpoint().ok());
  pager->DropCaches();
  const uint64_t seq = pager->BeginSnapshot();
  const IoStats::View before = pager->io_stats().Snapshot();
  {
    std::unique_ptr<AsyncPrefetch> handle = pager->PrefetchPages(pages, seq);
    ASSERT_NE(handle, nullptr);
    handle->Finish();
  }
  const IoStats::View mid = pager->io_stats().Snapshot() - before;
  EXPECT_EQ(mid.pages_prefetched, pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(pager->ReadPage(pages[i], seq).value()->ReadU32(0), 100 + i);
  }
  const IoStats::View after = pager->io_stats().Snapshot() - before;
  EXPECT_EQ(after.prefetch_hits, pages.size());
  EXPECT_EQ(after.pages_cache_hit, pages.size());
  // Cached pages produce no in-flight work: null handle.
  EXPECT_EQ(pager->PrefetchPages(pages, seq), nullptr);
  pager->EndSnapshot(seq);
}

TEST_F(PagerBatchTest, EvictionCountersMatchShardSums) {
  PagerOptions opts;
  opts.cache_bytes = 8 * kPageSize;  // tiny: sweeping 64 pages must evict
  auto pager = Pager::Open(Path("db"), opts).value();
  std::vector<PageId> pages;
  {
    auto txn = pager->BeginWrite().value();
    for (int i = 0; i < 64; ++i) {
      pages.push_back(pager->AllocatePage(txn.get()).value());
    }
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  ASSERT_TRUE(pager->Checkpoint().ok());
  pager->DropCaches();
  const uint64_t seq = pager->BeginSnapshot();
  const IoStats::View before = pager->io_stats().Snapshot();
  PrefetchAndFinish(pager.get(), pages, seq);
  pager->EndSnapshot(seq);
  const IoStats::View delta = pager->io_stats().Snapshot() - before;
  EXPECT_GT(delta.cache_evictions, 0u);
}

TEST_F(PagerBatchTest, CheckpointBackfillCoalescesWrites) {
  auto pager = Pager::Open(Path("db"), PagerOptions{}).value();
  {
    auto txn = pager->BeginWrite().value();
    for (int i = 0; i < 64; ++i) {
      const PageId pid = pager->AllocatePage(txn.get()).value();
      pager->GetMutablePage(txn.get(), pid).value()->WriteU32(0, 7 * i);
    }
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  const IoStats::View before = pager->io_stats().Snapshot();
  ASSERT_TRUE(pager->Checkpoint().ok());
  const IoStats::View delta = pager->io_stats().Snapshot() - before;
  EXPECT_GE(delta.checkpoint_pages, 64u);
  // The acceptance gate: vectored backfill must fold at least 2 pages per
  // write syscall (the delta includes the WAL's own header writes, so the
  // real coalescing factor is higher still).
  EXPECT_GE(delta.checkpoint_pages, 2 * delta.write_syscalls)
      << "checkpoint_pages=" << delta.checkpoint_pages
      << " write_syscalls=" << delta.write_syscalls;
}

TEST_F(PagerBatchTest, TornVectoredCheckpointWriteRefoldsOnRetry) {
  // Power dies mid-way through the checkpoint's vectored backfill: one
  // main-file write tears. The durable-watermark-first ordering means the
  // WAL still owns every frame, so reads stay correct and the next
  // checkpoint re-folds the same frames over the torn bytes.
  FaultInjectionFile* db_file = nullptr;
  PagerOptions opts;
  opts.file_wrapper = [&](std::unique_ptr<FileHandle> base,
                          std::string_view role)
      -> std::unique_ptr<FileHandle> {
    if (role != "db") return base;
    auto wrapped =
        std::make_unique<FaultInjectionFile>(std::move(base), FaultSchedule{});
    db_file = wrapped.get();
    return wrapped;
  };
  auto pager = Pager::Open(Path("db"), opts).value();
  ASSERT_NE(db_file, nullptr);
  std::vector<PageId> pages;
  {
    auto txn = pager->BeginWrite().value();
    for (int i = 0; i < 16; ++i) {
      const PageId pid = pager->AllocatePage(txn.get()).value();
      pager->GetMutablePage(txn.get(), pid).value()->WriteU32(0, 9000 + i);
      pages.push_back(pid);
    }
    ASSERT_TRUE(pager->CommitWrite(std::move(txn)).ok());
  }
  // Arm: the next main-file write (the first vectored backfill run) tears
  // after 100 bytes.
  FaultSchedule tear;
  tear.torn_write_at = db_file->counters().writes + 1;
  tear.torn_write_bytes = 100;
  db_file->set_schedule(tear);
  EXPECT_FALSE(pager->Checkpoint().ok());
  db_file->set_schedule(FaultSchedule{});
  // The watermark never advanced past the tear, so reads resolve from the
  // WAL and stay correct...
  pager->DropCaches();
  {
    const uint64_t seq = pager->BeginSnapshot();
    for (size_t i = 0; i < pages.size(); ++i) {
      EXPECT_EQ(pager->ReadPage(pages[i], seq).value()->ReadU32(0), 9000 + i);
    }
    pager->EndSnapshot(seq);
  }
  // ...and the retried checkpoint re-folds over the torn bytes: the main
  // file now serves the same contents.
  ASSERT_TRUE(pager->Checkpoint().ok());
  pager->DropCaches();
  {
    const uint64_t seq = pager->BeginSnapshot();
    for (size_t i = 0; i < pages.size(); ++i) {
      EXPECT_EQ(pager->ReadPage(pages[i], seq).value()->ReadU32(0), 9000 + i);
    }
    pager->EndSnapshot(seq);
  }
}

// ---------------------------------------------------------------------------
// End-to-end cold-cache parity: backends x prefetch depths
// ---------------------------------------------------------------------------

class ColdCacheParityTest : public TempDir {
 protected:
  static constexpr uint32_t kDim = 16;
  static constexpr size_t kRows = 800;
  static constexpr size_t kQueries = 6;

  DbOptions BaseOptions() const {
    DbOptions o;
    o.dim = kDim;
    o.target_cluster_size = 64;
    o.pager.cache_bytes = 4 << 20;
    return o;
  }

  void BuildDataset(const std::string& path) {
    auto db = DB::Open(path, BaseOptions()).value();
    Rng rng(7);
    std::vector<UpsertRequest> batch;
    for (size_t i = 0; i < kRows; ++i) {
      UpsertRequest r;
      r.asset_id = "asset_" + std::to_string(i);
      r.vector.resize(kDim);
      for (auto& v : r.vector) v = rng.NextFloat();
      batch.push_back(std::move(r));
    }
    ASSERT_TRUE(db->Upsert(batch).ok());
    ASSERT_TRUE(db->BuildIndex().ok());
    ASSERT_TRUE(db->Close().ok());
  }

  std::vector<std::vector<float>> Queries() const {
    Rng rng(99);
    std::vector<std::vector<float>> qs(kQueries);
    for (auto& q : qs) {
      q.resize(kDim);
      for (auto& v : q) v = rng.NextFloat();
    }
    return qs;
  }

  struct RunResult {
    std::vector<uint64_t> ids;
    std::vector<float> distances;
    std::vector<uint64_t> counters;  // per-query rows/partitions scanned
    IoStats::View io;
  };

  RunResult RunQueries(const std::string& path, IoBackend backend,
                       uint32_t prefetch_depth, bool async = true) {
    DbOptions o = BaseOptions();
    o.pager.io_backend = backend;
    o.prefetch_depth = prefetch_depth;
    o.async_prefetch = async;
    auto db = DB::Open(path, o).value();
    db->DropCaches();
    RunResult out;
    const IoStats::View before = db->io_stats().Snapshot();
    for (const auto& q : Queries()) {
      // One plain ANN and one exact query per vector: both partition-scan
      // shapes go through the prefetching drain loop.
      for (const bool exact : {false, true}) {
        SearchRequest req;
        req.query = q;
        req.k = 10;
        req.exact = exact;
        auto resp = db->Search(req).value();
        for (const auto& item : resp.items) {
          out.ids.push_back(item.vid);
          out.distances.push_back(item.distance);
        }
        out.counters.push_back(resp.explain.rows_scanned);
        out.counters.push_back(resp.explain.partitions_scanned);
      }
    }
    out.io = db->io_stats().Snapshot() - before;
    EXPECT_TRUE(db->Close().ok());
    return out;
  }
};

TEST_F(ColdCacheParityTest, BackendsAndDepthsAreBitIdentical) {
  const std::string path = Path("db");
  BuildDataset(path);

  // The seed blocking path: pread backend, no read-ahead.
  const RunResult baseline = RunQueries(path, IoBackend::kPread, 0);
  ASSERT_FALSE(baseline.ids.empty());
  EXPECT_EQ(baseline.io.pages_prefetched, 0u);
  EXPECT_EQ(baseline.io.prefetch_hits, 0u);

  struct Config {
    IoBackend backend;
    uint32_t depth;
  };
  const Config configs[] = {
      {IoBackend::kPread, 2},
      {IoBackend::kPread, 8},
      {IoBackend::kUring, 0},
      {IoBackend::kUring, 2},
      {IoBackend::kUring, 8},
  };
  for (const Config& c : configs) {
    SCOPED_TRACE(std::string(IoBackendName(c.backend)) + " depth " +
                 std::to_string(c.depth));
    const RunResult got = RunQueries(path, c.backend, c.depth);
    EXPECT_EQ(got.ids, baseline.ids);
    EXPECT_EQ(got.distances, baseline.distances);  // bit-identical floats
    EXPECT_EQ(got.counters, baseline.counters);
    if (c.depth > 0) {
      EXPECT_GT(got.io.pages_prefetched, 0u);
      EXPECT_GT(got.io.prefetch_hits, 0u);
      EXPECT_GT(got.io.batch_reads, 0u);
    } else {
      EXPECT_EQ(got.io.pages_prefetched, 0u);
      EXPECT_EQ(got.io.prefetch_hits, 0u);
    }
  }
}

TEST_F(ColdCacheParityTest, ReapModesAreBitIdentical) {
  // The full mode matrix against the fully blocking seed path: {pread,
  // uring} x {reap at once, async overlap} x depth {0, 2, 8}. Same
  // randomized workload, bit-identical results and per-query counters in
  // every cell.
  const std::string path = Path("db");
  BuildDataset(path);
  const RunResult baseline =
      RunQueries(path, IoBackend::kPread, 0, /*async=*/false);
  ASSERT_FALSE(baseline.ids.empty());

  for (const IoBackend backend : {IoBackend::kPread, IoBackend::kUring}) {
    for (const bool async : {false, true}) {
      for (const uint32_t depth : {0u, 2u, 8u}) {
        SCOPED_TRACE(std::string(IoBackendName(backend)) + " depth " +
                     std::to_string(depth) + (async ? " async" : " sync"));
        const RunResult got = RunQueries(path, backend, depth, async);
        EXPECT_EQ(got.ids, baseline.ids);
        EXPECT_EQ(got.distances, baseline.distances);  // bit-identical
        EXPECT_EQ(got.counters, baseline.counters);
        if (depth > 0) {
          EXPECT_GT(got.io.pages_prefetched, 0u);
          EXPECT_GT(got.io.prefetch_hits, 0u);
        } else {
          EXPECT_EQ(got.io.pages_prefetched, 0u);
        }
      }
    }
  }
}

TEST_F(ColdCacheParityTest, ForcedFallbackStillPrefetches) {
  // With io_uring forced unavailable, a uring request must transparently
  // run the batched path over pread — same results, same prefetch
  // counters, just a different syscall pattern.
  const std::string path = Path("db");
  BuildDataset(path);
  const RunResult baseline = RunQueries(path, IoBackend::kPread, 2);
  OverrideIoUringAvailabilityForTest(false);
  const RunResult fallback = RunQueries(path, IoBackend::kUring, 2);
  OverrideIoUringAvailabilityForTest(std::nullopt);
  EXPECT_EQ(fallback.ids, baseline.ids);
  EXPECT_EQ(fallback.distances, baseline.distances);
  EXPECT_GT(fallback.io.pages_prefetched, 0u);
}

}  // namespace
}  // namespace micronn
