// Write-path bench: group commit and WAL wrap-around.
//
// Part 1 — commit scaling: synced commits at 1/4/16 threads. The
// group-commit leader batches the *appends* as well as the fsyncs (one
// contiguous WAL write per group before the shared fdatasync), so the
// tracked shape is WAL write syscalls per commit: at 16 threads it must
// be <= 0.5, i.e. >= 2x fewer than the one write per commit an
// unbatched append costs (the CI smoke assertion). commits/sec is
// printed for context but is noisy on single-core CI boxes.
//
// Part 2 — steady-state WAL size under a rolling pinned snapshot (a
// reader always live, refreshed after every batch). The truncating
// reset never fires, so only wrap-around reclaims the log: every full
// fold reuses the reclaimed prefix, and the peak file size must stay
// within 2x of the live-frame footprint.
//
// Machine-readable output: BENCH_wal.json.
#include <atomic>
#include <thread>

#include "bench/bench_util.h"
#include "storage/engine.h"
#include "storage/key_encoding.h"
#include "storage/wal.h"

using namespace micronn;
using namespace micronn::bench;

namespace {

Status CommitRows(StorageEngine* engine, uint64_t start, uint64_t rows) {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                           engine->BeginWrite());
  Result<BTree> t = txn->OpenOrCreateTable("t");
  if (!t.ok()) {
    engine->Rollback(std::move(txn));
    return t.status();
  }
  for (uint64_t i = start; i < start + rows; ++i) {
    Status st = t->Put(key::U64(i), "row" + std::to_string(i));
    if (!st.ok()) {
      engine->Rollback(std::move(txn));
      return st;
    }
  }
  txn->AddRowDelta("t", static_cast<int64_t>(rows));
  return engine->Commit(std::move(txn));
}

struct CommitCell {
  int threads = 0;
  double commits_per_sec = 0;
  double wal_writes_per_commit = 0;
  double wal_syncs_per_commit = 0;
};

CommitCell RunCommitConfig(const std::string& path, int threads,
                           int commits_per_thread) {
  PagerOptions options;
  options.sync_on_commit = true;
  options.auto_checkpoint_frames = 0;  // keep syscalls commit-attributable
  options.wal_backpressure_frames = 0;
  auto engine = StorageEngine::Open(path, options).value();
  CommitRows(engine.get(), 0, 1).ok();  // create the table up front

  constexpr uint64_t kRowsPerCommit = 4;
  constexpr uint64_t kThreadStride = 1u << 20;
  const IoStats::View before = engine->io_stats().Snapshot();
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> committers;
  for (int t = 0; t < threads; ++t) {
    committers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      const uint64_t base = static_cast<uint64_t>(t + 1) * kThreadStride;
      for (int c = 0; c < commits_per_thread; ++c) {
        if (!CommitRows(engine.get(), base + c * kRowsPerCommit,
                        kRowsPerCommit)
                 .ok()) {
          ++failures;
        }
      }
    });
  }
  const auto start = Clock::now();
  go.store(true);
  for (auto& th : committers) th.join();
  const double secs = MsSince(start) / 1000.0;
  const IoStats::View delta = engine->io_stats().Snapshot() - before;
  engine->Close().ok();

  CommitCell cell;
  cell.threads = threads;
  const double commits =
      static_cast<double>(delta.commits) - static_cast<double>(failures);
  cell.commits_per_sec = secs > 0 ? commits / secs : 0;
  cell.wal_writes_per_commit =
      commits > 0 ? static_cast<double>(delta.wal_writes) / commits : 0;
  cell.wal_syncs_per_commit =
      commits > 0 ? static_cast<double>(delta.wal_syncs) / commits : 0;
  return cell;
}

struct WrapCell {
  uintmax_t peak_wal_bytes = 0;
  uintmax_t live_frame_bytes = 0;  // largest one-checkpoint-interval log
  uint32_t epochs = 0;
  uint64_t rows = 0;
};

// Upserts `total_rows` in batches while a rolling reader snapshot stays
// pinned (refreshed after every batch, never dropped first), with an
// explicit checkpoint every 4 batches — the workload where only
// wrap-around can reclaim the log.
WrapCell RunWrapConfig(const std::string& path, uint64_t total_rows) {
  constexpr uint64_t kBatchRows = 200;
  PagerOptions options;
  options.auto_checkpoint_frames = 0;
  options.wal_backpressure_frames = 0;
  auto engine = StorageEngine::Open(path, options).value();
  Pager* pager = engine->pager();

  WrapCell cell;
  std::unique_ptr<ReadTransaction> pinned;
  uint64_t row = 0;
  int batch = 0;
  while (row < total_rows) {
    const uint64_t rows = std::min(kBatchRows, total_rows - row);
    CommitRows(engine.get(), row, rows).ok();
    row += rows;
    auto next = engine->BeginRead().value();
    pinned = std::move(next);
    cell.peak_wal_bytes = std::max(cell.peak_wal_bytes,
                                   std::filesystem::file_size(path + "-wal"));
    if (++batch % 4 == 0) {
      // The frame count right before the checkpoint is the live working
      // set: everything older was reclaimed by prior wraps.
      cell.live_frame_bytes = std::max(
          cell.live_frame_bytes,
          static_cast<uintmax_t>(pager->wal_frame_count()) * Wal::kFrameSize +
              Wal::kHeaderSize);
      engine->Checkpoint().ok();
    }
  }
  cell.epochs = pager->wal_epoch();
  cell.rows = row;
  pinned.reset();
  engine->Close().ok();
  return cell;
}

}  // namespace

int main() {
  const double scale = BenchScale(0.025);
  std::printf("== WAL write path: group commit + wrap-around "
              "(scale %.4f) ==\n\n", scale);
  BenchDir dir("wal");

  // --- Part 1: commit scaling ---
  const int commits_per_thread =
      std::max(25, static_cast<int>(4000 * scale));
  std::vector<CommitCell> cells;
  std::printf("  %7s %12s %17s %16s\n", "threads", "commits/s",
              "wal-writes/commit", "wal-syncs/commit");
  for (const int threads : {1, 4, 16}) {
    const std::string path =
        dir.Path("commit_" + std::to_string(threads) + ".db");
    CommitCell c = RunCommitConfig(path, threads, commits_per_thread);
    std::printf("  %7d %12.1f %17.3f %16.3f\n", c.threads, c.commits_per_sec,
                c.wal_writes_per_commit, c.wal_syncs_per_commit);
    cells.push_back(c);
  }
  // Headline: write-syscall reduction at the widest burst, against the
  // one write per commit of an unbatched append.
  const CommitCell& widest = cells.back();
  const double write_reduction =
      widest.wal_writes_per_commit > 0 ? 1.0 / widest.wal_writes_per_commit
                                       : 0;
  std::printf("\nheadline: 16-thread group commit -> %.2fx fewer WAL "
              "write syscalls per commit\n", write_reduction);

  // --- Part 2: steady-state WAL size under a rolling pinned snapshot ---
  const uint64_t total_rows =
      std::max<uint64_t>(2000, static_cast<uint64_t>(100000 * scale));
  const WrapCell wrap = RunWrapConfig(dir.Path("wrap.db"), total_rows);
  std::printf("\n  %9s %15s %17s %7s\n", "rows", "peak-wal-bytes",
              "live-frame-bytes", "epochs");
  std::printf("  %9llu %15llu %17llu %7u\n",
              static_cast<unsigned long long>(wrap.rows),
              static_cast<unsigned long long>(wrap.peak_wal_bytes),
              static_cast<unsigned long long>(wrap.live_frame_bytes),
              wrap.epochs);
  const double size_ratio =
      wrap.live_frame_bytes > 0
          ? static_cast<double>(wrap.peak_wal_bytes) /
                static_cast<double>(wrap.live_frame_bytes)
          : 0;
  std::printf("\npeak WAL = %.2fx live-frame footprint (bound: <= 2x)\n",
              size_ratio);

  if (FILE* f = std::fopen("BENCH_wal.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"wal_write_path\",\n"
                 "  \"scale\": %.6f,\n  \"commit_rows\": [\n", scale);
    for (size_t i = 0; i < cells.size(); ++i) {
      const CommitCell& c = cells[i];
      std::fprintf(f,
                   "    {\"threads\": %d, \"commits_per_sec\": %.1f, "
                   "\"wal_writes_per_commit\": %.4f, "
                   "\"wal_syncs_per_commit\": %.4f}%s\n",
                   c.threads, c.commits_per_sec, c.wal_writes_per_commit,
                   c.wal_syncs_per_commit, i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"wrap\": {\"rows\": %llu, "
                 "\"peak_wal_bytes\": %llu, \"live_frame_bytes\": %llu, "
                 "\"epochs\": %u},\n",
                 static_cast<unsigned long long>(wrap.rows),
                 static_cast<unsigned long long>(wrap.peak_wal_bytes),
                 static_cast<unsigned long long>(wrap.live_frame_bytes),
                 wrap.epochs);
    std::fprintf(f,
                 "  \"headline\": {\"wal_write_reduction_16t\": %.3f, "
                 "\"wrap_peak_over_live\": %.3f}\n}\n",
                 write_reduction, size_ratio);
    std::fclose(f);
    std::printf("wrote BENCH_wal.json (%zu commit rows)\n", cells.size());
  } else {
    std::fprintf(stderr, "failed to write BENCH_wal.json\n");
    return 1;
  }
  std::printf("shape check: 16-thread group commit <= 0.5 WAL writes per "
              "commit; peak WAL <= 2x live-frame footprint\n");
  return 0;
}
