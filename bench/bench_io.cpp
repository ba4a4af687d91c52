// Batched read path vs blocking demand reads: cold-cache search QPS and
// read-syscall counts across io backends (pread, io_uring) and executor
// prefetch depths {0, 2, 8}, at the Small-device 4 MiB page cache.
//
// depth 0 is the pre-batching behavior (every page a blocking demand
// read); depth > 0 turns on claim-ahead partition prefetch plus the
// batched point-read path in rerank/pre-filter stages. Results are
// bit-identical across every cell — this bench only measures cost. The
// headline claim (ISSUE acceptance): the batched path reaches >= 1.5x
// cold-cache QPS or >= 2x fewer blocking read syscalls than pread/depth-0.
// On single-core CI boxes QPS is noisy, so the syscall arm is the one CI
// tracks; read_syscalls counts every pread() and every io_uring_enter()
// (one enter covers a whole batch — that is the reduction being bought).
//
// The overlap arm replays the sweep against a simulated device latency
// (SimSsdFile below): an async-capable backend starts the clock at
// submit, so compute between submit and reap absorbs the device time,
// while submit-and-wait pays it in full. That isolates the architectural
// win from the host's page cache (on which every read completes in
// microseconds and overlap has nothing to hide). CI gates on the sim-arm
// speedup: uring async >= 1.2x uring submit-and-wait.
//
// Machine-readable output: BENCH_io.json, one row per (backend, depth).
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "storage/io_backend.h"

using namespace micronn;
using namespace micronn::bench;

namespace {

// Fixed per-I/O device latency, large enough to dominate both CI timer
// slack and the fixed compute between reads (so the measured ratio
// reflects the I/O overlap, not the scoring time).
constexpr std::chrono::microseconds kSimLatency{500};

// Adds a simulated device latency to every read. For an async-capable
// backend the submit stamps a deadline and the reap sleeps only the
// *remaining* time — whatever ran between submit and reap hid the rest.
// A blocking backend cannot start the I/O before the reap performs it
// (the pread emulation defers the batch), so it pays the full latency at
// reap; plain ReadAt/ReadBatch pay it inline. Writes pass through.
class SimSsdFile final : public FileHandle {
 public:
  SimSsdFile(std::unique_ptr<FileHandle> base, bool async_capable)
      : base_(std::move(base)), async_capable_(async_capable) {}

  Status ReadAt(uint64_t offset, void* buf, size_t n) override {
    std::this_thread::sleep_for(kSimLatency);
    return base_->ReadAt(offset, buf, n);
  }
  Status ReadBatch(ReadOp* ops, size_t n) override {
    std::this_thread::sleep_for(kSimLatency);
    return base_->ReadBatch(ops, n);
  }
  Status SubmitRead(ReadOp* ops, size_t n, IoTicket* ticket) override {
    if (async_capable_) {
      std::lock_guard<std::mutex> lock(mutex_);
      deadlines_[ticket] = std::chrono::steady_clock::now() + kSimLatency;
    }
    return base_->SubmitRead(ops, n, ticket);
  }
  Status ReapCompletions(IoTicket* ticket, bool wait) override {
    if (!async_capable_) {
      // The emulated backend performs the parked batch at reap: the full
      // device latency lands here, nothing was overlapped.
      if (!ticket->done()) std::this_thread::sleep_for(kSimLatency);
      return base_->ReapCompletions(ticket, wait);
    }
    // Compute between submit and reap already absorbed part of the
    // device time; only the remainder is paid, *before* the reap — by the
    // simulated completion time the kernel's (page-cache-fast) reads have
    // long landed in the CQ ring, so the reap drains without a syscall,
    // exactly as a real overlapped read would.
    std::chrono::steady_clock::time_point deadline;
    bool pending = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = deadlines_.find(ticket);
      if (it != deadlines_.end()) {
        deadline = it->second;
        pending = true;
        deadlines_.erase(it);
      }
    }
    if (pending && wait) std::this_thread::sleep_until(deadline);
    return base_->ReapCompletions(ticket, wait);
  }
  Status WriteAt(uint64_t offset, const void* buf, size_t n) override {
    return base_->WriteAt(offset, buf, n);
  }
  Status WriteBatch(WriteOp* ops, size_t n) override {
    return base_->WriteBatch(ops, n);
  }
  Status Append(const void* buf, size_t n) override {
    return base_->Append(buf, n);
  }
  Status Sync() override { return base_->Sync(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  uint64_t size() const override { return base_->size(); }
  const std::string& path() const override { return base_->path(); }
  void set_io_stats(IoStats* stats) override { base_->set_io_stats(stats); }

 private:
  std::unique_ptr<FileHandle> base_;
  const bool async_capable_;
  std::mutex mutex_;
  std::map<IoTicket*, std::chrono::steady_clock::time_point> deadlines_;
};

struct Cell {
  std::string backend;
  uint32_t depth = 0;
  bool async = false;
  bool sim = false;
  double qps = 0;
  IoStats::View io;
};

Cell RunConfig(const std::string& path, const DatasetSpec& spec,
               const Dataset& ds, IoBackend backend, uint32_t depth,
               size_t n_queries, bool async = false, bool sim = false,
               bool cold_each = false, bool checksums = true) {
  DbOptions options = DefaultBenchOptions();
  options.pager.cache_bytes = 4ull << 20;  // Small-device profile
  options.pager.io_backend = backend;
  options.pager.checksum_pages = checksums;
  options.prefetch_depth = depth;
  options.async_prefetch = async;
  if (sim) {
    // One drain thread: with a pool, concurrently blocking workers
    // overlap their sleeps and mask the submit/score/reap pipeline the
    // sim arm exists to measure (threads buy the same overlap by burning
    // cores; async buys it on one).
    options.search_threads = 0;
    // The claim-ahead window (depth x ~33 float leaf pages) must stay
    // resident until each item's scan, or the sync arm's claim-time
    // installs thrash while async's reap-time installs do not — a cache
    // artifact, not the overlap being measured. Cache pressure itself is
    // covered by the real cells and the eviction counters.
    options.pager.cache_bytes = 16ull << 20;
    const bool async_capable =
        ResolveIoBackend(backend) == IoBackend::kUring;
    options.pager.file_wrapper = [async_capable](
                                     std::unique_ptr<FileHandle> base,
                                     std::string_view role)
        -> std::unique_ptr<FileHandle> {
      if (role != "db") return base;
      return std::make_unique<SimSsdFile>(std::move(base), async_capable);
    };
  }
  auto db = DB::Open(path, options).value();

  Cell cell;
  cell.backend = IoBackendName(db->engine()->pager()->io_backend());
  cell.depth = depth;
  cell.async = async;
  cell.sim = sim;

  auto make_request = [&](size_t q) {
    SearchRequest req;
    req.query.assign(ds.query(q % ds.spec.n_queries),
                     ds.query(q % ds.spec.n_queries) + ds.spec.dim);
    req.k = 10;
    // The sim arm probes deeper: partition scan I/O — the work the
    // submit/score/reap pipeline overlaps — should dominate the fixed
    // per-query setup reads (centroid probe, result resolution).
    req.nprobe = sim ? 16 : (spec.dim >= 512 ? 4 : 8);
    // The sim arm scans float rows only: the sq8 plan adds a rerank stage
    // whose one-chunk point reads submit and reap back-to-back (nothing to
    // hide behind), and the sim arm isolates the partition-scan pipeline.
    // The sq8 path is covered by the real (non-sim) cells.
    if (sim) req.quantized = false;
    return req;
  };
  auto run = [&](size_t count) {
    if (sim) {
      // The sim arm submits in groups: shared partition scans give the
      // executor's drain loop a work list long enough to pipeline
      // (submit next / score current / reap), and the per-query
      // metadata descents — serial pointer chasing no read-ahead can
      // hide — are paid once per group instead of once per query.
      constexpr size_t kGroup = 8;
      for (size_t q = 0; q < count; q += kGroup) {
        // cold_each: drop only the page cache (centroids stay warm),
        // so every group pays its partition I/O — the steady-state
        // cold-read scenario the overlap arm measures.
        if (cold_each) db->engine()->pager()->DropCaches();
        std::vector<SearchRequest> batch;
        for (size_t j = q; j < std::min(count, q + kGroup); ++j) {
          batch.push_back(make_request(j));
        }
        db->BatchSearch(batch).value();
      }
      return;
    }
    for (size_t q = 0; q < count; ++q) {
      // Without the per-query drop the tiny bench dataset is fully
      // cached after the first few queries.
      if (cold_each) db->engine()->pager()->DropCaches();
      db->Search(make_request(q)).value();
    }
  };
  run(8);  // touch the catalog/centroids once so setup reads stay out
  db->DropCaches();
  const IoStats::View before = db->io_stats().Snapshot();
  const auto start = Clock::now();
  run(n_queries);
  cell.qps = static_cast<double>(n_queries) / (MsSince(start) / 1000.0);
  cell.io = db->io_stats().Snapshot() - before;
  db->Close().ok();
  return cell;
}

}  // namespace

int main() {
  const double scale = BenchScale(0.025);
  const size_t n_queries = 96;
  BenchDir dir("io");
  const bool uring = IoUringAvailable();
  std::printf("== Batched read path: backends x prefetch depth "
              "(scale %.4f, cache 4 MiB, io_uring %savailable) ==\n\n",
              scale, uring ? "" : "NOT ");

  DatasetSpec spec;
  spec.name = "SIFT1M";
  spec.dim = 128;
  spec.metric = Metric::kL2;
  spec.n = static_cast<size_t>(2.0e6 * scale);
  spec.n_queries = 96;
  Dataset ds = GenerateDataset(spec);

  const std::string path = dir.Path("io.mnn");
  {
    DbOptions options = DefaultBenchOptions();
    auto db = LoadDataset(path, ds, options, /*build_index=*/true);
    db->Close().ok();
  }

  const uint32_t depths[] = {0, 2, 8};
  std::vector<Cell> cells;
  std::printf("  %7s %6s %6s %4s %9s %13s %11s %11s %13s %13s\n", "backend",
              "depth", "async", "sim", "qps", "read-syscalls", "pages-main",
              "batch-reads", "prefetched", "prefetch-hits");
  auto print_cell = [](const Cell& c) {
    std::printf("  %7s %6u %6s %4s %9.1f %13llu %11llu %11llu %13llu %13llu\n",
                c.backend.c_str(), c.depth, c.async ? "on" : "off",
                c.sim ? "sim" : "-", c.qps,
                static_cast<unsigned long long>(c.io.read_syscalls),
                static_cast<unsigned long long>(c.io.pages_read_main),
                static_cast<unsigned long long>(c.io.batch_reads),
                static_cast<unsigned long long>(c.io.pages_prefetched),
                static_cast<unsigned long long>(c.io.prefetch_hits));
  };
  for (const IoBackend backend : {IoBackend::kPread, IoBackend::kUring}) {
    if (backend == IoBackend::kUring && !uring) continue;
    for (const uint32_t depth : depths) {
      Cell c = RunConfig(path, spec, ds, backend, depth, n_queries);
      print_cell(c);
      cells.push_back(std::move(c));
    }
  }

  // Overlap arm: async submit/score/reap vs submit-and-wait, same depth,
  // both backends. Real-device rows first (page-cache fast, included for
  // the syscall columns), then the simulated-latency rows the speedup
  // gate reads. The pread async rows are the honest negative control: a
  // blocking backend can't overlap, so sim qps stays flat.
  const size_t n_sim_queries = 48;
  std::printf("\n  -- overlap arm (async vs submit-and-wait, depth 32) --\n");
  size_t first_overlap = cells.size();
  for (const IoBackend backend : {IoBackend::kPread, IoBackend::kUring}) {
    if (backend == IoBackend::kUring && !uring) continue;
    for (const bool async : {false, true}) {
      Cell c = RunConfig(path, spec, ds, backend, 32, n_queries, async,
                         /*sim=*/false, /*cold_each=*/true);
      print_cell(c);
      cells.push_back(std::move(c));
    }
    for (const bool async : {false, true}) {
      Cell c = RunConfig(path, spec, ds, backend, 32, n_sim_queries, async,
                         /*sim=*/true, /*cold_each=*/true);
      print_cell(c);
      cells.push_back(std::move(c));
    }
  }
  // The sim-arm headline cells: uring async vs uring submit-and-wait
  // (pread's when uring is unavailable — speedup ~1.0 there, and the CI
  // gate only fires when uring is available).
  const Cell* sim_sync = nullptr;
  const Cell* sim_async = nullptr;
  for (size_t i = first_overlap; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const bool best_backend = !uring || c.backend == "uring";
    if (!best_backend || !c.sim) continue;
    (c.async ? sim_async : sim_sync) = &c;
  }
  const double overlap_speedup =
      sim_sync != nullptr && sim_async != nullptr && sim_sync->qps > 0
          ? sim_async->qps / sim_sync->qps
          : 0;
  std::printf("\noverlap: %s async vs submit-and-wait -> %.2fx qps under "
              "simulated %lldus device latency\n",
              uring ? "uring" : "pread", overlap_speedup,
              static_cast<long long>(kSimLatency.count()));

  // Checksum arm: page verification on vs off, same cold-cache sim cell
  // as the overlap gate so the on/off ratio measures the crc against a
  // realistic cold read stream and stays runner-stable (both cells run
  // under the same simulated device latency). CI gates the tax at <= 5%.
  std::printf("\n  -- checksum arm (page verification on vs off) --\n");
  const IoBackend best_backend = uring ? IoBackend::kUring : IoBackend::kPread;
  Cell sum_on = RunConfig(path, spec, ds, best_backend, 32, n_sim_queries,
                          /*async=*/uring, /*sim=*/true, /*cold_each=*/true,
                          /*checksums=*/true);
  print_cell(sum_on);
  Cell sum_off = RunConfig(path, spec, ds, best_backend, 32, n_sim_queries,
                           /*async=*/uring, /*sim=*/true, /*cold_each=*/true,
                           /*checksums=*/false);
  print_cell(sum_off);
  std::printf("checksums: verified cold-cache qps is %.1f%% of unverified\n",
              sum_off.qps > 0 ? 100.0 * sum_on.qps / sum_off.qps : 0.0);

  // Checkpoint arm: vectored backfill syscall accounting. Fresh writes,
  // one checkpoint, count pages folded per write syscall.
  IoStats::View ckpt;
  {
    DbOptions options = DefaultBenchOptions();
    options.dim = spec.dim;
    const std::string ckpt_path = dir.Path("ckpt.mnn");
    auto db = DB::Open(ckpt_path, options).value();
    Rng rng(11);
    std::vector<UpsertRequest> batch;
    for (size_t i = 0; i < 2000; ++i) {
      UpsertRequest r;
      r.asset_id = "ckpt_" + std::to_string(i);
      r.vector.resize(spec.dim);
      for (auto& v : r.vector) v = rng.NextFloat();
      batch.push_back(std::move(r));
    }
    db->Upsert(batch).ok();
    Pager* pager = db->engine()->pager();
    const IoStats::View before = pager->io_stats().Snapshot();
    pager->Checkpoint().ok();
    ckpt = pager->io_stats().Snapshot() - before;
    db->Close().ok();
  }
  const double pages_per_syscall =
      ckpt.write_syscalls > 0
          ? static_cast<double>(ckpt.checkpoint_pages) /
                static_cast<double>(ckpt.write_syscalls)
          : 0;
  std::printf("checkpoint: %llu pages folded in %llu write syscalls "
              "(%.1f pages/syscall)\n",
              static_cast<unsigned long long>(ckpt.checkpoint_pages),
              static_cast<unsigned long long>(ckpt.write_syscalls),
              pages_per_syscall);

  // Headline: baseline = pread/depth-0 (the old blocking path); batched =
  // the deepest sweep cell on the best available backend (the overlap-arm
  // cells that follow are excluded).
  const Cell& base = cells.front();
  const Cell& best = cells[first_overlap - 1];
  const double qps_ratio = base.qps > 0 ? best.qps / base.qps : 0;
  const double syscall_ratio =
      best.io.read_syscalls > 0
          ? static_cast<double>(base.io.read_syscalls) /
                static_cast<double>(best.io.read_syscalls)
          : 0;
  std::printf("\nheadline: %s/%u vs pread/0 -> %.2fx qps, %.2fx fewer "
              "read syscalls\n",
              best.backend.c_str(), best.depth, qps_ratio, syscall_ratio);

  if (FILE* f = std::fopen("BENCH_io.json", "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"io_prefetch\",\n  \"scale\": %.6f,\n"
                 "  \"cache_bytes\": %llu,\n  \"uring_available\": %s,\n",
                 scale, 4ull << 20, uring ? "true" : "false");
    std::fprintf(f, "  \"rows\": [\n");
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(
          f,
          "    {\"backend\": \"%s\", \"prefetch_depth\": %u, "
          "\"async\": %s, \"sim\": %s, "
          "\"qps\": %.2f, \"read_syscalls\": %llu, "
          "\"pages_read_main\": %llu, \"batch_reads\": %llu, "
          "\"pages_prefetched\": %llu, \"prefetch_hits\": %llu}%s\n",
          c.backend.c_str(), c.depth, c.async ? "true" : "false",
          c.sim ? "true" : "false", c.qps,
          static_cast<unsigned long long>(c.io.read_syscalls),
          static_cast<unsigned long long>(c.io.pages_read_main),
          static_cast<unsigned long long>(c.io.batch_reads),
          static_cast<unsigned long long>(c.io.pages_prefetched),
          static_cast<unsigned long long>(c.io.prefetch_hits),
          i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"headline\": {\"backend\": \"%s\", "
                 "\"prefetch_depth\": %u, \"qps_speedup\": %.3f, "
                 "\"read_syscall_reduction\": %.3f},\n",
                 best.backend.c_str(), best.depth, qps_ratio, syscall_ratio);
    std::fprintf(
        f,
        "  \"overlap\": {\"backend\": \"%s\", \"sim_latency_us\": %lld, "
        "\"qps_sync_sim\": %.2f, \"qps_async_sim\": %.2f, "
        "\"qps_speedup_sim\": %.3f, "
        "\"read_syscalls_sync\": %llu, \"read_syscalls_async\": %llu},\n",
        uring ? "uring" : "pread",
        static_cast<long long>(kSimLatency.count()),
        sim_sync != nullptr ? sim_sync->qps : 0.0,
        sim_async != nullptr ? sim_async->qps : 0.0, overlap_speedup,
        static_cast<unsigned long long>(
            sim_sync != nullptr ? sim_sync->io.read_syscalls : 0),
        static_cast<unsigned long long>(
            sim_async != nullptr ? sim_async->io.read_syscalls : 0));
    std::fprintf(
        f,
        "  \"checksum\": {\"qps_on\": %.2f, \"qps_off\": %.2f, "
        "\"qps_ratio\": %.4f},\n",
        sum_on.qps, sum_off.qps,
        sum_off.qps > 0 ? sum_on.qps / sum_off.qps : 0.0);
    std::fprintf(
        f,
        "  \"checkpoint\": {\"pages\": %llu, \"write_syscalls\": %llu, "
        "\"pages_per_syscall\": %.2f}\n}\n",
        static_cast<unsigned long long>(ckpt.checkpoint_pages),
        static_cast<unsigned long long>(ckpt.write_syscalls),
        pages_per_syscall);
    std::fclose(f);
    std::printf("wrote BENCH_io.json (%zu rows)\n", cells.size());
  } else {
    std::fprintf(stderr, "failed to write BENCH_io.json\n");
    return 1;
  }
  std::printf("shape check: deepest batched cell >= 1.5x qps or >= 2x fewer "
              "read syscalls than pread/depth-0; async >= 1.2x sim qps over "
              "submit-and-wait (uring) with read_syscalls no higher; "
              "checkpoint >= 2 pages folded per write syscall\n");
  return 0;
}
