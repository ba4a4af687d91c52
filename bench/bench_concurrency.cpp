// Cross-request MQO under server-style traffic: N client threads issue
// independent DB::Search calls in a closed loop; the admission scheduler
// (src/query/scheduler.h) coalesces concurrent submissions into shared
// executor groups. This benchmark measures QPS, p50/p99 latency and the
// mean coalesced group at 1/2/4/8/16 client threads, unfiltered and
// filtered, on one database file (every cell reopens it, so partitions,
// cache sizing, and plans match).
//
// Machine-readable output: BENCH_concurrency.json, one row per
// (threads, filtered): qps, p50/p99 ms, mean coalesced group.
// MICRONN_BENCH_SCALE scales the row count (default 0.02: ~40k vectors at
// dim 128); MICRONN_BENCH_SECONDS sets the measured window per
// configuration (default 1.5).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "query/predicate.h"

using namespace micronn;
using namespace micronn::bench;

namespace {

struct RunResult {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_coalesced = 1.0;
};

struct JsonRow {
  size_t threads;
  bool filtered;
  RunResult r;
};

double BenchSeconds(double fallback) {
  if (const char* env = std::getenv("MICRONN_BENCH_SECONDS")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return fallback;
}

double Percentile(std::vector<double>* sorted_ms, double p) {
  if (sorted_ms->empty()) return 0;
  const size_t idx = std::min(
      sorted_ms->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_ms->size())));
  return (*sorted_ms)[idx];
}

SearchRequest MakeRequest(const Dataset& ds, size_t qi, bool filtered) {
  SearchRequest req;
  req.query.assign(ds.query(qi % ds.spec.n_queries),
                   ds.query(qi % ds.spec.n_queries) + ds.spec.dim);
  req.k = 10;
  // Unfiltered probes deeper (16 of ~50 partitions, a recall-oriented
  // setting); filtered stays at 8 so the optimizer keeps the post-filter
  // plan (pre-filter at 25% selectivity would score ~10k candidates).
  req.nprobe = filtered ? 8 : 16;
  if (filtered) {
    // A small predicate mix (4 distinct buckets, ~25% selectivity each):
    // duplicate predicates dedup to one bound filter, distinct ones share
    // the per-row attribute decode inside a coalesced fan-in.
    req.filter = Predicate::Compare(
        "bucket", CompareOp::kEq,
        AttributeValue::Int(static_cast<int64_t>(qi % 4)));
  }
  return req;
}

// Closed-loop run: each of `n_threads` clients issues searches for
// `seconds`, recording per-query latency and the coalesced group size its
// responses report.
RunResult RunClients(DB* db, const Dataset& ds, size_t n_threads,
                     bool filtered, double seconds) {
  std::vector<std::vector<double>> latencies(n_threads);
  // Each client snapshots its own warm-up boundary when it first observes
  // `measure` flip, so no thread ever reads another's latency vector
  // mid-push_back.
  std::vector<size_t> warm_counts(n_threads, 0);
  std::atomic<uint64_t> coalesced_sum{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<bool> start{false};
  std::atomic<bool> measure{false};
  std::atomic<bool> stop{false};

  std::vector<std::thread> clients;
  for (size_t t = 0; t < n_threads; ++t) {
    clients.emplace_back([&, t] {
      size_t qi = t * 7919;  // decorrelate the per-thread query streams
      bool measuring = false;
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      while (!stop.load(std::memory_order_relaxed)) {
        if (!measuring && measure.load(std::memory_order_relaxed)) {
          measuring = true;
          warm_counts[t] = latencies[t].size();
        }
        const SearchRequest req = MakeRequest(ds, qi++, filtered);
        const auto q_start = Clock::now();
        auto resp = db->Search(req).value();
        latencies[t].push_back(MsSince(q_start));
        if (measuring) {
          coalesced_sum.fetch_add(resp.explain.coalesced_group_size,
                                  std::memory_order_relaxed);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // A client that never saw the measure flip contributes nothing.
      if (!measuring) warm_counts[t] = latencies[t].size();
    });
  }

  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds * 0.25));
  measure.store(true, std::memory_order_relaxed);
  const auto window_start = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& c : clients) c.join();
  const double elapsed_ms = MsSince(window_start);

  RunResult out;
  std::vector<double> merged;
  for (size_t t = 0; t < n_threads; ++t) {
    merged.insert(merged.end(), latencies[t].begin() + warm_counts[t],
                  latencies[t].end());
  }
  std::sort(merged.begin(), merged.end());
  const uint64_t measured = completed.load();
  out.qps = static_cast<double>(measured) / (elapsed_ms / 1000.0);
  out.p50_ms = Percentile(&merged, 0.50);
  out.p99_ms = Percentile(&merged, 0.99);
  if (measured > 0) {
    out.mean_coalesced = static_cast<double>(coalesced_sum.load()) /
                         static_cast<double>(measured);
  }
  return out;
}

}  // namespace

int main() {
  const double scale = BenchScale(0.02);
  const double seconds = BenchSeconds(1.5);
  BenchDir dir("concurrency");
  std::printf("== Cross-request MQO: concurrent clients "
              "(scale %.4f, %.1fs/run) ==\n\n",
              scale, seconds);

  DatasetSpec spec;
  spec.name = "SIFT1M";
  spec.dim = 128;
  spec.metric = Metric::kL2;
  spec.n = static_cast<size_t>(2.0e6 * scale);
  spec.n_queries = 128;
  Dataset ds = GenerateDataset(spec);

  const std::string path = dir.Path("concurrency.mnn");
  {
    // Build once; every cell reopens this file.
    DbOptions options = DefaultBenchOptions();
    options.dim = spec.dim;
    options.metric = spec.metric;
    options.target_cluster_size = 800;
    auto db = DB::Open(path, options).value();
    std::vector<UpsertRequest> batch;
    batch.reserve(2000);
    for (size_t i = 0; i < spec.n; ++i) {
      UpsertRequest req;
      req.asset_id = "a" + std::to_string(i);
      req.vector.assign(ds.row(i), ds.row(i) + spec.dim);
      req.attributes["bucket"] =
          AttributeValue::Int(static_cast<int64_t>(i % 4));
      batch.push_back(std::move(req));
      if (batch.size() == 2000) {
        db->Upsert(batch).ok();
        batch.clear();
      }
    }
    if (!batch.empty()) db->Upsert(batch).ok();
    db->BuildIndex().ok();
    db->AnalyzeStats().ok();
    db->Close().ok();
  }

  const size_t thread_counts[] = {1, 2, 4, 8, 16};
  std::vector<JsonRow> rows;

  std::printf("  %8s %9s %11s %10s %10s %7s\n", "threads", "filtered",
              "qps", "p50", "p99", "group");
  for (const bool filtered : {false, true}) {
    for (const size_t threads : thread_counts) {
      DbOptions options = DefaultBenchOptions();
      options.target_cluster_size = 800;
      // Small-device cache profile (paper §4.1.2): the SQ8 sidecar plus
      // the rerank working set outgrow the page cache, so partition
      // scans are genuine page traffic — the disk-resident regime where
      // shared scans dedupe real I/O, not just decode work.
      options.pager.cache_bytes = 4ull << 20;
      auto db = DB::Open(path, options).value();
      const RunResult r = RunClients(db.get(), ds, threads, filtered, seconds);
      rows.push_back(JsonRow{threads, filtered, r});
      db->Close().ok();
      std::printf("  %8zu %9s %11.1f %10.3f %10.3f %7.2f\n", threads,
                  filtered ? "yes" : "no", r.qps, r.p50_ms, r.p99_ms,
                  r.mean_coalesced);
    }
  }
  std::printf("\n");

  if (FILE* f = std::fopen("BENCH_concurrency.json", "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"concurrency\",\n  \"scale\": %.6f,\n"
                 "  \"seconds\": %.2f,\n  \"rows\": [\n",
                 scale, seconds);
    for (size_t i = 0; i < rows.size(); ++i) {
      const JsonRow& r = rows[i];
      std::fprintf(
          f,
          "    {\"threads\": %zu, \"filtered\": %s, \"qps\": %.2f, "
          "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"mean_group\": %.3f}%s\n",
          r.threads, r.filtered ? "true" : "false", r.r.qps, r.r.p50_ms,
          r.r.p99_ms, r.r.mean_coalesced, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_concurrency.json (%zu rows)\n", rows.size());
  } else {
    std::fprintf(stderr, "failed to write BENCH_concurrency.json\n");
    return 1;
  }
  return 0;
}
