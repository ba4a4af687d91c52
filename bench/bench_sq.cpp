// SQ8 quantized partition scans vs the full-precision float path: QPS and
// recall@10 over an nprobe sweep, on the same database snapshot (the
// per-request SearchRequest::quantized override flips the path, so both
// sides see identical partitions, page cache, and plan choices).
//
// The quantized scan reads ~4x fewer bytes per row and reranks the top
// k*alpha candidates at full precision; the headline claim is >= 2x
// partition-scan QPS at recall@10 >= 0.95x the float path. The effect is
// largest when the float vectors outgrow the page cache while the int8
// copy still fits — the disk-resident regime MicroNN targets.
//
// Machine-readable output: BENCH_sq.json with one row per
// (dataset, nprobe): float/sq8 QPS and recall@10, and the SQ8 path's mean
// rerank candidates and re-read rows per query (the error bound re-reads
// only the candidates that can still reach the top-k) — consumed by CI
// and tracked as an artifact alongside BENCH_batch.json.
// MICRONN_BENCH_DATASETS (comma-separated substring match) restricts the
// dataset list; MICRONN_BENCH_SCALE scales row counts (default 0.025
// here: ~50k vectors at dim 128, ~25 MiB of floats against the default
// 8 MiB page cache).
#include <cstring>

#include "bench/bench_util.h"

using namespace micronn;
using namespace micronn::bench;

namespace {

struct JsonRow {
  std::string dataset;
  uint32_t nprobe;
  double float_qps;
  double sq8_qps;
  double recall_float;
  double recall_sq8;
  double rerank_candidates_per_query;
  double rows_reranked_per_query;
};

// Per-query means of the SQ8 rerank's EXPLAIN counters.
struct RerankCounts {
  double candidates = 0;
  double reranked = 0;
};

bool DatasetEnabled(const std::string& name) {
  const char* env = std::getenv("MICRONN_BENCH_DATASETS");
  if (env == nullptr || *env == '\0') return true;
  std::string list(env);
  size_t pos = 0;
  while (pos <= list.size()) {
    const size_t comma = list.find(',', pos);
    const std::string item =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty() && name.find(item) != std::string::npos) return true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return false;
}

double MeasureQps(DB* db, const Dataset& ds, uint32_t k, uint32_t nprobe,
                  bool quantized, size_t n_queries) {
  auto make = [&](size_t q) {
    SearchRequest req;
    req.query.assign(ds.query(q % ds.spec.n_queries),
                     ds.query(q % ds.spec.n_queries) + ds.spec.dim);
    req.k = k;
    req.nprobe = nprobe;
    req.quantized = quantized;
    return req;
  };
  for (size_t q = 0; q < std::min<size_t>(n_queries, 32); ++q) {
    db->Search(make(q)).value();  // warm-up
  }
  const auto start = Clock::now();
  for (size_t q = 0; q < n_queries; ++q) {
    db->Search(make(q)).value();
  }
  return static_cast<double>(n_queries) / (MsSince(start) / 1000.0);
}

double MeasurePathRecall(DB* db, const Dataset& ds,
                         const std::vector<std::vector<Neighbor>>& truth,
                         uint32_t k, uint32_t nprobe, bool quantized,
                         size_t n_queries, RerankCounts* rerank = nullptr) {
  double total = 0;
  for (size_t q = 0; q < n_queries; ++q) {
    SearchRequest req;
    req.query.assign(ds.query(q), ds.query(q) + ds.spec.dim);
    req.k = k;
    req.nprobe = nprobe;
    req.quantized = quantized;
    auto resp = db->Search(req).value();
    std::vector<Neighbor> got;
    got.reserve(resp.items.size());
    for (const auto& item : resp.items) {
      got.push_back({item.vid, item.distance});
    }
    total += RecallAtK(got, truth[q]);
    if (rerank != nullptr) {
      rerank->candidates += static_cast<double>(resp.explain.rerank_candidates);
      rerank->reranked += static_cast<double>(resp.explain.rows_reranked);
    }
  }
  if (rerank != nullptr) {
    rerank->candidates /= static_cast<double>(n_queries);
    rerank->reranked /= static_cast<double>(n_queries);
  }
  return total / static_cast<double>(n_queries);
}

}  // namespace

int main() {
  const double scale = BenchScale(0.025);
  const uint32_t k = 10;
  BenchDir dir("sq");
  std::printf("== SQ8 quantized scans vs float (scale %.4f) ==\n\n", scale);

  std::vector<DatasetSpec> specs;
  {
    DatasetSpec sift;
    sift.name = "SIFT1M";
    sift.dim = 128;
    sift.metric = Metric::kL2;
    sift.n = static_cast<size_t>(2.0e6 * scale);
    sift.n_queries = 128;
    specs.push_back(sift);
    DatasetSpec clip;
    clip.name = "CLIP768";
    clip.dim = 768;
    clip.metric = Metric::kCosine;
    clip.n = static_cast<size_t>(4.0e5 * scale);
    clip.n_queries = 64;
    specs.push_back(clip);
  }

  const uint32_t nprobes[] = {4, 8, 16};
  std::vector<JsonRow> json_rows;

  for (const DatasetSpec& spec : specs) {
    if (!DatasetEnabled(spec.name)) continue;
    Dataset ds = GenerateDataset(spec);
    DbOptions options = DefaultBenchOptions();
    // Larger partitions than the paper default: the quantized-vs-float
    // contrast is a scan-throughput measurement, so partition scans (not
    // per-partition setup) should dominate.
    options.target_cluster_size = 400;
    auto db = LoadDataset(dir.Path(spec.name + ".mnn"), ds, options,
                          /*build_index=*/true);
    const auto truth = BruteForceGroundTruth(ds, k, /*id_base=*/1);
    const size_t recall_queries = std::min<size_t>(spec.n_queries, 64);
    const size_t qps_queries = std::min<size_t>(spec.n_queries * 2, 192);

    std::printf("%s (n=%zu dim=%u %s)\n", spec.name.c_str(), spec.n,
                spec.dim,
                spec.metric == Metric::kCosine ? "cosine" : "l2");
    std::printf("  %7s %12s %12s %9s %13s %11s %14s\n", "nprobe",
                "float-qps", "sq8-qps", "speedup", "recall@10(f)",
                "recall@10(q)", "reranked/cand");
    for (const uint32_t nprobe : nprobes) {
      const double recall_f = MeasurePathRecall(db.get(), ds, truth, k,
                                                nprobe, false,
                                                recall_queries);
      RerankCounts rerank;
      const double recall_q = MeasurePathRecall(db.get(), ds, truth, k,
                                                nprobe, true,
                                                recall_queries, &rerank);
      const double qps_f =
          MeasureQps(db.get(), ds, k, nprobe, false, qps_queries);
      const double qps_q =
          MeasureQps(db.get(), ds, k, nprobe, true, qps_queries);
      std::printf("  %7u %12.1f %12.1f %8.2fx %13.4f %11.4f %7.1f/%.1f\n",
                  nprobe, qps_f, qps_q, qps_q / qps_f, recall_f, recall_q,
                  rerank.reranked, rerank.candidates);
      json_rows.push_back(JsonRow{spec.name, nprobe, qps_f, qps_q, recall_f,
                                  recall_q, rerank.candidates,
                                  rerank.reranked});
    }
    std::printf("\n");
    db->Close().ok();
  }

  if (FILE* f = std::fopen("BENCH_sq.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"sq8_scan\",\n  \"scale\": %.6f,\n",
                 scale);
    std::fprintf(f, "  \"rows\": [\n");
    for (size_t i = 0; i < json_rows.size(); ++i) {
      const JsonRow& r = json_rows[i];
      std::fprintf(
          f,
          "    {\"dataset\": \"%s\", \"nprobe\": %u, \"float_qps\": %.2f, "
          "\"sq8_qps\": %.2f, \"speedup\": %.3f, \"recall_float\": %.4f, "
          "\"recall_sq8\": %.4f, \"k\": %u, "
          "\"rerank_candidates_per_query\": %.2f, "
          "\"rows_reranked_per_query\": %.2f}%s\n",
          r.dataset.c_str(), r.nprobe, r.float_qps, r.sq8_qps,
          r.sq8_qps / r.float_qps, r.recall_float, r.recall_sq8, k,
          r.rerank_candidates_per_query, r.rows_reranked_per_query,
          i + 1 < json_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_sq.json (%zu rows)\n", json_rows.size());
  } else {
    std::fprintf(stderr, "failed to write BENCH_sq.json\n");
    return 1;
  }
  std::printf("shape check: sq8-qps >= 2x float-qps with recall@10 >= "
              "0.95x float at matching nprobe\n");
  return 0;
}
