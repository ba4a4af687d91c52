// Ablation: the balance penalty in Algorithm 1's NEAREST step.
//
// The paper motivates balanced partitioning by query performance
// ("partition imbalance is an indicator of query performance", §3.1). This
// bench sweeps balance_lambda and reports the partition-size coefficient
// of variation, the p99/avg partition size, and warm query latency/recall
// at the same nprobe, on a skewed synthetic collection.
#include "bench/bench_util.h"

using namespace micronn;
using namespace micronn::bench;

int main() {
  const double scale = BenchScale();
  const size_t n = std::max<size_t>(20000, static_cast<size_t>(2000000 * scale));
  const uint32_t dim = 64;
  const uint32_t k = 100;
  BenchDir dir("abl_balance");
  std::printf("== Ablation: k-means balance penalty (n=%zu, scale %.4f) ==\n\n",
              n, scale);

  // Skewed mixture: few dominant clusters.
  Dataset ds = GenerateDataset({"skew", dim, Metric::kL2, n, 48,
                                /*natural_clusters=*/12, 0.25f, 61});
  Dataset gt_ds = ds;
  gt_ds.spec.n_queries = 32;
  const auto truth = BruteForceGroundTruth(gt_ds, k, 1);

  // Fair comparison: per lambda, find the nprobe reaching 90% recall and
  // report the latency distribution and scan volume at that recall level.
  // Imbalance shows up as a heavy per-query tail (the "mega cluster" of
  // §3.1) even when mean recall is achievable.
  std::printf("%8s %10s %12s %8s %12s %12s %12s\n", "lambda", "size CV",
              "max/avg", "nprobe", "lat mean(ms)", "lat std(ms)",
              "rows/query");
  for (const float lambda : {0.0f, 0.25f, 0.5f, 1.0f, 2.0f}) {
    DbOptions options = DefaultBenchOptions();
    options.balance_lambda = lambda;
    char name[32];
    std::snprintf(name, sizeof(name), "l%.2f.mnn", lambda);
    auto db = LoadDataset(dir.Path(name), ds, options, /*build_index=*/true);
    const auto stats = db->GetIndexStats().value();
    const uint32_t need_nprobe =
        FindNprobeForRecall(db.get(), gt_ds, truth, k, 0.90, 24);
    std::vector<double> lat;
    uint64_t rows = 0;
    for (size_t q = 0; q < 48; ++q) {
      SearchRequest req;
      req.query.assign(ds.query(q % ds.spec.n_queries),
                       ds.query(q % ds.spec.n_queries) + dim);
      req.k = k;
      req.nprobe = need_nprobe;
      const auto start = Clock::now();
      const auto resp = db->Search(req).value();
      lat.push_back(MsSince(start));
      rows += resp.explain.rows_scanned;
    }
    std::printf("%8.2f %10.3f %12.2f %8u %12.3f %12.3f %12llu\n", lambda,
                stats.size_cv,
                stats.avg_partition_size > 0
                    ? static_cast<double>(stats.max_partition_size) /
                          stats.avg_partition_size
                    : 0.0,
                need_nprobe, Mean(lat), StdDev(lat),
                static_cast<unsigned long long>(rows / lat.size()));
    db->Close().ok();
  }
  std::printf("\nshape check: higher lambda -> lower size CV / max-avg "
              "ratio and a tighter latency distribution at equal recall\n");
  return 0;
}
