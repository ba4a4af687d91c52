// Quickstart: create a database, insert vectors with attributes, build the
// IVF index, run ANN / exact / hybrid searches, and apply updates.
//
//   ./quickstart [db_path]
#include <cstdio>
#include <filesystem>

#include "core/db.h"
#include "datagen/dataset.h"

using namespace micronn;

namespace {

void PrintResults(const char* title, const SearchResponse& resp) {
  std::printf("%s (plan=%s, rows_scanned=%llu)\n", title,
              std::string(QueryPlanName(resp.explain.plan)).c_str(),
              static_cast<unsigned long long>(resp.explain.rows_scanned));
  for (const ResultItem& item : resp.items) {
    std::printf("  %-12s  distance=%.4f\n", item.asset_id.c_str(),
                item.distance);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/micronn_quickstart.mnn";
  std::filesystem::remove(path);
  std::filesystem::remove(path + "-wal");

  // 1. Open a database for 64-dimensional vectors under L2.
  DbOptions options;
  options.dim = 64;
  options.metric = Metric::kL2;
  options.target_cluster_size = 50;
  auto db_result = DB::Open(path, options);
  if (!db_result.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db_result.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_result).value();

  // 2. Insert 5000 synthetic "photo embeddings" with a year attribute.
  Dataset ds = GenerateDataset({"quickstart", 64, Metric::kL2, 5000, 5,
                                /*natural_clusters=*/32, 0.18f, 7});
  std::vector<UpsertRequest> batch;
  for (size_t i = 0; i < ds.spec.n; ++i) {
    UpsertRequest req;
    req.asset_id = "photo-" + std::to_string(i);
    req.vector.assign(ds.row(i), ds.row(i) + 64);
    req.attributes["year"] =
        AttributeValue::Int(2015 + static_cast<int64_t>(i % 10));
    batch.push_back(std::move(req));
  }
  if (Status st = db->Upsert(batch); !st.ok()) {
    std::fprintf(stderr, "upsert failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("inserted %llu vectors\n",
              static_cast<unsigned long long>(db->VectorCount().value()));

  // 3. Build the disk-resident IVF index (mini-batch k-means).
  if (Status st = db->BuildIndex(); !st.ok()) {
    std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto stats = db->GetIndexStats().value();
  std::printf("index: %u partitions, avg size %.1f, delta %llu\n",
              stats.n_partitions, stats.avg_partition_size,
              static_cast<unsigned long long>(stats.delta_count));

  // 4. ANN search.
  SearchRequest req;
  req.query.assign(ds.query(0), ds.query(0) + 64);
  req.k = 5;
  req.nprobe = 8;
  PrintResults("ANN top-5", db->Search(req).value());

  // 5. Hybrid search: same query constrained to year >= 2022. The
  //    optimizer picks pre- or post-filtering from selectivity estimates.
  req.filter = Predicate::Compare("year", CompareOp::kGe,
                                  AttributeValue::Int(2022));
  PrintResults("hybrid top-5 (year >= 2022)", db->Search(req).value());

  // 6. Exact KNN (full scan), for comparison.
  req.filter.reset();
  req.exact = true;
  PrintResults("exact top-5", db->Search(req).value());

  // 7. Live updates: a new photo appears in results immediately (it sits
  //    in the delta store, which every query scans).
  UpsertRequest fresh;
  fresh.asset_id = "photo-new";
  fresh.vector.assign(ds.query(0), ds.query(0) + 64);  // identical to query
  fresh.attributes["year"] = AttributeValue::Int(2026);
  db->Upsert({fresh}).ok();
  req.exact = false;
  PrintResults("after upsert", db->Search(req).value());

  // 8. Maintenance folds the delta store into the index.
  auto report = db->Maintain().value();
  std::printf("maintain: flushed %llu delta rows (full rebuild: %s)\n",
              static_cast<unsigned long long>(report.delta_flushed),
              report.full_rebuild ? "yes" : "no");
  db->Close().ok();
  std::printf("done; database at %s\n", path.c_str());
  return 0;
}
