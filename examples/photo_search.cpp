// Interactive semantic photo search (paper Example 1).
//
// Simulates a photo library on a device: embeddings with location / year /
// tag attributes, a foreground thread running interactive hybrid searches
// while a background thread syncs inserts and deletes (the "sync'ing
// inserts and deletes from the user's other devices" scenario), and
// periodic index maintenance. Demonstrates snapshot-consistent concurrent
// reads during writes.
//
//   ./photo_search [db_path]
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/db.h"
#include "datagen/dataset.h"

using namespace micronn;

namespace {

constexpr uint32_t kDim = 128;
constexpr size_t kLibrarySize = 20000;

const char* kCities[] = {"seattle", "newyork", "paris", "tokyo", "rome"};
const char* kTagSets[] = {"cat pet indoor", "dog park outdoor",
                          "beach sunset vacation", "food dinner friends",
                          "mountain hike snow"};

UpsertRequest MakePhoto(const Dataset& ds, size_t i) {
  UpsertRequest req;
  req.asset_id = "IMG_" + std::to_string(10000 + i);
  req.vector.assign(ds.row(i % ds.spec.n), ds.row(i % ds.spec.n) + kDim);
  // A skewed location distribution: the user lives in Seattle (70% of
  // shots) and travels occasionally — the paper's running example.
  const size_t city = (i % 10 < 7) ? 0 : 1 + (i % 4);
  req.attributes["location"] = AttributeValue::String(kCities[city]);
  req.attributes["year"] =
      AttributeValue::Int(2018 + static_cast<int64_t>(i % 8));
  req.attributes["tags"] = AttributeValue::String(kTagSets[i % 5]);
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/micronn_photos.mnn";
  std::filesystem::remove(path);
  std::filesystem::remove(path + "-wal");

  DbOptions options;
  options.dim = kDim;
  options.metric = Metric::kCosine;  // CLIP-style embeddings
  options.target_cluster_size = 100;
  options.fts_columns = {"tags"};
  auto db = DB::Open(path, options).value();

  // Initial library import + index build.
  Dataset ds = GenerateDataset({"photos", kDim, Metric::kCosine,
                                kLibrarySize, 16, 64, 0.2f, 99});
  std::printf("importing %zu photos...\n", kLibrarySize);
  std::vector<UpsertRequest> batch;
  for (size_t i = 0; i < kLibrarySize; ++i) {
    batch.push_back(MakePhoto(ds, i));
    if (batch.size() == 2000) {
      db->Upsert(batch).ok();
      batch.clear();
    }
  }
  if (!batch.empty()) db->Upsert(batch).ok();
  db->BuildIndex().ok();
  auto stats = db->GetIndexStats().value();
  std::printf("index ready: %u partitions over %llu photos\n",
              stats.n_partitions,
              static_cast<unsigned long long>(stats.total_vectors));

  // Background sync: new photos arrive, old ones get deleted.
  std::atomic<bool> stop{false};
  std::thread sync_thread([&] {
    size_t next = kLibrarySize;
    while (!stop.load()) {
      db->Upsert({MakePhoto(ds, next)}).ok();
      if (next % 3 == 0) {
        db->Delete({"IMG_" + std::to_string(10000 + next - kLibrarySize)})
            .ok();
      }
      ++next;
    }
  });

  // Foreground: interactive hybrid searches under the live write stream.
  struct Scenario {
    const char* label;
    std::optional<Predicate> filter;
  };
  const Scenario scenarios[] = {
      {"unfiltered", std::nullopt},
      // 5% of the shots; est_ivf = nprobe * 100 / |R| is 6%.
      {"location = tokyo (selective: optimizer -> pre-filter)",
       Predicate::Compare("location", CompareOp::kEq,
                          AttributeValue::String("tokyo"))},
      {"location = seattle (broad: optimizer -> post-filter)",
       Predicate::Compare("location", CompareOp::kEq,
                          AttributeValue::String("seattle"))},
      {"tags MATCH \"cat indoor\" AND year >= 2022",
       Predicate::And(
           {Predicate::Match("tags", "cat indoor"),
            Predicate::Compare("year", CompareOp::kGe,
                               AttributeValue::Int(2022))})},
  };
  for (const Scenario& scenario : scenarios) {
    SearchRequest req;
    req.query.assign(ds.query(3), ds.query(3) + kDim);
    req.k = 5;
    req.nprobe = 12;
    req.filter = scenario.filter;
    auto resp = db->Search(req).value();
    std::printf("\nquery [%s]\n  plan=%s est_filter=%.5f est_ivf=%.5f\n",
                scenario.label,
                std::string(QueryPlanName(resp.explain.plan)).c_str(),
                resp.explain.decision.filter_selectivity,
                resp.explain.decision.ivf_selectivity);
    for (const ResultItem& item : resp.items) {
      std::printf("  %-10s d=%.4f\n", item.asset_id.c_str(), item.distance);
    }
  }

  stop.store(true);
  sync_thread.join();

  // Periodic maintenance folds synced photos into the index.
  auto report = db->Maintain().value();
  std::printf("\nmaintenance: %llu delta photos folded in, rebuild=%s\n",
              static_cast<unsigned long long>(report.delta_flushed),
              report.full_rebuild ? "full" : "incremental");
  stats = db->GetIndexStats().value();
  std::printf("final: %llu photos, delta=%llu, avg partition %.1f\n",
              static_cast<unsigned long long>(stats.total_vectors),
              static_cast<unsigned long long>(stats.delta_count),
              stats.avg_partition_size);
  db->Close().ok();
  return 0;
}
