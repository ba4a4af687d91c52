// MicroNN public API.
//
//   auto db = micronn::DB::Open("photos.mnn", options).value();
//   db->Upsert({{"img1", vec, {{"location", AttributeValue::String("Seattle")}}}});
//   db->BuildIndex();
//   auto res = db->Search({.query = q, .k = 100, .nprobe = 8});
//
// Concurrency contract (paper §3.6): any number of threads may call
// Search/BatchSearch/GetIndexStats concurrently; writes (Upsert, Delete,
// BuildIndex, Maintain, AnalyzeStats) are serialized internally. Readers
// always see a consistent snapshot, including while an index rebuild runs.
#ifndef MICRONN_CORE_DB_H_
#define MICRONN_CORE_DB_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/health.h"
#include "core/options.h"
#include "ivf/centroid_set.h"
#include "ivf/maintenance.h"
#include "numerics/topk.h"
#include "query/executor.h"
#include "query/scheduler.h"
#include "query/stats.h"
#include "storage/engine.h"

namespace micronn {

class DB {
 public:
  /// Opens or creates a MicroNN database at `path`. A crash during a past
  /// rebuild is repaired here (staging tables are discarded; the last
  /// committed index stays live).
  static Result<std::unique_ptr<DB>> Open(const std::string& path,
                                          const DbOptions& options);

  ~DB();
  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  /// Checkpoints and closes. Idempotent.
  Status Close();

  // --- Writes (serialized; each batch is one atomic transaction) ---

  /// Inserts or replaces assets. New/updated vectors land in the delta
  /// store and are visible to every subsequent search immediately.
  Status Upsert(const std::vector<UpsertRequest>& batch);

  /// Removes assets (missing ids are ignored).
  Status Delete(const std::vector<std::string>& asset_ids);

  // --- Queries (concurrent) ---

  Result<SearchResponse> Search(const SearchRequest& request);

  /// Multi-query optimized batch execution (§3.4). Heterogeneous batches
  /// participate fully: per-request k/nprobe/filters/exact all mix, each
  /// request gets its own plan choice (§3.5.1, made inside the batch),
  /// and every partition-scanning plan shares each partition scan with
  /// the rest of the batch. Results are identical to issuing the
  /// requests through Search one at a time; each response carries its own
  /// per-query counters plus the group's scan-sharing counters in
  /// `SearchResponse::explain`.
  Result<std::vector<SearchResponse>> BatchSearch(
      const std::vector<SearchRequest>& requests);

  // --- Index lifecycle ---

  /// Full index (re)build: Algorithm 1 clustering + clustered rewrite of
  /// the vectors table + fresh attribute statistics. Runs in bounded
  /// memory via chunked transactions; concurrent readers keep serving from
  /// the previous index until the atomic swap.
  Status BuildIndex();

  /// Incremental maintenance (§3.6): flushes the delta store into the
  /// nearest partitions and nudges centroids; escalates to BuildIndex when
  /// the partition-growth threshold is exceeded.
  Result<MaintenanceReport> Maintain();

  /// Rebuilds per-column histograms for the hybrid optimizer.
  Status AnalyzeStats();

  /// Offline integrity pass: checkpoints, then walks every page of the
  /// database file verifying its checksum, backfilling missing sidecar
  /// entries and repairing corrupt pages from still-indexed WAL frames
  /// where possible. When the walk covers every page cleanly, a legacy
  /// (pre-checksum) database is upgraded to the checksummed format and
  /// strict verification turns on. Serialized with writes like Maintain;
  /// concurrent readers keep serving throughout.
  Result<ScrubReport> Scrub();

  /// One bounded batch of the incremental scrub: verifies at most
  /// `max_pages` pages under the pager's writer slot and returns whether
  /// that completed a pass over the whole file (see Pager::ScrubStep).
  /// On a pass that re-verified every page cleanly, the quarantine
  /// registry is cleared — queries return to quantized plans on their
  /// own. Unlike Scrub() this does not take the DB write mutex: the
  /// writer slot is the real serialization point, and a step overlapping
  /// a commit simply returns Busy (callers retry). The background
  /// HealthMonitor drives this under its I/O token bucket.
  Result<bool> ScrubStep(uint32_t max_pages);

  // --- Introspection ---

  Result<IndexStats> GetIndexStats();
  /// Total vectors currently stored (incl. delta).
  Result<uint64_t> VectorCount();
  /// Drops every in-memory cache (page cache, centroid cache, statistics)
  /// — the cold-start scenario of Figure 4.
  void DropCaches();

  StorageEngine* engine() { return engine_.get(); }
  const DbOptions& options() const { return options_; }
  IoStats& io_stats() { return engine_->io_stats(); }
  /// Copyable point-in-time counter snapshot — what benchmarks and tests
  /// should diff instead of reaching into pager internals.
  IoStats::View io_stats_snapshot() { return engine_->io_stats().Snapshot(); }
  /// Admission-scheduler counters (groups run, submissions coalesced).
  const SchedulerStats& scheduler_stats() const { return scheduler_.stats(); }
  /// Point-in-time health snapshot: degraded/read-only mode, checksum
  /// strictness, quarantined partitions, scrub progress, integrity
  /// counters, and the overall verdict. Cheap enough to poll per request
  /// (atomic loads plus two small mutexed copies; no I/O).
  HealthReport Health();

 private:
  DB(DbOptions options, std::unique_ptr<StorageEngine> engine)
      : options_(std::move(options)),
        engine_(std::move(engine)),
        pool_(options_.search_threads),
        scheduler_(options_.mqo_window_us, options_.mqo_max_group,
                   [this](const std::vector<QueryGroupEntry*>& group) {
                     ExecuteQueryGroup(group);
                   }) {}

  // Bootstrap/validation at open.
  Status InitializeSchema();
  Status RecoverInterruptedRebuild();

  // Centroid-set cache (warm search path). Loads through `txn` when the
  // cached version does not match the snapshot's index version.
  Result<std::shared_ptr<const CentroidSet>> GetCentroids(
      ReadTransaction* txn);
  // Statistics cache for the optimizer, keyed by the stats version.
  Result<std::shared_ptr<const std::map<std::string, ColumnStats>>> GetStats(
      ReadTransaction* txn);

  // Search internals: Search and BatchSearch both submit to the admission
  // scheduler, which merges concurrent submissions into one group and has
  // the leader run ExecuteQueryGroup — one read snapshot, one QueryPlanner
  // pass (lowering is re-run by the leader so every plan binds the group's
  // snapshot), one QueryExecutor::Execute with shared partition scans
  // (src/query/scheduler.h, planner.h, executor.h).
  Result<std::vector<SearchResponse>> RunQueries(const SearchRequest* requests,
                                                 size_t n);
  void ExecuteQueryGroup(const std::vector<QueryGroupEntry*>& group);
  Result<std::vector<ResultItem>> ResolveItems(
      ReadTransaction* txn, const std::vector<Neighbor>& neighbors);

  // Maintenance internals (db_maintenance.cc).
  Status BuildIndexLocked();
  Result<MaintenanceReport> MaintainLocked();
  Status AnalyzeStatsLocked();
  Status DropTableChunked(const std::string& name);

  DbOptions options_;
  std::unique_ptr<StorageEngine> engine_;
  ThreadPool pool_;
  QueryScheduler scheduler_;

  // Serializes all writes, including multi-transaction maintenance.
  std::mutex write_mutex_;

  // Partitions whose SQ8 representation a query quarantined; fed by
  // ExecuteQueryGroup, cleared by a clean scrub pass, surfaced by
  // Health(). Observational — reopening re-detects from disk.
  QuarantineRegistry quarantine_;

  std::mutex cache_mutex_;
  std::shared_ptr<const CentroidSet> centroid_cache_;
  std::shared_ptr<const std::map<std::string, ColumnStats>> stats_cache_;
  uint64_t stats_cache_version_ = ~0ull;
};

}  // namespace micronn

#endif  // MICRONN_CORE_DB_H_
