// DB facade: open/close, upserts/deletes, search and batch search.
// Maintenance paths (BuildIndex/Maintain/AnalyzeStats) live in
// db_maintenance.cc.
#include "core/db.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/memory_tracker.h"
#include "core/db_internal.h"
#include "ivf/schema.h"
#include "ivf/search.h"
#include "numerics/distance.h"
#include "numerics/sq8.h"
#include "query/attr_index.h"
#include "query/executor.h"
#include "query/planner.h"
#include "storage/key_encoding.h"

namespace micronn {

namespace {

std::string EncodeAssetValue(uint64_t vid) {
  std::string v;
  PutFixed64(&v, vid);
  return v;
}

Result<uint64_t> DecodeAssetValue(std::string_view v) {
  if (v.size() != 8) return Status::Corruption("bad asset row");
  return DecodeFixed64(v.data());
}

// Applies the member-count changes of IVF partitions that lost rows in
// this transaction (upsert-replaces move rows to the delta store, deletes
// remove them). A partition that vanished in a rebuild is skipped.
Status AdjustCentroidCounts(WriteTransaction* txn,
                            const std::map<uint32_t, int64_t>& deltas,
                            uint32_t dim) {
  if (deltas.empty()) return Status::OK();
  MICRONN_ASSIGN_OR_RETURN(BTree centroids, txn->OpenTable(kCentroidsTable));
  for (const auto& [partition, delta] : deltas) {
    MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> row,
                             centroids.Get(key::U32(partition)));
    if (!row.has_value()) continue;
    CentroidRow cr;
    MICRONN_RETURN_IF_ERROR(DecodeCentroidRow(*row, dim, &cr));
    const int64_t count = static_cast<int64_t>(cr.count) + delta;
    cr.count = count > 0 ? static_cast<uint64_t>(count) : 0;
    MICRONN_RETURN_IF_ERROR(
        centroids.Put(key::U32(partition),
                      EncodeCentroidRow(cr.count, cr.centroid.data(), dim)));
  }
  return Status::OK();
}

// Holder for cached centroid sets so that cache memory is accounted for
// the lifetime of the cached object.
struct CentroidHolder {
  CentroidHolder(CentroidSet s)
      : set(std::move(s)),
        mem(MemoryCategory::kQueryExec,
            set.centroids.data.size() * sizeof(float) +
                set.partitions.size() * (sizeof(uint32_t) + sizeof(uint64_t))) {}
  CentroidSet set;
  ScopedMemoryReservation mem;
};

}  // namespace

TableResolver MakeReadResolver(ReadTransaction* txn) {
  return [txn](const std::string& name) { return txn->OpenTable(name); };
}

TableResolver MakeWriteResolver(WriteTransaction* txn) {
  return [txn](const std::string& name) {
    return txn->OpenOrCreateTable(name);
  };
}

Result<std::unique_ptr<DB>> DB::Open(const std::string& path,
                                     const DbOptions& options) {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<StorageEngine> engine,
                           StorageEngine::Open(path, options.pager));
  std::unique_ptr<DB> db(new DB(options, std::move(engine)));
  MICRONN_RETURN_IF_ERROR(db->InitializeSchema());
  MICRONN_RETURN_IF_ERROR(db->RecoverInterruptedRebuild());
  return db;
}

DB::~DB() {
  if (engine_ != nullptr) {
    Close().ok();  // best effort
  }
}

Status DB::Close() {
  if (engine_ == nullptr) return Status::OK();
  Status st = engine_->Close();
  engine_.reset();
  return st;
}

Status DB::InitializeSchema() {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                           engine_->BeginWrite());
  MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenOrCreateTable(kMetaTable));
  MICRONN_ASSIGN_OR_RETURN(uint64_t stored_dim, MetaGetU64(&meta, kMetaDim, 0));
  if (stored_dim == 0) {
    if (options_.dim == 0) {
      return Status::InvalidArgument(
          "DbOptions::dim is required when creating a database");
    }
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaDim, options_.dim));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(
        &meta, kMetaMetric, static_cast<uint64_t>(options_.metric)));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaTargetClusterSize,
                                       options_.target_cluster_size));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaNextVid, 1));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaDeltaCount, 0));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaNumPartitions, 0));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaIndexVersion, 0));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaStatsVersion, 0));
    for (const char* table :
         {kVectorsTable, kVidMapTable, kAssetsTable, kCentroidsTable,
          kAttributesTable, kStatsTable, kSq8Table, kSq8ParamsTable}) {
      MICRONN_RETURN_IF_ERROR(txn->OpenOrCreateTable(table).status());
    }
  } else {
    // Databases created before the SQ8 column existed: materialize the
    // (empty) sidecar tables so every write path can open them
    // unconditionally. No partition has params yet, so scans stay
    // full-precision until the next index build.
    for (const char* table : {kSq8Table, kSq8ParamsTable}) {
      MICRONN_RETURN_IF_ERROR(txn->OpenOrCreateTable(table).status());
    }
    if (options_.dim != 0 && options_.dim != stored_dim) {
      return Status::InvalidArgument("dimension mismatch: database has dim " +
                                     std::to_string(stored_dim));
    }
    options_.dim = static_cast<uint32_t>(stored_dim);
    MICRONN_ASSIGN_OR_RETURN(
        uint64_t metric,
        MetaGetU64(&meta, kMetaMetric, static_cast<uint64_t>(Metric::kL2)));
    options_.metric = static_cast<Metric>(metric);
    // target_cluster_size is a tuning knob: a changed option wins and is
    // persisted for the next rebuild.
    MICRONN_ASSIGN_OR_RETURN(uint64_t stored_target,
                             MetaGetU64(&meta, kMetaTargetClusterSize, 100));
    if (options_.target_cluster_size != 0 &&
        options_.target_cluster_size != stored_target) {
      MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaTargetClusterSize,
                                         options_.target_cluster_size));
    } else {
      options_.target_cluster_size = static_cast<uint32_t>(stored_target);
    }
  }
  return engine_->Commit(std::move(txn));
}

Status DB::Upsert(const std::vector<UpsertRequest>& batch) {
  if (batch.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(write_mutex_);
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                           engine_->BeginWrite());
  IoStats& io = engine_->io_stats();
  MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
  MICRONN_ASSIGN_OR_RETURN(BTree vectors, txn->OpenTable(kVectorsTable));
  MICRONN_ASSIGN_OR_RETURN(BTree vidmap, txn->OpenTable(kVidMapTable));
  MICRONN_ASSIGN_OR_RETURN(BTree assets, txn->OpenTable(kAssetsTable));
  MICRONN_ASSIGN_OR_RETURN(BTree attributes, txn->OpenTable(kAttributesTable));
  MICRONN_ASSIGN_OR_RETURN(BTree sq8, txn->OpenTable(kSq8Table));
  MICRONN_ASSIGN_OR_RETURN(BTree sq8params, txn->OpenTable(kSq8ParamsTable));
  MICRONN_ASSIGN_OR_RETURN(uint64_t next_vid,
                           MetaGetU64(&meta, kMetaNextVid, 1));
  MICRONN_ASSIGN_OR_RETURN(uint64_t delta_count,
                           MetaGetU64(&meta, kMetaDeltaCount, 0));
  // Delta-store quantization parameters (collection-global, written by
  // the last index build). Absent before the first build: rows then get
  // no sidecar codes and the delta store scans at full precision.
  MICRONN_ASSIGN_OR_RETURN(
      std::optional<Sq8PartitionParams> delta_params,
      GetSq8Params(&sq8params, kDeltaPartition, options_.dim));
  // The params' max_error must cover every code row written below; the
  // row is rewritten once, at the end, only if a new row raised it.
  const float stored_delta_error =
      delta_params.has_value() ? delta_params->max_error : 0.f;
  std::vector<uint8_t> sq8_codes(options_.dim);
  const TableResolver resolver = MakeWriteResolver(txn.get());
  std::map<uint32_t, int64_t> partition_deltas;

  for (const UpsertRequest& req : batch) {
    if (req.vector.size() != options_.dim) {
      return Status::InvalidArgument("vector dimension mismatch for asset " +
                                     req.asset_id);
    }
    if (req.asset_id.empty()) {
      return Status::InvalidArgument("empty asset id");
    }
    std::vector<float> vec = req.vector;
    if (options_.metric == Metric::kCosine) {
      const float n = Norm(vec.data(), vec.size());
      if (n > 0.f) {
        for (float& x : vec) x *= 1.0f / n;
      }
    }
    MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> existing,
                             assets.Get(key::Str(req.asset_id)));
    uint64_t vid;
    if (existing.has_value()) {
      MICRONN_ASSIGN_OR_RETURN(vid, DecodeAssetValue(*existing));
      MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> loc,
                               vidmap.Get(key::U64(vid)));
      if (!loc.has_value()) {
        return Status::Corruption("asset with no vidmap entry: " +
                                  req.asset_id);
      }
      uint32_t old_partition;
      MICRONN_RETURN_IF_ERROR(DecodeVidMapValue(*loc, &old_partition));
      MICRONN_ASSIGN_OR_RETURN(
          bool erased, vectors.Delete(VectorKey(old_partition, vid)));
      if (!erased) {
        return Status::Corruption("vector row missing for asset " +
                                  req.asset_id);
      }
      MICRONN_ASSIGN_OR_RETURN(bool sq8_erased,
                               sq8.Delete(VectorKey(old_partition, vid)));
      if (sq8_erased) txn->AddRowDelta(kSq8Table, -1);
      if (old_partition == kDeltaPartition) {
        --delta_count;
      } else {
        --partition_deltas[old_partition];
      }
      // Replace attributes: unindex the old record first.
      MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> old_attrs,
                               attributes.Get(key::U64(vid)));
      if (old_attrs.has_value()) {
        MICRONN_ASSIGN_OR_RETURN(AttributeRecord old_record,
                                 DecodeAttributeRecord(*old_attrs));
        MICRONN_RETURN_IF_ERROR(UnindexAttributes(
            resolver, vid, old_record, options_.fts_columns));
        MICRONN_ASSIGN_OR_RETURN(bool attr_erased,
                                 attributes.Delete(key::U64(vid)));
        (void)attr_erased;
        txn->AddRowDelta(kAttributesTable, -1);
      }
      io.rows_updated.fetch_add(1, std::memory_order_relaxed);
    } else {
      vid = next_vid++;
      MICRONN_RETURN_IF_ERROR(
          assets.Put(key::Str(req.asset_id), EncodeAssetValue(vid)));
      txn->AddRowDelta(kAssetsTable, 1);
      txn->AddRowDelta(kVectorsTable, 1);
      txn->AddRowDelta(kVidMapTable, 1);
      io.rows_inserted.fetch_add(1, std::memory_order_relaxed);
    }
    // New/updated vectors land in the delta store (§3.6).
    MICRONN_RETURN_IF_ERROR(vectors.Put(
        VectorKey(kDeltaPartition, vid),
        EncodeVectorRow(req.asset_id, vec.data(), vec.size())));
    if (delta_params.has_value()) {
      QuantizeSq8(vec.data(), delta_params->min.data(),
                  delta_params->scale.data(), options_.dim,
                  sq8_codes.data());
      delta_params->max_error = std::max(
          delta_params->max_error,
          Sq8ReconstructionError(vec.data(), sq8_codes.data(),
                                 delta_params->min.data(),
                                 delta_params->scale.data(), options_.dim));
      MICRONN_RETURN_IF_ERROR(
          sq8.Put(VectorKey(kDeltaPartition, vid),
                  EncodeSq8Row(sq8_codes.data(), options_.dim)));
      txn->AddRowDelta(kSq8Table, 1);
    }
    MICRONN_RETURN_IF_ERROR(vidmap.Put(
        key::U64(vid), EncodeVidMapValue(kDeltaPartition)));
    ++delta_count;
    if (!req.attributes.empty()) {
      MICRONN_RETURN_IF_ERROR(attributes.Put(
          key::U64(vid), EncodeAttributeRecord(req.attributes)));
      txn->AddRowDelta(kAttributesTable, 1);
      MICRONN_RETURN_IF_ERROR(IndexAttributes(resolver, vid, req.attributes,
                                              options_.fts_columns));
    }
  }
  if (delta_params.has_value() &&
      delta_params->max_error > stored_delta_error) {
    MICRONN_RETURN_IF_ERROR(sq8params.Put(key::U32(kDeltaPartition),
                                          EncodeSq8Params(*delta_params)));
  }
  MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaNextVid, next_vid));
  MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaDeltaCount, delta_count));
  MICRONN_RETURN_IF_ERROR(
      AdjustCentroidCounts(txn.get(), partition_deltas, options_.dim));
  return engine_->Commit(std::move(txn));
}

Status DB::Delete(const std::vector<std::string>& asset_ids) {
  if (asset_ids.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(write_mutex_);
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                           engine_->BeginWrite());
  IoStats& io = engine_->io_stats();
  MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
  MICRONN_ASSIGN_OR_RETURN(BTree vectors, txn->OpenTable(kVectorsTable));
  MICRONN_ASSIGN_OR_RETURN(BTree vidmap, txn->OpenTable(kVidMapTable));
  MICRONN_ASSIGN_OR_RETURN(BTree assets, txn->OpenTable(kAssetsTable));
  MICRONN_ASSIGN_OR_RETURN(BTree attributes, txn->OpenTable(kAttributesTable));
  MICRONN_ASSIGN_OR_RETURN(BTree sq8, txn->OpenTable(kSq8Table));
  MICRONN_ASSIGN_OR_RETURN(uint64_t delta_count,
                           MetaGetU64(&meta, kMetaDeltaCount, 0));
  const TableResolver resolver = MakeWriteResolver(txn.get());
  std::map<uint32_t, int64_t> partition_deltas;

  for (const std::string& asset_id : asset_ids) {
    MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> existing,
                             assets.Get(key::Str(asset_id)));
    if (!existing.has_value()) continue;  // missing ids are ignored
    MICRONN_ASSIGN_OR_RETURN(uint64_t vid, DecodeAssetValue(*existing));
    MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> loc,
                             vidmap.Get(key::U64(vid)));
    if (loc.has_value()) {
      uint32_t partition;
      MICRONN_RETURN_IF_ERROR(DecodeVidMapValue(*loc, &partition));
      MICRONN_ASSIGN_OR_RETURN(bool erased,
                               vectors.Delete(VectorKey(partition, vid)));
      MICRONN_ASSIGN_OR_RETURN(bool sq8_erased,
                               sq8.Delete(VectorKey(partition, vid)));
      if (sq8_erased) txn->AddRowDelta(kSq8Table, -1);
      if (erased) {
        txn->AddRowDelta(kVectorsTable, -1);
        if (partition == kDeltaPartition) {
          --delta_count;
        } else {
          --partition_deltas[partition];
        }
      }
      MICRONN_ASSIGN_OR_RETURN(bool vm_erased, vidmap.Delete(key::U64(vid)));
      if (vm_erased) txn->AddRowDelta(kVidMapTable, -1);
    }
    MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> attrs,
                             attributes.Get(key::U64(vid)));
    if (attrs.has_value()) {
      MICRONN_ASSIGN_OR_RETURN(AttributeRecord record,
                               DecodeAttributeRecord(*attrs));
      MICRONN_RETURN_IF_ERROR(
          UnindexAttributes(resolver, vid, record, options_.fts_columns));
      MICRONN_ASSIGN_OR_RETURN(bool attr_erased,
                               attributes.Delete(key::U64(vid)));
      if (attr_erased) txn->AddRowDelta(kAttributesTable, -1);
    }
    MICRONN_ASSIGN_OR_RETURN(bool asset_erased,
                             assets.Delete(key::Str(asset_id)));
    if (asset_erased) txn->AddRowDelta(kAssetsTable, -1);
    io.rows_deleted.fetch_add(1, std::memory_order_relaxed);
  }
  MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaDeltaCount, delta_count));
  MICRONN_RETURN_IF_ERROR(
      AdjustCentroidCounts(txn.get(), partition_deltas, options_.dim));
  return engine_->Commit(std::move(txn));
}

Result<std::shared_ptr<const CentroidSet>> DB::GetCentroids(
    ReadTransaction* txn) {
  MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
  MICRONN_ASSIGN_OR_RETURN(uint64_t version,
                           MetaGetU64(&meta, kMetaIndexVersion, 0));
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (centroid_cache_ != nullptr &&
        centroid_cache_->index_version == version) {
      return centroid_cache_;
    }
  }
  MICRONN_ASSIGN_OR_RETURN(BTree centroids_table,
                           txn->OpenTable(kCentroidsTable));
  MICRONN_ASSIGN_OR_RETURN(
      CentroidSet set,
      LoadCentroidSet(txn->view(), centroids_table, meta, options_.dim,
                      options_.metric));
  if (options_.centroid_index_threshold > 0 &&
      set.size() >= options_.centroid_index_threshold) {
    MICRONN_ASSIGN_OR_RETURN(
        CentroidIndex accel,
        CentroidIndex::Build(set.centroids, 0, options_.seed));
    set.accel = std::make_shared<CentroidIndex>(std::move(accel));
    set.accel_super_probe = options_.centroid_super_probe;
  }
  auto holder = std::make_shared<CentroidHolder>(std::move(set));
  std::shared_ptr<const CentroidSet> result(holder, &holder->set);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (centroid_cache_ == nullptr ||
        centroid_cache_->index_version < result->index_version) {
      centroid_cache_ = result;
    }
  }
  return result;
}

Result<std::shared_ptr<const std::map<std::string, ColumnStats>>>
DB::GetStats(ReadTransaction* txn) {
  MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
  MICRONN_ASSIGN_OR_RETURN(uint64_t version,
                           MetaGetU64(&meta, kMetaStatsVersion, 0));
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (stats_cache_ != nullptr && stats_cache_version_ == version) {
      return stats_cache_;
    }
  }
  auto stats = std::make_shared<std::map<std::string, ColumnStats>>();
  Result<BTree> table = txn->OpenTable(kStatsTable);
  if (table.ok()) {
    BTreeCursor c = table->NewCursor();
    MICRONN_RETURN_IF_ERROR(c.SeekToFirst());
    while (c.Valid()) {
      std::string_view k = c.key();
      std::string column;
      if (!key::ConsumeString(&k, &column)) {
        return Status::Corruption("bad stats key");
      }
      MICRONN_ASSIGN_OR_RETURN(std::string value, c.value());
      MICRONN_ASSIGN_OR_RETURN(ColumnStats cs,
                               ColumnStats::Deserialize(value));
      stats->emplace(std::move(column), std::move(cs));
      MICRONN_RETURN_IF_ERROR(c.Next());
    }
  } else if (!table.status().IsNotFound()) {
    return table.status();
  }
  std::shared_ptr<const std::map<std::string, ColumnStats>> result = stats;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    stats_cache_ = result;
    stats_cache_version_ = version;
  }
  return result;
}

Result<std::vector<ResultItem>> DB::ResolveItems(
    ReadTransaction* txn, const std::vector<Neighbor>& neighbors) {
  std::vector<ResultItem> items(neighbors.size());
  if (neighbors.empty()) return items;
  MICRONN_ASSIGN_OR_RETURN(BTree vectors, txn->OpenTable(kVectorsTable));
  // Every neighbor carries the partition its row was scored in, so each
  // result is one vectors-table row at a known key, which the scan or
  // rerank read moments ago — its leaf is normally still cached. Visit
  // the rows in key order so one reader walks the run.
  std::vector<size_t> order(neighbors.size());
  std::iota(order.begin(), order.end(), size_t{0});
  auto location = [&](size_t i) {
    return RowLocation(neighbors[i].partition, neighbors[i].id);
  };
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return location(a) < location(b); });
  VectorRowReader reader(vectors, options_.dim);
  VectorRow vr;
  for (const size_t i : order) {
    MICRONN_RETURN_IF_ERROR(reader.Read(location(i), &vr));
    items[i] = ResultItem{vr.asset_id, neighbors[i].id,
                          neighbors[i].distance};
  }
  return items;
}

Result<SearchResponse> DB::Search(const SearchRequest& request) {
  MICRONN_ASSIGN_OR_RETURN(std::vector<SearchResponse> out,
                           RunQueries(&request, 1));
  return std::move(out[0]);
}

Result<std::vector<SearchResponse>> DB::BatchSearch(
    const std::vector<SearchRequest>& requests) {
  return RunQueries(requests.data(), requests.size());
}

// The unified query path (§3.4–§3.5) now runs behind the admission
// scheduler: a submission either executes immediately (no concurrent
// peers) or is merged with the submissions staged beside it into one
// coalesced group that the leader executes on behalf of all.
Result<std::vector<SearchResponse>> DB::RunQueries(
    const SearchRequest* requests, size_t n) {
  if (n == 0) return std::vector<SearchResponse>();
  return scheduler_.Submit(requests, n);
}

// Executes one (possibly coalesced) group: one read snapshot, one planner
// pass — lowering is re-run here by the leader so every plan binds this
// snapshot's tables, and predicate dedup spans submissions — one executor
// group with shared partition scans, then per-response resolution and
// annotation. Failures are per-submission where possible (an invalid
// request fails only its own submission, exactly as when it ran alone);
// group-wide failures (snapshot, executor I/O) fail every submission
// still pending.
void DB::ExecuteQueryGroup(const std::vector<QueryGroupEntry*>& group) {
  // A plan's position in the executed group, mapped back to its
  // submission and that submission's response slot.
  struct PlanRef {
    QueryGroupEntry* entry;
    size_t local;
  };
  std::vector<PhysicalPlan> plans;
  std::vector<PlanRef> refs;

  std::unique_ptr<ReadTransaction> txn;
  std::optional<BTree> vectors;
  std::optional<BTree> vidmap;
  const Status shared = [&]() -> Status {
    MICRONN_ASSIGN_OR_RETURN(txn, engine_->BeginRead());
    MICRONN_ASSIGN_OR_RETURN(BTree v, txn->OpenTable(kVectorsTable));
    MICRONN_ASSIGN_OR_RETURN(BTree m, txn->OpenTable(kVidMapTable));
    vectors = v;
    vidmap = m;
    return Status::OK();
  }();
  if (!shared.ok()) {
    for (QueryGroupEntry* entry : group) entry->status = shared;
    return;
  }

  QueryPlanner planner(txn.get(), &options_,
                       [this, &txn] { return GetStats(txn.get()); });
  bool needs_centroids = false;
  for (QueryGroupEntry* entry : group) {
    entry->status = Status::OK();
    std::vector<PhysicalPlan> lowered;
    lowered.reserve(entry->n);
    for (size_t i = 0; i < entry->n; ++i) {
      Result<PhysicalPlan> plan = planner.Lower(entry->requests[i]);
      if (!plan.ok()) {
        // Validation failure: fail this submission only; its peers in the
        // coalesced group are untouched.
        entry->status = plan.status();
        break;
      }
      lowered.push_back(std::move(*plan));
    }
    if (!entry->status.ok()) continue;
    entry->responses.assign(entry->n, SearchResponse{});
    for (size_t i = 0; i < lowered.size(); ++i) {
      // Only ANN strategies probe centroids; exact plans enumerate the
      // physical partitions and pre-filter plans score candidate vids.
      needs_centroids |= lowered[i].plan == QueryPlan::kUnfiltered ||
                         lowered[i].plan == QueryPlan::kPostFilter;
      refs.push_back(PlanRef{entry, i});
      plans.push_back(std::move(lowered[i]));
    }
  }
  if (plans.empty()) return;  // every submission failed validation

  auto fail_pending = [&](const Status& st) {
    for (QueryGroupEntry* entry : group) {
      if (entry->status.ok()) {
        entry->status = st;
        entry->responses.clear();
      }
    }
  };

  std::shared_ptr<const CentroidSet> cset;
  if (needs_centroids) {
    Result<std::shared_ptr<const CentroidSet>> r = GetCentroids(txn.get());
    if (!r.ok()) {
      fail_pending(r.status());
      return;
    }
    cset = std::move(*r);
  }
  ExecutorContext ctx{
      *vectors, *vidmap, cset != nullptr ? cset.get() : nullptr, options_.dim,
      options_.metric, &pool_, std::nullopt, std::nullopt, std::nullopt,
      engine_->pager(), txn->snapshot_seq(), options_.prefetch_depth,
      options_.async_prefetch};
  // SQ8 sidecar + attributes table for the executor's quantized scans and
  // shared filter evaluation. All three exist on every database this
  // version opens; tolerate absence anyway (the executor degrades to
  // float scans / per-plan filters).
  {
    Result<BTree> sq8 = txn->OpenTable(kSq8Table);
    Result<BTree> sq8params = txn->OpenTable(kSq8ParamsTable);
    if (sq8.ok() && sq8params.ok()) {
      ctx.sq8 = *sq8;
      ctx.sq8params = *sq8params;
    }
    Result<BTree> attributes = txn->OpenTable(kAttributesTable);
    if (attributes.ok()) ctx.attributes = *attributes;
  }
  QueryExecutor executor(std::move(ctx));
  BatchCounters counters;
  Result<std::vector<PlanResult>> executed = executor.Execute(plans, &counters);
  if (!executed.ok()) {
    fail_pending(executed.status());
    return;
  }
  const std::vector<PlanResult>& results = *executed;

  const uint32_t group_size = static_cast<uint32_t>(plans.size());
  for (size_t gi = 0; gi < plans.size(); ++gi) {
    QueryGroupEntry* entry = refs[gi].entry;
    if (!entry->status.ok()) continue;  // a sibling plan's resolve failed
    SearchResponse& resp = entry->responses[refs[gi].local];
    const PhysicalPlan& plan = plans[gi];
    const PlanResult& result = results[gi];
    Result<std::vector<ResultItem>> items =
        ResolveItems(txn.get(), result.neighbors);
    if (!items.ok()) {
      entry->status = items.status();
      entry->responses.clear();
      continue;
    }
    resp.items = std::move(*items);
    resp.plan = plan.plan;
    resp.decision = plan.decision;
    resp.partitions_scanned = result.counters.partitions_scanned;
    resp.rows_scanned = result.counters.rows_scanned;
    resp.rows_filtered = result.counters.rows_filtered;

    QueryExplain& ex = resp.explain;
    ex.plan = plan.plan;
    ex.decision = plan.decision;
    ex.optimized = plan.optimized;
    // nprobe only drives ANN strategies; zero it where it played no part.
    ex.nprobe = (plan.plan == QueryPlan::kPreFilter ||
                 plan.plan == QueryPlan::kExact)
                    ? 0
                    : plan.nprobe;
    ex.probe_pairs = result.probe_pairs;
    ex.candidates = plan.prefilter_vids.size();
    ex.partitions_scanned = resp.partitions_scanned;
    ex.rows_scanned = resp.rows_scanned;
    ex.rows_filtered = resp.rows_filtered;
    ex.quantized = result.quantized;
    ex.partitions_quantized = result.partitions_quantized;
    ex.rerank_budget = plan.quantized ? plan.rerank_k : 0;
    ex.rerank_candidates = result.rerank_candidates;
    ex.rows_reranked = result.rows_reranked;
    ex.partitions_quarantined = result.partitions_quarantined;
    ex.rows_quarantined = result.counters.rows_quarantined;
    // Remember what this query quarantined so Health() can name it and
    // the background healer knows there is something to re-verify.
    for (const uint32_t partition : result.quarantined_partition_ids) {
      quarantine_.NoteSq8Partition(partition);
    }
    quarantine_.NoteAttributeRows(result.counters.rows_quarantined);
    ex.shared_scan = result.shared_scan;
    ex.group_size = group_size;
    ex.group_partitions_scanned = counters.partitions_scanned;
    ex.group_rows_scanned = counters.rows_scanned;
    ex.group_probe_pairs = counters.probe_pairs;
    ex.coalesced_group_size = entry->group_entries;
    ex.coalesce_wait_us = entry->wait_us;
  }
}

Result<IndexStats> DB::GetIndexStats() {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> txn,
                           engine_->BeginRead());
  MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
  MICRONN_ASSIGN_OR_RETURN(BTree centroids, txn->OpenTable(kCentroidsTable));
  MICRONN_ASSIGN_OR_RETURN(
      CentroidSet set, LoadCentroidSet(txn->view(), centroids, meta,
                                       options_.dim, options_.metric));
  return ComputeIndexStats(set, meta);
}

Result<bool> DB::MaintenanceDue(uint64_t delta_trigger) {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> txn,
                           engine_->BeginRead());
  MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
  MICRONN_ASSIGN_OR_RETURN(uint64_t delta_count,
                           MetaGetU64(&meta, kMetaDeltaCount, 0));
  if (delta_count >= delta_trigger) return true;
  // Never built: with no partitions every vector sits in the delta store.
  MICRONN_ASSIGN_OR_RETURN(uint64_t n_partitions,
                           MetaGetU64(&meta, kMetaNumPartitions, 0));
  return n_partitions == 0 && delta_count > 0;
}

Result<uint64_t> DB::VectorCount() {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> txn,
                           engine_->BeginRead());
  MICRONN_ASSIGN_OR_RETURN(TableInfo info, txn->GetTableInfo(kVectorsTable));
  return info.row_count;
}

void DB::DropCaches() {
  engine_->DropCaches();
  std::lock_guard<std::mutex> lock(cache_mutex_);
  centroid_cache_.reset();
  stats_cache_.reset();
  stats_cache_version_ = ~0ull;
}

HealthReport DB::Health() {
  Pager* pager = engine_->pager();
  HealthReport h;
  DegradedMode::State degraded = pager->degraded_state();
  h.read_only = degraded.read_only;
  h.read_only_cause = std::move(degraded.cause);
  h.read_only_for_ms = degraded.for_ms;
  h.strict_checksums = pager->strict_checksums();
  h.format_version = pager->format_version();
  h.quarantined_sq8_partitions = quarantine_.Sq8Partitions();
  h.quarantined_attribute_rows = quarantine_.attribute_rows();
  const ScrubState scrub = pager->scrub_state();
  h.scrub_active = scrub.active;
  h.scrub_next_page = scrub.next_page;
  h.scrub_pages_verified = scrub.pages_verified;
  h.scrub_passes_completed = scrub.passes_completed;
  h.scrub_pages_repaired = scrub.last_report.pages_repaired;
  h.scrub_unrepairable = scrub.last_report.unrepairable.size();
  const IoStats::View io = engine_->io_stats().Snapshot();
  h.corruptions_detected = io.corruptions_detected;
  h.io_retries = io.io_retries;
  h.wal_wraps = io.wal_wraps;
  h.enospc_probes = io.enospc_probes;
  // Verdict: most severe condition wins. Lenient checksums only count as
  // degraded on a v4 database (damaged sidecar awaiting re-cover); a
  // legacy database mid-upgrade is in its normal state.
  if (h.read_only) {
    h.verdict = HealthVerdict::kReadOnly;
  } else if (!h.quarantined_sq8_partitions.empty() ||
             h.scrub_unrepairable > 0 ||
             (options_.pager.checksum_pages && !h.strict_checksums &&
              h.format_version >= DbHeader::kFormatWithPageChecksums)) {
    h.verdict = HealthVerdict::kDegradedServing;
  }
  return h;
}

}  // namespace micronn
