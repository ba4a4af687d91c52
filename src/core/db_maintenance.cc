// Index lifecycle: full rebuild (Algorithm 1 + clustered rewrite),
// incremental maintenance (delta flush with centroid nudging, §3.6),
// statistics analysis, and crash repair.
//
// Memory discipline: every phase runs in bounded memory. Training uses the
// mini-batch sampler; the rewrite streams the old table through fixed-size
// chunks, each committed as its own transaction; dropping the previous
// generation is likewise chunked. Readers keep serving from the old index
// until one small "swap" transaction atomically renames the staging tables
// into place.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "common/logging.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "core/db.h"
#include "core/db_internal.h"
#include "ivf/kmeans.h"
#include "ivf/scan.h"
#include "ivf/schema.h"
#include "numerics/aligned_buffer.h"
#include "numerics/distance.h"
#include "numerics/sq8.h"
#include "query/stats.h"
#include "storage/key_encoding.h"

namespace micronn {

namespace {

// Uniform sampler over the on-disk collection: draws vids uniformly from
// [1, next_vid) and resolves them through vidmap; falls back to a
// sequential scan when the vid space is too sparse (heavy deletion).
class DiskVectorSampler : public VectorSampler {
 public:
  DiskVectorSampler(BTree vectors, BTree vidmap, uint64_t next_vid,
                    uint32_t dim, uint64_t seed)
      : vectors_(vectors),
        vidmap_(vidmap),
        next_vid_(next_vid),
        dim_(dim),
        rng_(seed) {}

  Status SampleBatch(size_t n, float* out, size_t* got) override {
    size_t filled = 0;
    if (next_vid_ > 1) {
      size_t attempts = 0;
      const size_t max_attempts = 8 * n + 64;
      while (filled < n && attempts < max_attempts) {
        ++attempts;
        const uint64_t vid = 1 + rng_.Uniform(next_vid_ - 1);
        MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> loc,
                                 vidmap_.Get(key::U64(vid)));
        if (!loc.has_value()) continue;  // deleted vid
        uint32_t partition;
        MICRONN_RETURN_IF_ERROR(DecodeVidMapValue(*loc, &partition));
        MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> row,
                                 vectors_.Get(VectorKey(partition, vid)));
        if (!row.has_value()) {
          return Status::Corruption("vidmap points at missing row");
        }
        VectorRow vr;
        MICRONN_RETURN_IF_ERROR(DecodeVectorRow(*row, dim_, &vr));
        std::memcpy(out + filled * dim_, vr.vector_blob.data(),
                    dim_ * sizeof(float));
        ++filled;
      }
    }
    if (filled < n) {
      // Sparse vid space: top up with a sequential sweep (still bounded
      // memory; slight bias is acceptable for k-means init/training).
      BTreeCursor c = vectors_.NewCursor();
      MICRONN_RETURN_IF_ERROR(c.SeekToFirst());
      while (filled < n && c.Valid()) {
        MICRONN_ASSIGN_OR_RETURN(std::string value, c.value());
        VectorRow vr;
        MICRONN_RETURN_IF_ERROR(DecodeVectorRow(value, dim_, &vr));
        std::memcpy(out + filled * dim_, vr.vector_blob.data(),
                    dim_ * sizeof(float));
        ++filled;
        MICRONN_RETURN_IF_ERROR(c.Next());
      }
    }
    *got = filled;
    return Status::OK();
  }

 private:
  BTree vectors_;
  BTree vidmap_;
  uint64_t next_vid_;
  uint32_t dim_;
  Rng rng_;
};

// Rows per rebuild / delta-flush chunk. Bounded by bytes as well as rows:
// at high dimensionality a row-count cap alone would let the writer's
// working set balloon.
size_t ChunkRows(size_t rebuild_chunk_rows, uint32_t dim) {
  const size_t row_bytes = size_t{dim} * sizeof(float) + 64;
  return std::clamp<size_t>(rebuild_chunk_rows, 64,
                            std::max<size_t>(64, (2ull << 20) / row_bytes));
}

// One decoded chunk of the vectors table (rebuild / delta-flush unit).
struct RowChunk {
  std::vector<uint64_t> vids;
  std::vector<std::string> assets;
  std::vector<float> block;  // rows * dim

  size_t size() const { return vids.size(); }

  // Replaces the chunk with up to `max_rows` rows read from `cursor`,
  // stopping early at the end of the table or at the first key that does
  // not start with `prefix`.
  Status Load(BTreeCursor* cursor, std::string_view prefix, size_t max_rows,
              uint32_t dim) {
    vids.clear();
    assets.clear();
    block.clear();
    while (cursor->Valid() && size() < max_rows &&
           cursor->key().substr(0, prefix.size()) == prefix) {
      uint32_t partition;
      uint64_t vid;
      MICRONN_RETURN_IF_ERROR(ParseVectorKey(cursor->key(), &partition, &vid));
      MICRONN_ASSIGN_OR_RETURN(std::string value, cursor->value());
      VectorRow vr;
      MICRONN_RETURN_IF_ERROR(DecodeVectorRow(value, dim, &vr));
      vids.push_back(vid);
      assets.push_back(std::move(vr.asset_id));
      const size_t off = block.size();
      block.resize(off + dim);
      std::memcpy(block.data() + off, vr.vector_blob.data(),
                  dim * sizeof(float));
      MICRONN_RETURN_IF_ERROR(cursor->Next());
    }
    return Status::OK();
  }
};

}  // namespace

Status DB::RecoverInterruptedRebuild() {
  MICRONN_ASSIGN_OR_RETURN(bool dropped, DropRebuildLeftovers());
  bool flagged = false;
  {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> txn,
                             engine_->BeginRead());
    MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
    MICRONN_ASSIGN_OR_RETURN(uint64_t in_progress,
                             MetaGetU64(&meta, kMetaRebuildInProgress, 0));
    MICRONN_ASSIGN_OR_RETURN(uint64_t pending,
                             MetaGetU64(&meta, kMetaCleanupPending, 0));
    flagged = in_progress != 0 || pending != 0;
  }
  if (!dropped && !flagged) return Status::OK();
  // The flags only describe the interruption; the tables are gone now.
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                           engine_->BeginWrite());
  MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
  MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaRebuildInProgress, 0));
  MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaCleanupPending, 0));
  return engine_->Commit(std::move(txn));
}

Result<bool> DB::DropRebuildLeftovers() {
  // Staging tables first (the live index never saw them), then the
  // generation a swap retired.
  std::vector<const char*> leftovers;
  {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> txn,
                             engine_->BeginRead());
    for (const char* GenerationTable::*name :
         {&GenerationTable::staging, &GenerationTable::retired}) {
      for (const GenerationTable& t : kGenerationTables) {
        Result<TableInfo> info = txn->GetTableInfo(t.*name);
        if (info.ok()) {
          leftovers.push_back(t.*name);
        } else if (!info.status().IsNotFound()) {
          return info.status();
        }
      }
    }
  }
  if (leftovers.empty()) return false;
  MICRONN_LOG(kWarn) << "dropping " << leftovers.size()
                     << " tables left by an interrupted index rebuild";
  for (const char* name : leftovers) {
    MICRONN_RETURN_IF_ERROR(DropTableChunked(name));
  }
  return true;
}

Status DB::DropTableChunked(const std::string& name) {
  for (;;) {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                             engine_->BeginWrite());
    Result<BTree> table = txn->OpenTable(name);
    if (table.status().IsNotFound()) return Status::OK();
    MICRONN_RETURN_IF_ERROR(table.status());
    std::vector<std::string> keys;
    BTreeCursor c = table->NewCursor();
    MICRONN_RETURN_IF_ERROR(c.SeekToFirst());
    while (c.Valid() && keys.size() < options_.rebuild_chunk_rows) {
      keys.emplace_back(c.key());
      MICRONN_RETURN_IF_ERROR(c.Next());
    }
    if (keys.empty()) {
      MICRONN_RETURN_IF_ERROR(txn->DropTable(name));
      return engine_->Commit(std::move(txn));
    }
    for (const std::string& k : keys) {
      MICRONN_ASSIGN_OR_RETURN(bool erased, table->Delete(k));
      (void)erased;
    }
    txn->AddRowDelta(name, -static_cast<int64_t>(keys.size()));
    MICRONN_RETURN_IF_ERROR(engine_->Commit(std::move(txn)));
  }
}

Status DB::BuildIndex() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return BuildIndexLocked();
}

Status DB::BuildIndexLocked() {
  const uint32_t dim = options_.dim;
  IoStats& io = engine_->io_stats();

  // Phase 0: clear leftovers, mark the rebuild and create the staging
  // tables.
  MICRONN_RETURN_IF_ERROR(DropRebuildLeftovers().status());
  {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                             engine_->BeginWrite());
    MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaRebuildInProgress, 1));
    for (const GenerationTable& t : kGenerationTables) {
      MICRONN_RETURN_IF_ERROR(txn->OpenOrCreateTable(t.staging).status());
    }
    MICRONN_RETURN_IF_ERROR(engine_->Commit(std::move(txn)));
  }

  // Phase 1: snapshot. This read transaction pins the entire rebuild's
  // view of the collection; concurrent readers are unaffected.
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> snapshot,
                           engine_->BeginRead());
  MICRONN_ASSIGN_OR_RETURN(TableInfo vinfo,
                           snapshot->GetTableInfo(kVectorsTable));
  const uint64_t n_rows = vinfo.row_count;
  MICRONN_ASSIGN_OR_RETURN(BTree snap_meta, snapshot->OpenTable(kMetaTable));
  MICRONN_ASSIGN_OR_RETURN(uint64_t next_vid,
                           MetaGetU64(&snap_meta, kMetaNextVid, 1));
  MICRONN_ASSIGN_OR_RETURN(BTree snap_vectors,
                           snapshot->OpenTable(kVectorsTable));
  MICRONN_ASSIGN_OR_RETURN(BTree snap_vidmap,
                           snapshot->OpenTable(kVidMapTable));

  if (n_rows == 0) {
    snapshot.reset();
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                             engine_->BeginWrite());
    MICRONN_ASSIGN_OR_RETURN(BTree centroids, txn->OpenTable(kCentroidsTable));
    MICRONN_RETURN_IF_ERROR(centroids.Clear());
    MICRONN_ASSIGN_OR_RETURN(BTree sq8, txn->OpenTable(kSq8Table));
    MICRONN_RETURN_IF_ERROR(sq8.Clear());
    MICRONN_ASSIGN_OR_RETURN(TableInfo sq8_info, txn->GetTableInfo(kSq8Table));
    txn->AddRowDelta(kSq8Table, -static_cast<int64_t>(sq8_info.row_count));
    MICRONN_ASSIGN_OR_RETURN(BTree sq8params, txn->OpenTable(kSq8ParamsTable));
    MICRONN_RETURN_IF_ERROR(sq8params.Clear());
    MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaNumPartitions, 0));
    MICRONN_RETURN_IF_ERROR(MetaPutF64(&meta, kMetaBaseAvgPartition, 0.0));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaDeltaCount, 0));
    MICRONN_ASSIGN_OR_RETURN(uint64_t version,
                             MetaGetU64(&meta, kMetaIndexVersion, 0));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaIndexVersion, version + 1));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaRebuildInProgress, 0));
    for (const GenerationTable& t : kGenerationTables) {
      MICRONN_RETURN_IF_ERROR(txn->DropTable(t.staging));
    }
    return engine_->Commit(std::move(txn));
  }

  // Phase 2: train the quantizer with mini-batch k-means (Algorithm 1).
  const uint32_t target = std::max<uint32_t>(1, options_.target_cluster_size);
  const uint32_t k = static_cast<uint32_t>(
      std::max<uint64_t>(1, (n_rows + target / 2) / target));
  ClusteringConfig config;
  config.k = k;
  config.dim = dim;
  config.metric = options_.metric;
  config.minibatch_size = options_.minibatch_size;
  config.iterations = options_.train_iterations;
  config.balance_lambda = options_.balance_lambda;
  config.seed = options_.seed;
  DiskVectorSampler sampler(snap_vectors, snap_vidmap, next_vid, dim,
                            options_.seed ^ 0x9e3779b97f4a7c15ULL);
  MICRONN_ASSIGN_OR_RETURN(Centroids centroids,
                           TrainMiniBatchKMeans(config, &sampler));

  // Phase 3: stream the snapshot through chunks: assign -> write staging.
  std::vector<uint64_t> counts(k, 0);
  {
    const size_t chunk_rows = ChunkRows(options_.rebuild_chunk_rows, dim);
    ScopedMemoryReservation mem(
        MemoryCategory::kClustering,
        chunk_rows * (dim * sizeof(float) + 64) + k * sizeof(uint64_t));
    RowChunk chunk;
    std::vector<uint32_t> assign;
    BTreeCursor cursor = snap_vectors.NewCursor();
    MICRONN_RETURN_IF_ERROR(cursor.SeekToFirst());
    for (;;) {
      MICRONN_RETURN_IF_ERROR(chunk.Load(&cursor, "", chunk_rows, dim));
      if (chunk.size() == 0) break;
      AssignBlock(centroids, chunk.block.data(), chunk.size(), &assign);

      MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                               engine_->BeginWrite());
      MICRONN_ASSIGN_OR_RETURN(BTree vnew, txn->OpenTable(kVectorsNewTable));
      MICRONN_ASSIGN_OR_RETURN(BTree mnew, txn->OpenTable(kVidMapNewTable));
      for (size_t i = 0; i < chunk.size(); ++i) {
        const uint32_t partition = assign[i] + kFirstPartition;
        ++counts[assign[i]];
        MICRONN_RETURN_IF_ERROR(
            vnew.Put(VectorKey(partition, chunk.vids[i]),
                     EncodeVectorRow(chunk.assets[i],
                                     chunk.block.data() + i * dim, dim)));
        MICRONN_RETURN_IF_ERROR(
            mnew.Put(key::U64(chunk.vids[i]), EncodeVidMapValue(partition)));
      }
      txn->AddRowDelta(kVectorsNewTable, static_cast<int64_t>(chunk.size()));
      txn->AddRowDelta(kVidMapNewTable, static_cast<int64_t>(chunk.size()));
      io.rows_inserted.fetch_add(2 * chunk.size(), std::memory_order_relaxed);
      MICRONN_RETURN_IF_ERROR(engine_->Commit(std::move(txn)));
    }
  }
  snapshot.reset();  // release the rebuild snapshot

  // Phase 3.5: scalar-quantization pass. Each partition of the staging
  // table is requantized in place — per-dim bounds from its final
  // membership, then its sq8 sidecar rows — in bounded memory (two passes
  // over one partition's contiguous rows at a time, batched into chunked
  // transactions). The union of all bounds becomes the delta store's
  // collection-global parameters, so post-build upserts quantize on the
  // way in.
  {
    std::vector<uint32_t> partitions;
    {
      MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> txn,
                               engine_->BeginRead());
      MICRONN_ASSIGN_OR_RETURN(BTree vnew, txn->OpenTable(kVectorsNewTable));
      MICRONN_ASSIGN_OR_RETURN(partitions, ListPartitions(vnew));
    }
    Sq8BoundsAccumulator global;
    global.Reset(dim);
    // Floor the chunk so each transaction always quantizes at least one
    // partition — a rebuild_chunk_rows of 0 must not spin.
    const uint64_t sq8_chunk_rows =
        std::max<uint64_t>(1, options_.rebuild_chunk_rows);
    size_t next = 0;
    while (next < partitions.size()) {
      MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                               engine_->BeginWrite());
      MICRONN_ASSIGN_OR_RETURN(BTree vnew, txn->OpenTable(kVectorsNewTable));
      MICRONN_ASSIGN_OR_RETURN(BTree snew, txn->OpenTable(kSq8NewTable));
      MICRONN_ASSIGN_OR_RETURN(BTree pnew, txn->OpenTable(kSq8ParamsNewTable));
      uint64_t rows_this_txn = 0;
      while (next < partitions.size() && rows_this_txn < sq8_chunk_rows) {
        MICRONN_ASSIGN_OR_RETURN(
            uint64_t rows, RequantizePartition(vnew, snew, pnew,
                                               partitions[next], dim, &global));
        rows_this_txn += rows;
        txn->AddRowDelta(kSq8NewTable, static_cast<int64_t>(rows));
        ++next;
      }
      io.rows_inserted.fetch_add(rows_this_txn, std::memory_order_relaxed);
      MICRONN_RETURN_IF_ERROR(engine_->Commit(std::move(txn)));
    }
    // Its max_error starts at 0: the new generation's delta store is
    // empty, and upserts raise it as they quantize into it.
    if (global.any) {
      MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                               engine_->BeginWrite());
      MICRONN_ASSIGN_OR_RETURN(BTree pnew, txn->OpenTable(kSq8ParamsNewTable));
      MICRONN_RETURN_IF_ERROR(
          pnew.Put(key::U32(kDeltaPartition),
                   EncodeSq8Params(FinalizeSq8Params(global))));
      MICRONN_RETURN_IF_ERROR(engine_->Commit(std::move(txn)));
    }
  }

  // Phase 4: the atomic swap — one small transaction flips readers to the
  // new generation.
  {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                             engine_->BeginWrite());
    MICRONN_ASSIGN_OR_RETURN(BTree ctable, txn->OpenTable(kCentroidsTable));
    MICRONN_RETURN_IF_ERROR(ctable.Clear());
    for (uint32_t j = 0; j < k; ++j) {
      MICRONN_RETURN_IF_ERROR(
          ctable.Put(key::U32(j + kFirstPartition),
                     EncodeCentroidRow(counts[j], centroids.row(j), dim)));
    }
    io.rows_updated.fetch_add(k, std::memory_order_relaxed);
    for (const GenerationTable& t : kGenerationTables) {
      MICRONN_RETURN_IF_ERROR(txn->RenameTable(t.live, t.retired));
    }
    for (const GenerationTable& t : kGenerationTables) {
      MICRONN_RETURN_IF_ERROR(txn->RenameTable(t.staging, t.live));
    }
    MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaNumPartitions, k));
    MICRONN_RETURN_IF_ERROR(MetaPutF64(
        &meta, kMetaBaseAvgPartition,
        static_cast<double>(n_rows) / static_cast<double>(k)));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaDeltaCount, 0));
    MICRONN_ASSIGN_OR_RETURN(uint64_t version,
                             MetaGetU64(&meta, kMetaIndexVersion, 0));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaIndexVersion, version + 1));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaRebuildInProgress, 0));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaCleanupPending, 1));
    MICRONN_RETURN_IF_ERROR(engine_->Commit(std::move(txn)));
  }

  // Phase 5: chunked cleanup of the previous generation.
  for (const GenerationTable& t : kGenerationTables) {
    MICRONN_RETURN_IF_ERROR(DropTableChunked(t.retired));
  }
  {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                             engine_->BeginWrite());
    MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaCleanupPending, 0));
    MICRONN_RETURN_IF_ERROR(engine_->Commit(std::move(txn)));
  }

  // Phase 6: refresh optimizer statistics; fold the WAL if possible.
  MICRONN_RETURN_IF_ERROR(AnalyzeStatsLocked());
  Status cp = engine_->Checkpoint();
  if (!cp.ok() && !cp.IsBusy()) return cp;
  return Status::OK();
}

Result<MaintenanceReport> DB::Maintain() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return MaintainLocked();
}

Result<MaintenanceReport> DB::MaintainLocked() {
  MaintenanceReport report;
  const uint32_t dim = options_.dim;
  const IoStats::View before = engine_->io_stats().Snapshot();

  // Load the current centroid image and decide between incremental flush
  // and full rebuild.
  CentroidSet cset;
  {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> txn,
                             engine_->BeginRead());
    MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
    MICRONN_ASSIGN_OR_RETURN(BTree centroids,
                             txn->OpenTable(kCentroidsTable));
    MICRONN_ASSIGN_OR_RETURN(
        cset, LoadCentroidSet(txn->view(), centroids, meta, dim,
                              options_.metric));
    MICRONN_ASSIGN_OR_RETURN(IndexStats stats, ComputeIndexStats(cset, meta));
    RebuildPolicy policy;
    policy.growth_threshold = options_.rebuild_growth_threshold;
    // Project the delta into the average: flushing moves delta rows into
    // partitions, so the post-flush average is (total / n_partitions).
    IndexStats projected = stats;
    if (stats.n_partitions > 0) {
      projected.avg_partition_size =
          static_cast<double>(stats.total_vectors) /
          static_cast<double>(stats.n_partitions);
    }
    if (ShouldFullRebuild(projected, policy)) {
      MICRONN_RETURN_IF_ERROR(BuildIndexLocked());
      report.full_rebuild = true;
      const IoStats::View after = engine_->io_stats().Snapshot();
      report.row_changes = (after - before).RowChanges();
      return report;
    }
    if (stats.delta_count == 0 || stats.n_partitions == 0) {
      return report;  // nothing to flush
    }
  }

  // Incremental flush: move delta rows to their nearest partitions in
  // chunks, accumulating per-partition sums for the centroid update.
  IoStats& io = engine_->io_stats();
  std::map<uint32_t, std::pair<std::vector<double>, uint64_t>> updates;
  const size_t chunk_rows = ChunkRows(options_.rebuild_chunk_rows, dim);
  RowChunk chunk;
  std::vector<uint32_t> assign_rows;
  // Destination-partition quantization parameters, loaded on first use.
  // Min and scale only change during a full rebuild, and max_error only
  // through this flush (writes are serialized), so the cache stays valid
  // across the flush's chunked transactions. A partition without params
  // (pre-SQ8 build) keeps serving full-precision scans, so its moved rows
  // get no sidecar codes.
  std::map<uint32_t, std::optional<Sq8PartitionParams>> sq8_params_cache;
  std::vector<uint8_t> sq8_codes(dim);
  // Drift detection: saturated vs total codes written per destination
  // partition across this flush. A high ratio means the partition's
  // bounds predate the data now landing in it.
  struct SaturationCount {
    uint64_t saturated = 0;
    uint64_t total = 0;
  };
  std::map<uint32_t, SaturationCount> saturation;
  for (;;) {
    // Fresh snapshot per chunk: moved rows have left the delta partition.
    {
      MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> txn,
                               engine_->BeginRead());
      MICRONN_ASSIGN_OR_RETURN(BTree vectors, txn->OpenTable(kVectorsTable));
      BTreeCursor c = vectors.NewCursor();
      const std::string prefix = PartitionPrefix(kDeltaPartition);
      MICRONN_RETURN_IF_ERROR(c.Seek(prefix));
      MICRONN_RETURN_IF_ERROR(chunk.Load(&c, prefix, chunk_rows, dim));
    }
    if (chunk.size() == 0) break;
    // Assign each delta vector to the nearest centroid row.
    AssignBlock(cset.centroids, chunk.block.data(), chunk.size(),
                &assign_rows);

    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                             engine_->BeginWrite());
    MICRONN_ASSIGN_OR_RETURN(BTree vectors, txn->OpenTable(kVectorsTable));
    MICRONN_ASSIGN_OR_RETURN(BTree vidmap, txn->OpenTable(kVidMapTable));
    MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
    MICRONN_ASSIGN_OR_RETURN(BTree sq8, txn->OpenTable(kSq8Table));
    MICRONN_ASSIGN_OR_RETURN(BTree sq8params, txn->OpenTable(kSq8ParamsTable));
    // Partitions whose max_error a moved row raised: their params rows are
    // rewritten once, in this chunk's transaction.
    std::set<uint32_t> raised;
    for (size_t i = 0; i < chunk.size(); ++i) {
      const uint32_t row = assign_rows[i];
      const uint32_t partition = cset.partitions[row];
      const uint64_t vid = chunk.vids[i];
      MICRONN_ASSIGN_OR_RETURN(
          bool erased, vectors.Delete(VectorKey(kDeltaPartition, vid)));
      if (!erased) continue;  // defensive: writes are serialized
      MICRONN_RETURN_IF_ERROR(
          vectors.Put(VectorKey(partition, vid),
                      EncodeVectorRow(chunk.assets[i],
                                      chunk.block.data() + i * dim, dim)));
      MICRONN_RETURN_IF_ERROR(
          vidmap.Put(key::U64(vid), EncodeVidMapValue(partition)));
      // Re-quantize the moved row with its destination's parameters
      // (values outside the partition's box saturate; the rerank stage
      // re-scores at full precision).
      MICRONN_ASSIGN_OR_RETURN(bool sq8_erased,
                               sq8.Delete(VectorKey(kDeltaPartition, vid)));
      if (sq8_erased) txn->AddRowDelta(kSq8Table, -1);
      auto sp = sq8_params_cache.find(partition);
      if (sp == sq8_params_cache.end()) {
        MICRONN_ASSIGN_OR_RETURN(std::optional<Sq8PartitionParams> params,
                                 GetSq8Params(&sq8params, partition, dim));
        sp = sq8_params_cache.emplace(partition, std::move(params)).first;
      }
      if (sp->second.has_value()) {
        Sq8PartitionParams& params = *sp->second;
        const float* v = chunk.block.data() + i * dim;
        const size_t saturated =
            QuantizeSq8Saturating(v, params.min.data(), params.scale.data(),
                                  dim, sq8_codes.data());
        const float error =
            Sq8ReconstructionError(v, sq8_codes.data(), params.min.data(),
                                   params.scale.data(), dim);
        if (error > params.max_error) {
          params.max_error = error;
          raised.insert(partition);
        }
        SaturationCount& sat = saturation[partition];
        sat.saturated += saturated;
        sat.total += dim;
        MICRONN_RETURN_IF_ERROR(sq8.Put(VectorKey(partition, vid),
                                        EncodeSq8Row(sq8_codes.data(), dim)));
        txn->AddRowDelta(kSq8Table, 1);
      }
      auto& [sum, cnt] = updates[row];
      if (sum.empty()) sum.assign(dim, 0.0);
      const float* v = chunk.block.data() + i * dim;
      for (uint32_t d = 0; d < dim; ++d) sum[d] += v[d];
      ++cnt;
    }
    for (const uint32_t partition : raised) {
      MICRONN_RETURN_IF_ERROR(
          sq8params.Put(key::U32(partition),
                        EncodeSq8Params(*sq8_params_cache.at(partition))));
    }
    MICRONN_ASSIGN_OR_RETURN(uint64_t delta_count,
                             MetaGetU64(&meta, kMetaDeltaCount, 0));
    const uint64_t moved = chunk.size();
    MICRONN_RETURN_IF_ERROR(
        MetaPutU64(&meta, kMetaDeltaCount,
                   delta_count > moved ? delta_count - moved : 0));
    io.rows_updated.fetch_add(2 * moved, std::memory_order_relaxed);
    MICRONN_RETURN_IF_ERROR(engine_->Commit(std::move(txn)));
    report.delta_flushed += moved;
  }

  // Drift requantization (ROADMAP "SQ8 drift requantization"): partitions
  // whose flush saturated more than sq8_requantize_saturation of its
  // codes get fresh per-dim bounds and rewritten sidecar rows, in place,
  // via the same RequantizePartition pass a full rebuild uses. The
  // sidecar invariant (params(p) => codes mirror rows key-for-key) holds
  // throughout, so the row-count delta is zero.
  if (options_.sq8_requantize_saturation > 0) {
    std::vector<uint32_t> drifted;
    for (const auto& [partition, sat] : saturation) {
      if (sat.total == 0) continue;
      const double ratio = static_cast<double>(sat.saturated) /
                           static_cast<double>(sat.total);
      if (ratio > options_.sq8_requantize_saturation) {
        drifted.push_back(partition);
      }
    }
    // Floor the chunk size so each transaction always requantizes at
    // least one partition — a rebuild_chunk_rows of 0 must not spin.
    const uint64_t requantize_chunk_rows =
        std::max<uint64_t>(1, options_.rebuild_chunk_rows);
    size_t next = 0;
    while (next < drifted.size()) {
      MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                               engine_->BeginWrite());
      MICRONN_ASSIGN_OR_RETURN(BTree vectors, txn->OpenTable(kVectorsTable));
      MICRONN_ASSIGN_OR_RETURN(BTree sq8, txn->OpenTable(kSq8Table));
      MICRONN_ASSIGN_OR_RETURN(BTree sq8params,
                               txn->OpenTable(kSq8ParamsTable));
      uint64_t rows_this_txn = 0;
      while (next < drifted.size() && rows_this_txn < requantize_chunk_rows) {
        MICRONN_ASSIGN_OR_RETURN(
            uint64_t rows,
            RequantizePartition(vectors, sq8, sq8params, drifted[next], dim,
                                /*global_bounds=*/nullptr));
        rows_this_txn += rows;
        io.rows_updated.fetch_add(rows, std::memory_order_relaxed);
        ++report.partitions_requantized;
        ++next;
      }
      MICRONN_RETURN_IF_ERROR(engine_->Commit(std::move(txn)));
    }
  }

  // Centroid update: VLAD-style running mean over the new members, then
  // bump the index version so centroid caches refresh.
  {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                             engine_->BeginWrite());
    MICRONN_ASSIGN_OR_RETURN(BTree ctable, txn->OpenTable(kCentroidsTable));
    for (const auto& [row, upd] : updates) {
      const auto& [sum, added] = upd;
      const uint32_t partition = cset.partitions[row];
      MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> blob,
                               ctable.Get(key::U32(partition)));
      if (!blob.has_value()) continue;
      CentroidRow cr;
      MICRONN_RETURN_IF_ERROR(DecodeCentroidRow(*blob, dim, &cr));
      const uint64_t new_count = cr.count + added;
      if (new_count > 0) {
        for (uint32_t d = 0; d < dim; ++d) {
          cr.centroid[d] = static_cast<float>(
              (static_cast<double>(cr.centroid[d]) *
                   static_cast<double>(cr.count) +
               sum[d]) /
              static_cast<double>(new_count));
        }
        if (options_.metric == Metric::kCosine) {
          const float norm = Norm(cr.centroid.data(), dim);
          if (norm > 0.f) {
            for (uint32_t d = 0; d < dim; ++d) cr.centroid[d] /= norm;
          }
        }
      }
      MICRONN_RETURN_IF_ERROR(
          ctable.Put(key::U32(partition),
                     EncodeCentroidRow(new_count, cr.centroid.data(), dim)));
      io.rows_updated.fetch_add(1, std::memory_order_relaxed);
    }
    MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
    MICRONN_ASSIGN_OR_RETURN(uint64_t version,
                             MetaGetU64(&meta, kMetaIndexVersion, 0));
    MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaIndexVersion, version + 1));
    MICRONN_RETURN_IF_ERROR(engine_->Commit(std::move(txn)));
  }
  const IoStats::View after = engine_->io_stats().Snapshot();
  report.row_changes = (after - before).RowChanges();
  return report;
}

Status DB::AnalyzeStats() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return AnalyzeStatsLocked();
}

Result<ScrubReport> DB::Scrub() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  ScrubReport report;
  MICRONN_RETURN_IF_ERROR(engine_->pager()->Scrub(&report));
  // A pass that re-verified (or repaired) every page means the quantized
  // representations are trustworthy again: lift the quarantine so the
  // planner returns to SQ8 scans.
  if (report.unrepairable.empty()) {
    quarantine_.ClearVerified();
  }
  return report;
}

Result<bool> DB::ScrubStep(uint32_t max_pages) {
  bool done = false;
  MICRONN_RETURN_IF_ERROR(engine_->pager()->ScrubStep(max_pages, &done));
  if (done &&
      engine_->pager()->scrub_state().last_report.unrepairable.empty()) {
    quarantine_.ClearVerified();
  }
  return done;
}

Status DB::AnalyzeStatsLocked() {
  struct ColumnSample {
    ValueType type;
    uint64_t count = 0;
    std::vector<AttributeValue> reservoir;
  };
  std::map<std::string, ColumnSample> samples;
  Rng rng(options_.seed ^ 0xa11a5ULL);
  {
    MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> txn,
                             engine_->BeginRead());
    MICRONN_ASSIGN_OR_RETURN(BTree attributes,
                             txn->OpenTable(kAttributesTable));
    BTreeCursor c = attributes.NewCursor();
    MICRONN_RETURN_IF_ERROR(c.SeekToFirst());
    while (c.Valid()) {
      MICRONN_ASSIGN_OR_RETURN(std::string blob, c.value());
      MICRONN_ASSIGN_OR_RETURN(AttributeRecord record,
                               DecodeAttributeRecord(blob));
      for (const auto& [column, value] : record) {
        auto [it, inserted] =
            samples.try_emplace(column, ColumnSample{value.type, 0, {}});
        ColumnSample& cs = it->second;
        if (value.type != cs.type) continue;  // mixed types: keep first
        ++cs.count;
        // Reservoir sampling (Vitter's R).
        if (cs.reservoir.size() < kStatsSampleSize) {
          cs.reservoir.push_back(value);
        } else {
          const uint64_t j = rng.Uniform(cs.count);
          if (j < kStatsSampleSize) cs.reservoir[j] = value;
        }
      }
      MICRONN_RETURN_IF_ERROR(c.Next());
    }
  }
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<WriteTransaction> txn,
                           engine_->BeginWrite());
  MICRONN_ASSIGN_OR_RETURN(BTree stats, txn->OpenOrCreateTable(kStatsTable));
  MICRONN_RETURN_IF_ERROR(stats.Clear());
  for (auto& [column, cs] : samples) {
    const ColumnStats built =
        BuildColumnStats(cs.type, cs.count, std::move(cs.reservoir));
    MICRONN_RETURN_IF_ERROR(stats.Put(key::Str(column), built.Serialize()));
  }
  MICRONN_ASSIGN_OR_RETURN(BTree meta, txn->OpenTable(kMetaTable));
  MICRONN_ASSIGN_OR_RETURN(uint64_t version,
                           MetaGetU64(&meta, kMetaStatsVersion, 0));
  MICRONN_RETURN_IF_ERROR(MetaPutU64(&meta, kMetaStatsVersion, version + 1));
  return engine_->Commit(std::move(txn));
}

}  // namespace micronn
