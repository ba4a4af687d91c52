// Relational schema of a MicroNN database (paper Figure 2).
//
// Tables (all are storage-engine B+Trees; key encodings from
// storage/key_encoding.h):
//   vectors    key (u32 partition, u64 vid) -> row {asset_id, vector blob}
//              The clustered primary key: one IVF partition is a contiguous
//              key range, hence physically contiguous leaf pages.
//   vidmap     key u64 vid -> u32 partition. Location index used by
//              upsert/delete and the pre-filter executor. Swapped together
//              with `vectors` on rebuild.
//   assets     key string asset_id -> u64 vid. Stable across rebuilds
//              (vids are assigned once per asset).
//   centroids  key u32 partition -> {u64 count, centroid blob}
//   attributes key u64 vid -> serialized attribute record (query module)
//   meta       key string -> value (dim, metric, counters, versions)
//
// Partition 0 is the delta store (§3.6): "the delta-store is represented by
// assigning a reserved partition identifier".
#ifndef MICRONN_IVF_SCHEMA_H_
#define MICRONN_IVF_SCHEMA_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "numerics/metric.h"
#include "storage/btree.h"
#include "storage/engine.h"

namespace micronn {

/// The reserved delta-store partition (always scanned by ANN search).
inline constexpr uint32_t kDeltaPartition = 0;
/// Real IVF partitions are numbered from 1.
inline constexpr uint32_t kFirstPartition = 1;

/// Table names.
inline constexpr const char* kVectorsTable = "vectors";
inline constexpr const char* kVidMapTable = "vidmap";
inline constexpr const char* kAssetsTable = "assets";
inline constexpr const char* kCentroidsTable = "centroids";
inline constexpr const char* kAttributesTable = "attributes";
inline constexpr const char* kMetaTable = "meta";
/// SQ8 sidecar tables: `vectors#sq8` mirrors the vectors table key-for-key
/// with int8 quantized rows (dim bytes per row, the quantized-scan column);
/// `sq8params` holds one per-partition parameter row (per-dim min/scale).
/// Invariant: whenever sq8params has an entry for partition p, every row of
/// p in `vectors` has a matching row in `vectors#sq8` — a partition without
/// params falls back to full-precision scans.
inline constexpr const char* kSq8Table = "vectors#sq8";
inline constexpr const char* kSq8ParamsTable = "sq8params";
/// Staging names the chunked full rebuild writes into.
inline constexpr const char* kVectorsNewTable = "vectors#new";
inline constexpr const char* kVidMapNewTable = "vidmap#new";
inline constexpr const char* kSq8NewTable = "vectors#sq8#new";
inline constexpr const char* kSq8ParamsNewTable = "sq8params#new";

/// One table of the index generation a full rebuild replaces as a unit:
/// the rebuild writes `staging`, the swap renames `live` to `retired` and
/// `staging` to `live`, and chunked cleanup drops `retired`.
struct GenerationTable {
  const char* live;
  const char* staging;  // "#new"
  const char* retired;  // "#old"
};
/// Every generation table, in the order the lifecycle visits them.
inline constexpr GenerationTable kGenerationTables[] = {
    {kVectorsTable, kVectorsNewTable, "vectors#old"},
    {kVidMapTable, kVidMapNewTable, "vidmap#old"},
    {kSq8Table, kSq8NewTable, "vectors#sq8#old"},
    {kSq8ParamsTable, kSq8ParamsNewTable, "sq8params#old"},
};

/// Meta keys.
inline constexpr const char* kMetaDim = "dim";
inline constexpr const char* kMetaMetric = "metric";
inline constexpr const char* kMetaNextVid = "next_vid";
inline constexpr const char* kMetaNumPartitions = "n_partitions";
inline constexpr const char* kMetaDeltaCount = "delta_count";
inline constexpr const char* kMetaBaseAvgPartition = "base_avg_partition";
inline constexpr const char* kMetaIndexVersion = "index_version";
inline constexpr const char* kMetaRebuildInProgress = "rebuild_in_progress";
inline constexpr const char* kMetaCleanupPending = "cleanup_pending";
inline constexpr const char* kMetaTargetClusterSize = "target_cluster_size";
inline constexpr const char* kMetaStatsVersion = "stats_version";

// --- Key builders ---

/// (partition, vid) clustered key of the vectors table.
std::string VectorKey(uint32_t partition, uint64_t vid);
/// Prefix covering one partition of the vectors table.
std::string PartitionPrefix(uint32_t partition);
Status ParseVectorKey(std::string_view key, uint32_t* partition,
                      uint64_t* vid);

// --- Row codecs ---

/// Vectors-table row payload.
struct VectorRow {
  std::string asset_id;
  std::string_view vector_blob;  // raw little-endian floats (dim * 4 bytes)
};

std::string EncodeVectorRow(std::string_view asset_id,
                            const float* vec, size_t dim);
Status DecodeVectorRow(std::string_view value, size_t dim, VectorRow* out);

/// Centroids-table row payload.
struct CentroidRow {
  uint64_t count = 0;
  std::vector<float> centroid;
};

std::string EncodeCentroidRow(uint64_t count, const float* centroid,
                              size_t dim);
Status DecodeCentroidRow(std::string_view value, size_t dim,
                         CentroidRow* out);

/// vidmap row payload: the partition currently holding a vid.
std::string EncodeVidMapValue(uint32_t partition);
Status DecodeVidMapValue(std::string_view value, uint32_t* partition);

/// sq8params row payload: per-dimension affine quantization parameters of
/// one partition (code c reconstructs as min[d] + scale[d] * c), then the
/// largest reconstruction error of the rows quantized with them. The
/// delta-store entry (partition 0) holds collection-global parameters so
/// freshly upserted rows can be quantized before any maintenance runs.
struct Sq8PartitionParams {
  std::vector<float> min;    // dim entries
  std::vector<float> scale;  // dim entries, >= 0
  /// An upper bound on ||x - x_hat||_2 over every row of the partition's
  /// `vectors#sq8` codes (x_hat its reconstruction). Every write of a code
  /// row raises it in the same transaction; deletes never lower it. +inf
  /// (a legacy row without the field) disables rerank pruning.
  float max_error = std::numeric_limits<float>::infinity();
};

/// Row layout: min[dim], scale[dim], max_error (2*dim + 1 floats). A
/// legacy row of exactly 2*dim floats decodes with max_error = +inf; any
/// other size, or a NaN or negative max_error, is Corruption.
std::string EncodeSq8Params(const Sq8PartitionParams& params);
Status DecodeSq8Params(std::string_view value, size_t dim,
                       Sq8PartitionParams* out);
/// Loads one partition's params from the sq8params table; nullopt when the
/// partition has none (scans then fall back to full precision).
Result<std::optional<Sq8PartitionParams>> GetSq8Params(BTree* sq8params,
                                                       uint32_t partition,
                                                       size_t dim);

/// vectors#sq8 row payload: exactly dim code bytes (no header — the row's
/// asset id lives in the full-precision row). Returns the code pointer, or
/// Corruption on a size mismatch.
std::string EncodeSq8Row(const uint8_t* codes, size_t dim);
Result<const uint8_t*> DecodeSq8Row(std::string_view value, size_t dim);

// --- Meta accessors (operate on the meta table through any view) ---

Result<uint64_t> MetaGetU64(BTree* meta, std::string_view key,
                            uint64_t default_value);
Status MetaPutU64(BTree* meta, std::string_view key, uint64_t value);
Result<double> MetaGetF64(BTree* meta, std::string_view key,
                          double default_value);
Status MetaPutF64(BTree* meta, std::string_view key, double value);

}  // namespace micronn

#endif  // MICRONN_IVF_SCHEMA_H_
