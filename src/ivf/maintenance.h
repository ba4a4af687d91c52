// Index monitoring and maintenance policy (paper §3.6 and Figure 1's
// "Index Monitor").
//
// The monitor tracks partition-size growth relative to the last full
// build. Incremental maintenance (delta flush with centroid nudging) is
// cheap but lets partitions grow; when the average partition size exceeds
// the configured growth threshold over its post-build baseline, a full
// rebuild is triggered ("we prevent unbounded growth of query latency by
// allowing clients to put a threshold on average partition size growth").
#ifndef MICRONN_IVF_MAINTENANCE_H_
#define MICRONN_IVF_MAINTENANCE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ivf/centroid_set.h"
#include "ivf/schema.h"

namespace micronn {

/// A point-in-time view of index health.
struct IndexStats {
  uint32_t n_partitions = 0;        // real partitions (delta excluded)
  uint64_t total_vectors = 0;       // rows incl. delta
  uint64_t delta_count = 0;         // rows in the delta store
  double avg_partition_size = 0;    // mean over real partitions
  double base_avg_partition_size = 0;  // at the last full build
  double size_cv = 0;               // coefficient of variation of sizes
  uint64_t max_partition_size = 0;
  uint64_t index_version = 0;       // bumped on every full build
};

/// Thresholds for maintenance decisions.
struct RebuildPolicy {
  /// Full rebuild when avg partition size >= base * (1 + growth_threshold).
  /// Paper's experiment (Fig. 10) uses 0.5.
  double growth_threshold = 0.5;
};

/// Derives stats from a loaded centroid set + meta values.
Result<IndexStats> ComputeIndexStats(const CentroidSet& centroids,
                                     BTree meta);

/// True when the growth criterion mandates a full rebuild.
bool ShouldFullRebuild(const IndexStats& stats, const RebuildPolicy& policy);

// --- SQ8 quantization maintenance ---
//
// Scalar-quantization parameters are per partition and are recomputed
// during the same partition maintenance MicroNN already performs: a full
// rebuild re-derives every partition's per-dim bounds from its final
// membership (and the collection-global bounds that serve the delta
// store), while the incremental delta flush re-quantizes each moved row
// with its destination partition's existing parameters.

/// Streaming per-dimension bounds over a set of vectors; O(dim) memory.
struct Sq8BoundsAccumulator {
  std::vector<float> min;
  std::vector<float> max;
  bool any = false;

  void Reset(size_t dim);
  void Add(const float* v, size_t dim);
  /// Unions another accumulator's bounds (the global-bounds fold).
  void Union(const Sq8BoundsAccumulator& other);
};

/// Finalizes bounds into quantization parameters: scale = (max - min)/255
/// per dimension (0 for constant dimensions, which encode exactly), and
/// max_error 0 (no row quantized yet).
Sq8PartitionParams FinalizeSq8Params(const Sq8BoundsAccumulator& bounds);

/// Recomputes partition `partition`'s SQ8 parameters from its current rows
/// in `vectors` and rewrites its rows in `sq8` (two passes over the
/// partition's contiguous key range, O(dim) working memory), then writes
/// the params row, with the largest reconstruction error of the rewritten
/// rows as its max_error, to `params_table`. An empty partition writes
/// nothing. `global_bounds` (optional) receives the union of the
/// partition's bounds. Returns the number of rows quantized. Must run
/// inside a write transaction owning all three trees.
Result<uint64_t> RequantizePartition(BTree vectors, BTree sq8,
                                     BTree params_table, uint32_t partition,
                                     uint32_t dim,
                                     Sq8BoundsAccumulator* global_bounds);

}  // namespace micronn

#endif  // MICRONN_IVF_MAINTENANCE_H_
