// In-memory image of the centroids table.
//
// The centroid table is small (|X| / target_cluster_size rows) and is
// scanned on every query to find the n nearest partitions (paper §3.2:
// "This table is significantly smaller than the vector table and can be
// scanned to find the nearest centroids"). Warm processes keep this image
// cached (core::DB), which is exactly the warm/cold gap of Figure 4.
#ifndef MICRONN_IVF_CENTROID_SET_H_
#define MICRONN_IVF_CENTROID_SET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "ivf/centroid_index.h"
#include "ivf/kmeans.h"
#include "ivf/schema.h"

namespace micronn {

/// Centroids plus their partition ids and current row counts.
struct CentroidSet {
  Centroids centroids;               // row i of the matrix
  std::vector<uint32_t> partitions;  // partition id of row i
  std::vector<uint64_t> counts;      // vectors currently in partition i
  uint64_t index_version = 0;        // meta[kMetaIndexVersion] at load time

  /// Optional two-level centroid index (§3.2's "the centroid table itself
  /// could also be indexed"). When set, FindNearestPartitions examines
  /// only the `accel_super_probe` nearest super-clusters.
  std::shared_ptr<const CentroidIndex> accel;
  uint32_t accel_super_probe = 8;

  size_t size() const { return partitions.size(); }
  uint64_t TotalCount() const {
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    return total;
  }

  /// Partition ids of the `n` nearest centroids to `query` (ascending
  /// distance). Returns fewer when there are fewer partitions.
  std::vector<uint32_t> FindNearestPartitions(const float* query,
                                              uint32_t n) const;
};

/// Loads the centroid table through `view`. `dim`/`metric` come from meta.
Result<CentroidSet> LoadCentroidSet(PageView* view, BTree centroids_table,
                                    BTree meta_table, uint32_t dim,
                                    Metric metric);

}  // namespace micronn

#endif  // MICRONN_IVF_CENTROID_SET_H_
