#include "ivf/centroid_set.h"

#include <algorithm>
#include <cstring>

#include "numerics/distance.h"
#include "numerics/topk.h"
#include "storage/key_encoding.h"

namespace micronn {

std::vector<uint32_t> CentroidSet::FindNearestPartitions(const float* query,
                                                         uint32_t n) const {
  const size_t count = size();
  if (count == 0 || n == 0) return {};
  if (accel != nullptr) {
    const std::vector<uint32_t> rows =
        accel->FindNearestRows(centroids, query, n, accel_super_probe);
    std::vector<uint32_t> out;
    out.reserve(rows.size());
    for (const uint32_t row : rows) {
      out.push_back(partitions[row]);
    }
    return out;
  }
  std::vector<float> dist(count);
  DistanceOneToMany(centroids.metric, query, centroids.data.data(), count,
                    centroids.dim, dist.data());
  TopKHeap heap(std::min<size_t>(n, count));
  for (size_t i = 0; i < count; ++i) {
    heap.Push(i, dist[i]);
  }
  std::vector<uint32_t> out;
  out.reserve(heap.size());
  for (const Neighbor& nb : heap.TakeSorted()) {
    out.push_back(partitions[nb.id]);
  }
  return out;
}

Result<CentroidSet> LoadCentroidSet(PageView* view, BTree centroids_table,
                                    BTree meta_table, uint32_t dim,
                                    Metric metric) {
  (void)view;
  CentroidSet set;
  set.centroids.dim = dim;
  set.centroids.metric = metric;
  MICRONN_ASSIGN_OR_RETURN(
      set.index_version, MetaGetU64(&meta_table, kMetaIndexVersion, 0));

  BTreeCursor c = centroids_table.NewCursor();
  MICRONN_RETURN_IF_ERROR(c.SeekToFirst());
  while (c.Valid()) {
    std::string_view k = c.key();
    uint32_t partition;
    if (!key::ConsumeU32(&k, &partition) || !k.empty()) {
      return Status::Corruption("malformed centroid key");
    }
    MICRONN_ASSIGN_OR_RETURN(std::string value, c.value());
    CentroidRow row;
    MICRONN_RETURN_IF_ERROR(DecodeCentroidRow(value, dim, &row));
    set.partitions.push_back(partition);
    set.counts.push_back(row.count);
    set.centroids.data.insert(set.centroids.data.end(), row.centroid.begin(),
                              row.centroid.end());
    MICRONN_RETURN_IF_ERROR(c.Next());
  }
  set.centroids.k = static_cast<uint32_t>(set.partitions.size());
  return set;
}

}  // namespace micronn
