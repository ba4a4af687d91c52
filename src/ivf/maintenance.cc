#include "ivf/maintenance.h"

#include <algorithm>
#include <cmath>

#include "ivf/scan.h"
#include "numerics/sq8.h"
#include "storage/key_encoding.h"

namespace micronn {

Result<IndexStats> ComputeIndexStats(const CentroidSet& centroids,
                                     BTree meta) {
  IndexStats stats;
  stats.n_partitions = static_cast<uint32_t>(centroids.size());
  stats.index_version = centroids.index_version;
  MICRONN_ASSIGN_OR_RETURN(stats.delta_count,
                           MetaGetU64(&meta, kMetaDeltaCount, 0));
  MICRONN_ASSIGN_OR_RETURN(stats.base_avg_partition_size,
                           MetaGetF64(&meta, kMetaBaseAvgPartition, 0.0));
  uint64_t sum = 0;
  uint64_t max = 0;
  double sum_sq = 0;
  for (const uint64_t c : centroids.counts) {
    sum += c;
    max = std::max(max, c);
    sum_sq += static_cast<double>(c) * static_cast<double>(c);
  }
  stats.total_vectors = sum + stats.delta_count;
  stats.max_partition_size = max;
  if (stats.n_partitions > 0) {
    const double mean =
        static_cast<double>(sum) / static_cast<double>(stats.n_partitions);
    stats.avg_partition_size = mean;
    const double var =
        sum_sq / static_cast<double>(stats.n_partitions) - mean * mean;
    stats.size_cv = mean > 0 ? std::sqrt(std::max(0.0, var)) / mean : 0.0;
  }
  return stats;
}

void Sq8BoundsAccumulator::Reset(size_t dim) {
  min.assign(dim, 0.f);
  max.assign(dim, 0.f);
  any = false;
}

void Sq8BoundsAccumulator::Add(const float* v, size_t dim) {
  if (!any) {
    min.assign(v, v + dim);
    max.assign(v, v + dim);
    any = true;
    return;
  }
  for (size_t d = 0; d < dim; ++d) {
    min[d] = std::min(min[d], v[d]);
    max[d] = std::max(max[d], v[d]);
  }
}

void Sq8BoundsAccumulator::Union(const Sq8BoundsAccumulator& other) {
  if (!other.any) return;
  if (!any) {
    min = other.min;
    max = other.max;
    any = true;
    return;
  }
  for (size_t d = 0; d < min.size(); ++d) {
    min[d] = std::min(min[d], other.min[d]);
    max[d] = std::max(max[d], other.max[d]);
  }
}

Sq8PartitionParams FinalizeSq8Params(const Sq8BoundsAccumulator& bounds) {
  Sq8PartitionParams params;
  const size_t dim = bounds.min.size();
  params.min = bounds.min;
  params.scale.resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    const float range = bounds.max[d] - bounds.min[d];
    params.scale[d] = range > 0.f ? range / 255.0f : 0.f;
  }
  params.max_error = 0.f;  // no row quantized yet
  return params;
}

Result<uint64_t> RequantizePartition(BTree vectors, BTree sq8,
                                     BTree params_table, uint32_t partition,
                                     uint32_t dim,
                                     Sq8BoundsAccumulator* global_bounds) {
  // Pass A: per-dim bounds over the partition's rows.
  Sq8BoundsAccumulator bounds;
  bounds.Reset(dim);
  MICRONN_RETURN_IF_ERROR(ScanPartition(
      vectors, partition, dim, /*filter=*/{},
      [&](const ScanBlock& block) -> Status {
        for (size_t r = 0; r < block.count; ++r) {
          bounds.Add(block.data + r * dim, dim);
        }
        return Status::OK();
      },
      nullptr));
  if (!bounds.any) return 0;  // empty partition: no params, no codes
  Sq8PartitionParams params = FinalizeSq8Params(bounds);
  if (global_bounds != nullptr) global_bounds->Union(bounds);

  // Pass B: quantize every row, write its sq8 sidecar row and fold the
  // reconstruction error of every row that did not clamp into the params'
  // max_error. Bounds fitted to the rows clamp only non-finite values.
  uint64_t rows = 0;
  std::vector<uint8_t> codes(dim);
  MICRONN_RETURN_IF_ERROR(ScanPartition(
      vectors, partition, dim, /*filter=*/{},
      [&](const ScanBlock& block) -> Status {
        for (size_t r = 0; r < block.count; ++r) {
          const float* v = block.data + r * dim;
          const bool clamped = QuantizeSq8(v, params.min.data(),
                                           params.scale.data(), dim,
                                           codes.data()) > 0;
          if (!clamped) {
            params.max_error = std::max(
                params.max_error,
                Sq8ReconstructionError(v, codes.data(), params.min.data(),
                                       params.scale.data(), dim));
          }
          MICRONN_RETURN_IF_ERROR(
              sq8.Put(VectorKey(partition, block.vids[r]),
                      EncodeSq8Row(codes.data(), dim, clamped)));
          ++rows;
        }
        return Status::OK();
      },
      nullptr));
  MICRONN_RETURN_IF_ERROR(
      params_table.Put(key::U32(partition), EncodeSq8Params(params)));
  return rows;
}

bool ShouldFullRebuild(const IndexStats& stats, const RebuildPolicy& policy) {
  if (stats.n_partitions == 0) {
    // Never built: any content at all warrants a first build.
    return stats.total_vectors > 0;
  }
  if (stats.base_avg_partition_size <= 0) return false;
  return stats.avg_partition_size >=
         stats.base_avg_partition_size * (1.0 + policy.growth_threshold);
}

}  // namespace micronn
