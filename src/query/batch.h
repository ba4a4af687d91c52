// Probe-set phase of multi-query optimized batch execution (paper §3.4,
// after HQI).
//
// Given a batch of queries, MicroNN "first identifies the set of clusters
// that each query needs to access, and groups queries per partition. Then,
// instead of scanning a partition multiple times for each query, distances
// between queries and the vectors in the partition is calculated via a
// single matrix multiplication."
//
// This module implements the first step: one blocked Q x |centroids|
// distance computation yields every query's probe set (supporting
// heterogeneous per-query nprobe). Inverting the result into a
// (partition -> queries) work list and running the shared scans is the
// QueryExecutor's job (src/query/executor.h); the shared scan itself is
// the ScanPartitionIntoHeaps kernel (src/ivf/search.h).
#ifndef MICRONN_QUERY_BATCH_H_
#define MICRONN_QUERY_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ivf/centroid_set.h"

namespace micronn {

/// One query's slot in the probe-set computation.
struct ProbeRequest {
  const float* query = nullptr;  // dim floats (normalized for cosine)
  uint32_t nprobe = 0;           // partitions to probe (clamped to size)
};

/// Computes each request's probe set: the partition ids of its nprobe
/// nearest centroids, nearest first (the delta partition is NOT included —
/// callers always add it). Uses per-query accelerated lookups when the
/// centroid set carries a two-level index, and a blocked Q x |centroids|
/// DistanceManyToMany otherwise. Either way the result is bit-identical
/// to per-query CentroidSet::FindNearestPartitions, which is what keeps
/// batch execution result-equivalent to sequential execution.
std::vector<std::vector<uint32_t>> ComputeProbeSets(
    const CentroidSet& centroids, uint32_t dim,
    const std::vector<ProbeRequest>& requests);

}  // namespace micronn

#endif  // MICRONN_QUERY_BATCH_H_
