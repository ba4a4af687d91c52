// Partition scanning: the inner loop of every partition-scanning query
// plan (ANN, batch and exact).
//
// Rows of one partition are physically contiguous in the vectors table
// (clustered key), so a partition scan is a short range scan. Rows are
// decoded into fixed-size blocks whose layout matches the SIMD kernels
// ("the format expected by the matrix multiplication library", §3.3) —
// no per-row marshalling.
#ifndef MICRONN_IVF_SCAN_H_
#define MICRONN_IVF_SCAN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ivf/schema.h"
#include "numerics/aligned_buffer.h"

namespace micronn {

/// Predicate applied to each row before it enters a distance block;
/// returning false drops the row (the paper's post-filter pushdown: rows
/// failing the attribute constraint are "filtered before being considered
/// in the top-K computation"). May fail (it reads the attributes table).
using RowFilter = std::function<Result<bool>(uint64_t vid)>;

/// One decoded block of partition rows. A block never spans two
/// partitions, so `partition` locates every row in it.
struct ScanBlock {
  const uint64_t* vids = nullptr;   // row ids
  const float* data = nullptr;      // row-major count x dim
  size_t count = 0;
  uint32_t partition = 0;
};

/// Receives blocks during a scan; returning an error aborts the scan.
using BlockCallback = std::function<Status(const ScanBlock&)>;

/// One decoded block of quantized partition rows (row i at
/// codes + i * dim; dim code bytes per row, the clamp flag stripped).
struct Sq8ScanBlock {
  const uint64_t* vids = nullptr;
  const uint8_t* codes = nullptr;
  size_t count = 0;
  uint32_t partition = 0;
};

using Sq8BlockCallback = std::function<Status(const Sq8ScanBlock&)>;

/// Scan statistics (observability + the paper's I/O accounting).
struct ScanCounters {
  uint64_t rows_scanned = 0;    // rows decoded (after filtering)
  uint64_t rows_filtered = 0;   // rows dropped by the filter
  /// Rows skipped because their attribute record could not be read
  /// (checksum failure on the attributes table — the row is quarantined
  /// rather than failing the whole query; see docs/DURABILITY.md).
  uint64_t rows_quarantined = 0;
};

/// Number of rows per decoded block.
inline constexpr size_t kScanBlockRows = 256;

/// Scans partition `partition` of `vectors` (dim-float rows), assembling
/// blocks of up to kScanBlockRows rows and invoking `cb` per block. The
/// filter (optional) is applied before block assembly.
Status ScanPartition(BTree vectors, uint32_t partition, uint32_t dim,
                     const RowFilter& filter, const BlockCallback& cb,
                     ScanCounters* counters);

/// Scans partition `partition` of the `vectors#sq8` sidecar table: rows are
/// dim code bytes and a clamp flag (DecodeSq8Row), assembled into int8
/// blocks with no per-row float decode or marshalling. The filter
/// (optional) is applied before block assembly, same as the float scan.
/// The vid of every assembled row whose clamp flag is set is appended to
/// `*clamped`.
Status ScanPartitionSq8(BTree sq8, uint32_t partition, uint32_t dim,
                        const RowFilter& filter, const Sq8BlockCallback& cb,
                        ScanCounters* counters,
                        std::vector<uint64_t>* clamped);

/// Appends to `*out` the ids of every leaf page that may hold rows of
/// `partition` in `table` (the vectors table or its sq8 sidecar — both are
/// clustered on VectorKey, so a partition is one contiguous key range),
/// without reading those leaves. Capped at `max_pages` entries. Feed the
/// result to Pager::PrefetchPages ahead of ScanPartition /
/// ScanPartitionSq8 so the scan's leaves arrive as one batched read.
Status CollectPartitionLeafPages(BTree table, uint32_t partition,
                                 size_t max_pages, std::vector<PageId>* out);

/// Distinct partition ids physically present in the vectors table
/// (ascending; delta included if it has rows). One seek per partition.
/// Exact plans enumerate partitions from here — not from the centroid
/// metadata — so exhaustive scans stay exhaustive even if index metadata
/// and row placement ever disagree.
Result<std::vector<uint32_t>> ListPartitions(BTree vectors);

}  // namespace micronn

#endif  // MICRONN_IVF_SCAN_H_
