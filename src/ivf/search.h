// Search kernels (paper Algorithm 2 and §3.3) that the query executor
// (src/query/executor.h) is built on: the scan-into-heaps kernel every
// partition-scanning plan uses, and brute-force scoring of rows at known
// locations or vids. Distances are computed over decoded row blocks with
// the SIMD kernels.
#ifndef MICRONN_IVF_SEARCH_H_
#define MICRONN_IVF_SEARCH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "ivf/scan.h"
#include "ivf/schema.h"
#include "numerics/topk.h"

namespace micronn {

/// Per-query execution counters, surfaced for benchmarks and tests.
struct SearchCounters {
  uint64_t partitions_scanned = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_filtered = 0;
  /// Rows skipped because their attribute record was corrupt (quarantined
  /// instead of failing the query); mirrors ScanCounters::rows_quarantined.
  uint64_t rows_quarantined = 0;
};

/// Shared attribute-filter evaluation for a heterogeneous-filter fan-in:
/// fetches and decodes the row's attribute record once per row, then
/// evaluates every distinct fan-in predicate against it. verdicts[s]
/// receives slot s (callers size the buffer to the slot count). Built by
/// the query executor, which owns the predicate/attribute types; the scan
/// kernels only route verdicts. Must be thread-safe: shared scans call it
/// concurrently from multiple workers with per-worker verdict buffers.
using SharedFilterEval = std::function<Status(uint64_t vid, bool* verdicts)>;

/// One query's slot in a (possibly shared) partition scan: where its
/// distances go, which rows it accepts, and where its counters accumulate.
struct HeapScanTarget {
  const float* query = nullptr;       // dim floats (normalized for cosine)
  TopKHeap* heap = nullptr;           // receives surviving rows
  const RowFilter* filter = nullptr;  // optional per-query filter
  ScanCounters* counters = nullptr;   // optional per-query counters
  /// Verdict slot of this target's predicate in the scan's
  /// SharedFilterEval; -1 when the target is unfiltered or the scan runs
  /// without shared evaluation (per-target `filter` is used instead).
  int filter_slot = -1;
};

/// The scan-into-heaps kernel: scans `partition` exactly once and scores
/// every decoded block against all `n_targets` queries (DistanceOneToMany
/// for one target, one DistanceManyToMany block otherwise — the §3.4
/// shared scan), pushing surviving rows into each target's heap.
///
/// Filter pushdown: when every target shares the same filter pointer (in
/// particular, a single target), the filter runs inside the scan so that
/// failing rows skip row decode entirely — identical to the single-query
/// post-filter path. With heterogeneous filters the scan is unfiltered
/// and each target's filter is evaluated per row before its heap push;
/// per-target counters see exactly what a dedicated scan would have seen.
///
/// `scan_counters` (optional) receives the *physical* scan cost — rows
/// decoded once, however many targets consumed them — which is what the
/// group-level MQO accounting wants.
///
/// `shared_eval` (optional, heterogeneous-filter fan-ins only): decodes
/// each row's attribute record once and evaluates all distinct predicates
/// (`n_slots` of them); filtered targets then consume verdicts through
/// their `filter_slot` instead of running their own attribute lookup per
/// row. Targets with filter_slot < 0 fall back to their RowFilter.
Status ScanPartitionIntoHeaps(BTree vectors, uint32_t partition, Metric metric,
                              uint32_t dim, HeapScanTarget* targets,
                              size_t n_targets,
                              ScanCounters* scan_counters = nullptr,
                              const SharedFilterEval* shared_eval = nullptr,
                              size_t n_slots = 0);

/// The quantized twin of ScanPartitionIntoHeaps: scans the partition's
/// int8 rows from the `vectors#sq8` sidecar table and scores them with the
/// asymmetric SQ8 kernels against every target (per-target affine
/// precompute done once per scan from the partition's `min`/`scale`
/// arrays, dim entries each). Distances pushed into the heaps approximate
/// the full-precision distances — callers size the heaps to k*alpha and
/// re-score exactly the candidates that can still reach the top-k (the
/// executor's rerank op). Filter semantics, counters, and shared
/// evaluation match the float kernel.
Status ScanPartitionSq8IntoHeaps(BTree sq8, uint32_t partition, Metric metric,
                                 uint32_t dim, const float* min,
                                 const float* scale, HeapScanTarget* targets,
                                 size_t n_targets,
                                 ScanCounters* scan_counters = nullptr,
                                 const SharedFilterEval* shared_eval = nullptr,
                                 size_t n_slots = 0);

/// Snapshot handle for read-ahead inside search primitives. When supplied
/// to SearchByVids / SearchByLocations, each point-read stage first
/// enumerates the leaf pages its sorted key run will touch
/// (BTree::CollectLeafPages) and issues them as one best-effort
/// Pager::PrefetchPages batch, reaped at once, so the cursor walk behind
/// it hits cache instead of paying one blocking pread per leaf. With
/// `async` set, the scoring stage pipelines instead: each slice submits
/// the next chunk's leaves, scores the current chunk, then reaps — the
/// leaf reads overlap the distance kernel. Results are bit-identical in
/// every mode.
struct PrefetchContext {
  Pager* pager = nullptr;
  uint64_t snapshot_seq = 0;
  bool async = false;
};

/// A row's location in the clustered vectors table: (partition, vid).
/// Ordered exactly like its VectorKey, so a sorted run of locations is a
/// sorted key run.
using RowLocation = std::pair<uint32_t, uint64_t>;

/// Brute-force top-k over rows at known locations: the scoring stage of
/// SearchByVids, and the executor's rerank op, which passes the locations
/// its scan recorded (Neighbor::partition). `rows` must be sorted; a
/// repeated location is scored once per occurrence. Each slice of the run is read with one cursor
/// (BTreeCursor::SeekForward + ValueView — no per-row root-to-leaf
/// descent, no value copy), decoded into SIMD blocks and scored with
/// DistanceOneToMany over kScanBlockRows rows; large runs split across
/// `pool` (may be null). Returned neighbors carry their partition. A row
/// missing at its location is Corruption naming the vid and partition.
Result<std::vector<Neighbor>> SearchByLocations(
    BTree vectors, Metric metric, uint32_t dim, const float* query,
    uint32_t k, std::span<const RowLocation> rows, ThreadPool* pool,
    SearchCounters* counters, const PrefetchContext* prefetch = nullptr);

/// Brute-force top-k over an explicit list of row ids (the pre-filtering
/// executor's second stage). The vidmap stage resolves each vid to its
/// partition (a vid without a vidmap entry is skipped); the sorted
/// locations then go to SearchByLocations. 100% recall over the candidate
/// set by construction. `vids` should be sorted (CollectMatchingVids
/// returns them sorted); `prefetch` may be null (no read-ahead — results
/// are identical either way).
Result<std::vector<Neighbor>> SearchByVids(BTree vectors, BTree vidmap,
                                           Metric metric, uint32_t dim,
                                           const float* query, uint32_t k,
                                           const std::vector<uint64_t>& vids,
                                           ThreadPool* pool,
                                           SearchCounters* counters,
                                           const PrefetchContext* prefetch =
                                               nullptr);

/// Reads vectors-table rows at known locations through one cursor. Reads
/// in ascending location order stay inside the pinned leaf while they can
/// (BTreeCursor::SeekForward) and borrow the value instead of copying it.
/// A row absent from its location is Corruption naming the vid and the
/// partition.
class VectorRowReader {
 public:
  VectorRowReader(BTree vectors, uint32_t dim)
      : cursor_(vectors.NewCursor()), dim_(dim) {}

  /// Decodes the row at `at` into `*row`; `row->vector_blob` is valid
  /// until the next Read.
  Status Read(const RowLocation& at, VectorRow* row);

 private:
  BTreeCursor cursor_;
  uint32_t dim_;
  std::string overflow_;  // ValueView spill buffer, reused across rows
};

/// Recall@k of `got` against ground truth `expected` (both ascending by
/// distance): |got ∩ expected| / |expected|.
double RecallAtK(const std::vector<Neighbor>& got,
                 const std::vector<Neighbor>& expected);

}  // namespace micronn

#endif  // MICRONN_IVF_SEARCH_H_
