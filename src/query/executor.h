// Query executor: runs a group of physical plans with shared partition
// scans (paper §3.4 multi-query optimization, generalized to filtered,
// exact, and heterogeneous-(k, nprobe) groups).
//
// Execution model:
//   1. Probe-set op — every partition-scanning plan (ANN post-filter,
//      unfiltered ANN, exact) computes its probe set: the nprobe nearest
//      partitions (blocked Q x |centroids| matrix, query/batch.h) plus
//      the delta store; exact plans probe every partition physically
//      present in the vectors table.
//   2. Partition-scan op — the inverted (partition -> plans) map becomes
//      a parallel work list; each partition is scanned exactly once via
//      the ScanPartitionIntoHeaps kernel, scoring a Qp x B distance block
//      for the Qp plans that probe it, with per-plan filter pushdown.
//   3. Merge op — per-(worker, plan) heaps merge into per-plan results.
//      Quantized plans then rerank at full precision the candidates
//      whose error-bounded SQ8 distance can still reach the top-k,
//      reading each row at the partition its scan recorded
//      (SearchByLocations — no vidmap reads).
//   4. Pre-filter plans run their vectorized candidate scoring
//      (SearchByVids) over the same pool.
// Per-plan counters are exact: each plan sees precisely the partitions,
// rows, and filter drops a dedicated execution would have seen, while the
// group counters record the shared work actually performed.
#ifndef MICRONN_QUERY_EXECUTOR_H_
#define MICRONN_QUERY_EXECUTOR_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "ivf/centroid_set.h"
#include "ivf/search.h"
#include "query/batch.h"
#include "query/planner.h"

namespace micronn {

/// Tables and tuning the executor needs; all handles must stay valid for
/// the duration of Execute (they belong to the caller's read snapshot).
struct ExecutorContext {
  BTree vectors;
  BTree vidmap;  // pre-filter plans resolve candidate vids through it
  /// Required when the group contains any ANN plan (kUnfiltered /
  /// kPostFilter); may be null otherwise — exact plans enumerate the
  /// physically present partitions instead.
  const CentroidSet* centroids = nullptr;
  uint32_t dim = 0;
  Metric metric = Metric::kL2;
  ThreadPool* pool = nullptr;  // may be null (serial execution)
  /// SQ8 sidecar tables (quantized plans). Unset disables the quantized
  /// path; a partition without a params row falls back to the float scan.
  std::optional<BTree> sq8;
  std::optional<BTree> sq8params;
  /// Attributes table for shared filter evaluation: heterogeneous-filter
  /// fan-ins decode each row's attribute record once and evaluate every
  /// distinct fan-in predicate against it. Unset falls back to per-plan
  /// row filters.
  std::optional<BTree> attributes;
  /// Read-ahead plumbing (DbOptions::prefetch_depth). With a pager, a
  /// snapshot, and depth > 0, workers draining the partition work list
  /// claim up to `prefetch_depth` not-yet-scanned partitions ahead and
  /// issue their leaf pages as best-effort Pager::PrefetchPages batches,
  /// and SearchByVids stages batch their point-read leaves the same way.
  /// Results are bit-identical with prefetch on or off; a null pager or
  /// depth 0 is the fully blocking seed path.
  Pager* pager = nullptr;
  uint64_t snapshot_seq = 0;
  uint32_t prefetch_depth = 0;
  /// When a read-ahead is reaped (DbOptions::async_prefetch): on, the
  /// claimed-ahead partitions' handles are reaped right before their scan
  /// and SearchByVids stage 2 pipelines its point-read chunks; off, every
  /// batch is reaped as soon as it is submitted. Results are bit-identical
  /// either way.
  bool async_prefetch = false;
};

/// One plan's outcome.
struct PlanResult {
  std::vector<Neighbor> neighbors;  // ascending distance
  SearchCounters counters;          // true per-plan counters
  uint64_t probe_pairs = 0;         // probe set size, delta excluded
  bool shared_scan = false;         // scans were shared with other plans
  /// Quantized-scan outcome (plans lowered with PhysicalPlan::quantized):
  /// partitions served by the SQ8 sidecar, candidates handed to the
  /// full-precision rerank, and rows the rerank re-read (the candidates
  /// the error bound could not rule out of the top-k). `quantized` is
  /// true only when at least one partition actually scanned quantized —
  /// a quantized plan over an unbuilt index degenerates to the float path
  /// and skips the rerank.
  bool quantized = false;
  uint64_t partitions_quantized = 0;
  uint64_t rerank_candidates = 0;
  uint64_t rows_reranked = 0;
  /// Probed partitions whose quantized representation was quarantined
  /// (corrupt SQ8 params row or sidecar page): the partition was served
  /// by the full-precision float scan instead, so results stay correct
  /// at a latency cost. Rows quarantined by corrupt attribute records
  /// are counted in `counters.rows_quarantined`.
  uint64_t partitions_quarantined = 0;
  /// The quarantined partitions' ids (one entry per quarantine event, so
  /// a partition probed by several plans can repeat) — what DB threads
  /// into its QuarantineRegistry so DB::Health() can name the partitions
  /// the background healer needs to re-verify.
  std::vector<uint32_t> quarantined_partition_ids;
};

class QueryExecutor {
 public:
  explicit QueryExecutor(ExecutorContext ctx) : ctx_(std::move(ctx)) {}

  /// Executes every plan of the group. `group` (optional) receives the
  /// group-level counters: physical partition scans performed, rows
  /// decoded once per shared scan, and total probe pairs.
  Result<std::vector<PlanResult>> Execute(
      const std::vector<PhysicalPlan>& plans, BatchCounters* group);

 private:
  ExecutorContext ctx_;
};

}  // namespace micronn

#endif  // MICRONN_QUERY_EXECUTOR_H_
