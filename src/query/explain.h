// Per-query EXPLAIN output of the unified planner/executor.
//
// Every SearchResponse carries a QueryExplain describing the physical plan
// the planner chose (§3.5.1), the optimizer estimates that produced it,
// and the *true* per-query execution counters — plus, when the query ran
// inside a batch, the group-level scan-sharing counters (§3.4) that show
// how much work the multi-query optimization actually saved.
//
// It is the one per-query report from the executor to the caller, and
// each field has one writer: the QueryExecutor copies the planner's facts
// (plan, decision, optimized, nprobe, candidates, rerank_budget) from the
// PhysicalPlan and fills every execution and group counter;
// DB::ExecuteQueryGroup adds only the admission scheduler's
// coalesced_group_size and coalesce_wait_us. docs/ARCHITECTURE.md
// "EXPLAIN" tabulates the split.
#ifndef MICRONN_QUERY_EXPLAIN_H_
#define MICRONN_QUERY_EXPLAIN_H_

#include <cstdint>
#include <string>

#include "query/optimizer.h"

namespace micronn {

struct QueryExplain {
  /// Physical strategy executed (see QueryPlan).
  QueryPlan plan = QueryPlan::kUnfiltered;
  /// The optimizer's estimates; meaningful only when `optimized` is true
  /// (hybrid queries planned with PlanOverride::kAuto).
  PlanDecision decision;
  bool optimized = false;

  /// Effective nprobe after resolving the request default (ANN plans).
  uint32_t nprobe = 0;
  /// Partitions this query probed, delta store excluded (ANN plans).
  uint64_t probe_pairs = 0;
  /// Candidate rows produced by the attribute indexes (pre-filter plans).
  uint64_t candidates = 0;

  // True per-query execution counters: a batched query reports only its
  // own share of the shared scans.
  uint64_t partitions_scanned = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_filtered = 0;

  /// True when partition scans read the SQ8 quantized sidecar (at least
  /// one probed partition had quantization parameters). The
  /// accuracy/speed trade of the quantized path is observable through the
  /// rerank counters below.
  bool quantized = false;
  /// Probed partitions served by the quantized sidecar; the remainder
  /// (partitions_scanned - partitions_quantized) fell back to float scans.
  uint64_t partitions_quantized = 0;
  /// Candidate budget of the quantized scan: k * kSq8RerankAlpha
  /// (query/planner.h), saturating at UINT32_MAX; 0 for float plans.
  uint32_t rerank_budget = 0;
  /// Candidates the quantized scan produced and handed to the
  /// full-precision rerank (<= rerank_budget).
  uint64_t rerank_candidates = 0;
  /// Rows re-read at full precision by the rerank op: the candidates
  /// whose error-bounded distance can still reach the top-k, so
  /// min(k, rerank_candidates) <= rows_reranked <= rerank_candidates.
  uint64_t rows_reranked = 0;
  /// Candidates whose code row carries the clamp flag: a streamed row that
  /// fell outside its partition's quantization box, whose SQ8 distance has
  /// no error bound. Every one is re-read, so rerank_flagged <=
  /// rows_reranked when no partition was quarantined.
  uint64_t rerank_flagged = 0;

  /// Degraded-mode markers (docs/DURABILITY.md "Integrity & degraded
  /// modes"). Probed partitions whose quantized SQ8 representation failed
  /// checksum verification and was served by the full-precision float
  /// scan instead — results stay exact, latency pays for it.
  uint64_t partitions_quarantined = 0;
  /// Rows skipped because their attribute record was corrupt: the row is
  /// conservatively treated as not matching the filter instead of failing
  /// the query. Nonzero means the result set may be missing rows whose
  /// attributes could not be verified — degraded, but never silently
  /// wrong.
  uint64_t rows_quarantined = 0;

  /// True when this query's partition scans were shared with other
  /// queries of the same batch.
  bool shared_scan = false;
  /// Number of queries in the executed group (1 for DB::Search).
  uint32_t group_size = 1;
  /// Physical partition scans the whole group performed (a partition
  /// whose fan-in mixes quantized and float plans counts once per
  /// representation). With scan sharing this is strictly below the sum of
  /// the group's per-query partitions_scanned.
  uint64_t group_partitions_scanned = 0;
  /// Rows decoded across the whole group (each shared scan counted once).
  uint64_t group_rows_scanned = 0;
  /// Sum of probe-set sizes across the group (query-partition pairs).
  uint64_t group_probe_pairs = 0;

  /// Independent submissions (Search/BatchSearch calls) the admission
  /// scheduler coalesced into the executed group — 1 when the query ran
  /// alone (no concurrent peers staged beside it). When > 1,
  /// `group_size` counts the queries of *all* coalesced submissions.
  uint32_t coalesced_group_size = 1;
  /// Microseconds this request spent in the scheduler's staging queue
  /// before its group began executing (0 on the fast path).
  uint64_t coalesce_wait_us = 0;

  /// One-line human-readable rendering.
  std::string ToString() const;
};

}  // namespace micronn

#endif  // MICRONN_QUERY_EXPLAIN_H_
